import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathcalc import (
    ContractError,
    Path,
    PsiSpec,
    SampleSpaceSpec,
    check_membership,
    read_path_csv,
    write_path_csv,
)
from pathcalc.partitions import LebesguePartition, lebesgue_partition_nd

from conftest import ladder_paths, random_step_path


class TestEval:
    def test_step_holds_value_between_events(self, p1):
        assert p1.eval(1.5)[0] == 0.6

    def test_initial_value(self, p1):
        assert p1.eval(0.0)[0] == 0.0

    def test_linear_interpolates(self):
        p = Path(times=[0.0, 2.0], values=[0.0, 1.0], mode="linear")
        assert p.eval(1.0)[0] == pytest.approx(0.5)

    def test_holds_after_last_event(self):
        p = Path(times=[0.0, 1.0], values=[0.0, 2.0], mode="step", horizon=3.0)
        assert p.eval(2.5)[0] == 2.0

    def test_outside_domain_raises(self, p1):
        with pytest.raises(ContractError):
            p1.eval(-0.1)
        with pytest.raises(ContractError):
            p1.eval(3.5)

    @pytest.mark.parametrize("mode", ["step", "linear"])
    @pytest.mark.parametrize("t", [np.nan, [0.5, np.nan, 1.5]], ids=["scalar", "array"])
    def test_nan_time_raises(self, mode, t):
        """A NaN time, alone or in an array, is outside the domain in both modes."""
        p = Path([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], mode=mode)
        with pytest.raises(ContractError, match="outside"):
            p.eval(t)
        with pytest.raises(ContractError, match="left limit"):
            p.left_limit(t)
        with pytest.raises(ContractError):
            p.jump(t)

    def test_vectorized(self, p1):
        out = p1.eval([0.0, 1.0, 2.9])
        assert out.shape == (3, 1)
        assert list(out[:, 0]) == [0.0, 0.6, 0.4]


class TestLeftLimitAndJump:
    def test_jump_at_event(self, p1):
        assert p1.jump(2.0)[0] == pytest.approx(-0.2)

    def test_no_jump_off_grid(self, p1):
        assert p1.jump(1.5)[0] == 0.0

    def test_linear_mode_never_jumps(self):
        p = Path(times=[0.0, 1.0], values=[0.0, 1.0], mode="linear")
        for t in (0.25, 1.0):
            assert p.jump(t)[0] == 0.0

    def test_left_limit_at_zero_raises(self, p1):
        with pytest.raises(ContractError):
            p1.left_limit(0.0)

    def test_jump_is_eval_minus_left_limit_everywhere(self):
        rng = np.random.default_rng(7)
        p = random_step_path(rng, n_events=10, dim=2)
        ts = np.concatenate([p.times[1:], rng.uniform(1e-6, p.horizon, 20)])
        for t in ts:
            np.testing.assert_allclose(p.jump(t), p.eval(t) - p.left_limit(t), rtol=0, atol=0)


class TestCadlagProperty:
    def test_right_continuity_on_and_off_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_step_path(rng, n_events=8)
            for tk in p.times[1:]:
                # value at tk is the post-jump value; left limit is the prior one
                k = int(np.searchsorted(p.times, tk))
                assert p.eval(tk)[0] == p.values[k, 0]
                assert p.left_limit(tk)[0] == p.values[k - 1, 0]


class TestNorms:
    def test_sup_norm_p1(self, p1):
        assert p1.sup_norm() == pytest.approx(1.3)

    def test_sup_norm_zero_path(self):
        assert Path(times=[0.0], values=[0.0], horizon=1.0).sup_norm() == 0.0

    def test_coordinate_sum_doubles(self, p1):
        p2d = Path(times=p1.times, values=np.column_stack([p1.values[:, 0], p1.values[:, 0]]))
        s = p2d.coordinate_sum(1, 2)
        np.testing.assert_allclose(s.values[:, 0], 2 * p1.values[:, 0])
        assert s.dim == 1

    def test_coordinate_sum_contract(self, p1):
        p2d = Path(times=p1.times, values=np.column_stack([p1.values[:, 0], p1.values[:, 0]]))
        with pytest.raises(ContractError):
            p2d.coordinate_sum(1, 1)
        with pytest.raises(ContractError):
            p2d.coordinate_sum(0, 1)


class TestMembership:
    def test_p1_fails_small_psi(self, p1):
        spec = SampleSpaceSpec(psi=PsiSpec("constant", (0.1,)), dim=1)
        report = check_membership(p1, spec)
        assert not report.ok
        # downward jump of 0.2 at t=2 exceeds psi(0.6) = 0.1
        assert [v[0] for v in report.violations] == [2.0]

    def test_p1_passes_psi_half(self, p1):
        spec = SampleSpaceSpec(psi=PsiSpec("constant", (0.5,)), dim=1)
        assert check_membership(p1, spec).ok

    def test_nonnegative_paths_pass_identity_psi(self):
        rng = np.random.default_rng(11)
        spec = SampleSpaceSpec(psi=PsiSpec("affine", (0.0, 1.0)), base="nonnegative", dim=1)
        for _ in range(25):
            p = random_step_path(rng, n_events=9)
            shifted = Path(p.times, p.values - p.values.min() + 0.01, mode="step", horizon=p.horizon)
            assert check_membership(shifted, spec).ok

    def test_nonnegative_base_reports_each_negative_value(self):
        p = Path(times=[0.0, 1.0, 2.0, 3.0], values=[[0.5, 0.1], [-0.2, 0.1], [0.3, 0.2],
                                                     [0.4, -1e-300]])
        spec = SampleSpaceSpec(psi=PsiSpec("constant", (1.0,)), base="nonnegative", dim=2)
        report = check_membership(p, spec)
        assert not report.ok
        assert report.violations == ((1.0, "negative value"), (3.0, "negative value"))

    def test_continuous_base_demands_linear_mode(self, p1):
        spec = SampleSpaceSpec(psi=PsiSpec("constant", (1.0,)), base="continuous", dim=1)
        assert not check_membership(p1, spec).ok

    def test_dim_mismatch_raises(self, p1):
        spec = SampleSpaceSpec(psi=PsiSpec("constant", (1.0,)), dim=2)
        with pytest.raises(ContractError):
            check_membership(p1, spec)


class TestPsiSpec:
    def test_families_evaluate(self):
        assert PsiSpec("constant", (0.3,))(5.0) == 0.3
        assert PsiSpec("affine", (0.1, 2.0))(1.0) == pytest.approx(2.1)
        assert PsiSpec("power", (2.0, 0.5))(4.0) == pytest.approx(4.0)
        tab = PsiSpec("table", (0.0, 0.0, 1.0, 1.0, 2.0, 1.5))
        assert tab(0.5) == pytest.approx(0.5)
        assert tab(10.0) == pytest.approx(1.5)

    def test_value_beyond_float64_is_contract_error(self):
        # a finite x must not give an infinite bound (or a NumPy overflow warning)
        for psi in (PsiSpec("power", (1.0, 1000.0)), PsiSpec("affine", (1.0, 1e300))):
            for x in (1e10, np.array([0.5, 1e10])):
                with pytest.raises(ContractError, match="beyond float64"):
                    psi(x)
        assert PsiSpec("power", (1.0, 1000.0))(0.5) == 0.5 ** 1000.0
        assert PsiSpec("power", (0.0, 1000.0))(4.0) == 0.0
        assert PsiSpec("power", (1.0, 2.0))(np.inf) == np.inf
        # the lerp weight of the last cell overflows, but x lies beyond the table
        assert PsiSpec("table", (0.0, 0.0, 1e-300, 1.0))(1e10) == 1.0

    def test_monotonicity_validated(self):
        with pytest.raises(ContractError):
            PsiSpec("table", (0.0, 1.0, 1.0, 0.5))
        with pytest.raises(ContractError):
            PsiSpec("affine", (-0.1, 1.0))

    @pytest.mark.parametrize("obj, key", [({"family": "constant"}, "'params'"),
                                          ({"params": [0.5]}, "'family'")])
    def test_from_json_missing_key_is_contract_error(self, obj, key):
        with pytest.raises(ContractError, match=key):
            PsiSpec.from_json(obj)


class TestConstruction:
    def test_times_must_start_at_zero(self):
        with pytest.raises(ContractError):
            Path(times=[0.5, 1.0], values=[0.0, 1.0])

    def test_times_strictly_increasing(self):
        with pytest.raises(ContractError):
            Path(times=[0.0, 1.0, 1.0], values=[0.0, 1.0, 2.0])

    def test_no_nan(self):
        with pytest.raises(ContractError):
            Path(times=[0.0, 1.0], values=[0.0, np.nan])

    def test_values_need_a_column(self):
        with pytest.raises(ContractError, match="at least one column"):
            Path(times=[0.0, 1.0], values=np.zeros((2, 0)))

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_horizon_must_be_finite(self, horizon):
        # an infinite horizon was written to the sidecar as Infinity, which no reader takes
        with pytest.raises(ContractError, match="horizon"):
            Path(times=[0.0, 1.0], values=[0.0, 1.0], horizon=horizon)

    def test_a_rejected_table_leaves_the_callers_array_writable(self):
        values = np.array([0.0, 2.0])
        with pytest.raises(ContractError, match="horizon"):
            Path(np.array([0.0, 1.0]), values, horizon=0.5)
        values[1] = 5.0

    def test_immutable(self, p1):
        with pytest.raises(ValueError):
            p1.values[0, 0] = 5.0

    @pytest.mark.parametrize("values", [np.array([0.0, 2.0]), np.array([[0.0], [2.0]])])
    def test_the_callers_array_is_frozen_with_the_path(self, values):
        p = Path(np.array([0.0, 1.0]), values)
        with pytest.raises(ValueError):
            values[1] = 5.0
        assert p.values[1, 0] == 2.0

    def test_a_copied_input_stays_writable(self):
        values = np.array([[0.0, 9.0], [2.0, 9.0]])[:, 0]  # strided: the path takes a copy
        p = Path(np.array([0.0, 1.0]), values)
        values[1] = 5.0
        assert p.values[1, 0] == 2.0


@given(case=ladder_paths(), data=st.data())
def test_paths_and_partitions_compare_by_value(case, data):
    path, n = case
    twin = Path(path.times.copy(), path.values.copy(), mode=path.mode, horizon=path.horizon)
    assert path == twin and not path != twin
    values = path.values.copy()
    i = data.draw(st.integers(0, values.size - 1))
    values.flat[i] = np.nextafter(values.flat[i], 0.0) if values.flat[i] else 1.0
    assert path != Path(path.times, values, mode=path.mode, horizon=path.horizon)
    other_mode = "linear" if path.mode == "step" else "step"
    assert path != Path(path.times, path.values, mode=other_mode, horizon=path.horizon)
    part = lebesgue_partition_nd(path, n)
    assert part == lebesgue_partition_nd(twin, n)
    assert part != LebesguePartition(n + 1, part.times, part.level_indices, part.event_indices)
    with pytest.raises(TypeError):
        hash(path)


class TestRoundTrip:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        for k in range(10):
            p = random_step_path(rng, n_events=7, dim=3)
            f = tmp_path / f"p{k}.csv"
            write_path_csv(p, f)
            q = read_path_csv(f)
            assert np.array_equal(p.times, q.times)
            assert np.array_equal(p.values, q.values)
            assert q.mode == p.mode and q.horizon == p.horizon

    def test_awkward_floats_round_trip(self, tmp_path):
        vals = [0.1, 1 / 3, np.nextafter(0.5, 1), 1e-300]
        p = Path(times=[0.0, 1.0, 2.0, 3.0], values=vals, horizon=3.0)
        f = tmp_path / "p.csv"
        write_path_csv(p, f)
        assert np.array_equal(read_path_csv(f).values, p.values)
