import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcalc import ContractError, Path, PsiSpec
from pathcalc.partitions import SENTINEL, lebesgue_partition_1d, lebesgue_partition_nd
from pathcalc.qv import (
    QVReport,
    discrete_cross_qv,
    discrete_qv,
    jump_identity_check,
    k_constant,
    k_process,
    qv_limit,
    sigma_n_K,
    z_process,
)

import reference_loops as R
from conftest import ladder_paths, random_step_path

PSI0 = PsiSpec("constant", (0.0,))


class TestDiscreteQV:
    def test_p1_full(self, p1):
        part = lebesgue_partition_1d(p1, 1)
        assert discrete_qv(p1, part, 3.0) == pytest.approx(0.85, abs=1e-14)

    def test_p1_partial(self, p1):
        part = lebesgue_partition_1d(p1, 1)
        assert discrete_qv(p1, part, 2.0) == pytest.approx(0.40, abs=1e-14)

    def test_constant_path(self):
        p = Path(times=[0.0], values=[0.5], horizon=1.0)
        part = lebesgue_partition_1d(p, 3)
        for t in (0.0, 0.5, 1.0):
            assert discrete_qv(p, part, t) == 0.0


class TestCrossQV:
    def test_diagonal_matches_1d_along_nd_times(self, p1):
        vals = np.column_stack([p1.values[:, 0], -p1.values[:, 0]])
        p = Path(p1.times, vals, mode="step")
        part = lebesgue_partition_nd(p, 1)
        got = discrete_cross_qv(p, 1, 1, 1, 3.0, partition=part)
        clamped = np.append(np.minimum(part.times, 3.0), 3.0)
        expect = np.sum(np.diff(p.eval(clamped)[:, 0]) ** 2)
        assert got == pytest.approx(expect, abs=1e-14)

    def test_identical_coordinates(self, p1):
        vals = np.column_stack([p1.values[:, 0], p1.values[:, 0]])
        p = Path(p1.times, vals, mode="step")
        q12 = discrete_cross_qv(p, 1, 1, 2, 3.0)
        q11 = discrete_cross_qv(p, 1, 1, 1, 3.0)
        assert q12 == pytest.approx(q11, abs=1e-14)

    def test_sign_flip(self, p1):
        vals = np.column_stack([p1.values[:, 0], -p1.values[:, 0]])
        p = Path(p1.times, vals, mode="step")
        q12 = discrete_cross_qv(p, 1, 1, 2, 3.0)
        q11 = discrete_cross_qv(p, 1, 1, 1, 3.0)
        assert q12 == pytest.approx(-q11, abs=1e-14)

    @settings(max_examples=100)
    @given(ladder_paths())
    def test_at_the_horizon_is_the_qv_limit_terminal(self, case):
        path, n_max = case
        report = qv_limit(path, n_max)
        for a in range(1, path.dim + 1):
            for b in range(1, path.dim + 1):
                got = discrete_cross_qv(path, n_max, a, b, path.horizon, report.partition)
                assert got == report.terminal[a - 1, b - 1]

    def test_rejects_a_partition_past_the_horizon(self, p1):
        part = lebesgue_partition_nd(Path(p1.times * 2.0, p1.values), 3)
        with pytest.raises(ContractError, match="does not belong"):
            discrete_cross_qv(p1, 3, 1, 1, 1.0, partition=part)

    @pytest.mark.parametrize("t", [-0.5, float("nan"), 3.5])
    def test_rejects_a_time_outside_the_horizon(self, p1, t):
        with pytest.raises(ContractError, match="outside"):
            discrete_cross_qv(p1, 3, 1, 1, t)

    def test_polarization_exactness(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            p = random_step_path(rng, n_events=10, dim=2)
            part = lebesgue_partition_nd(p, 2)
            for t in (0.3, 0.7, float(p.horizon)):
                q12 = discrete_cross_qv(p, 2, 1, 2, t, partition=part)
                clamped = np.append(np.minimum(part.times, t), t)
                vals = p.eval(clamped)
                qsum = np.sum(np.diff(vals[:, 0] + vals[:, 1]) ** 2)
                q1 = np.sum(np.diff(vals[:, 0]) ** 2)
                q2 = np.sum(np.diff(vals[:, 1]) ** 2)
                assert 2 * q12 == pytest.approx(qsum - q1 - q2, abs=1e-12)


class TestTelescoping:
    def test_ito_identity_any_partition(self):
        # sum 2 S dS + sum (dS)^2 telescopes to S_T^2 - S_0^2 for any times
        rng = np.random.default_rng(22)
        for _ in range(30):
            p = random_step_path(rng, n_events=15)
            n = int(rng.integers(1, 6))
            part = lebesgue_partition_1d(p, n)
            T = float(p.horizon)
            clamped = np.append(np.minimum(part.times, T), T)
            s = p.eval(clamped)[:, 0]
            ds = np.diff(s)
            lhs = np.sum(2 * s[:-1] * ds) + np.sum(ds ** 2)
            rhs = s[-1] ** 2 - s[0] ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestQVLimit:
    def test_pure_jump_oracle_p1(self, p1):
        report = qv_limit(p1, n_max=10, tol=1e-12)
        assert report.terminal[0, 0] == pytest.approx(1.21, abs=1e-12)
        assert report.cauchy_tol_met

    def test_constant_converges_at_2(self):
        p = Path(times=[0.0], values=[0.0], horizon=1.0)
        report = qv_limit(p, n_max=4, tol=1e-10)
        assert report.terminal[0, 0] == 0.0
        assert report.cauchy_tol_met and report.converged_at == 2

    def test_pure_jump_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_step_path(rng, n_events=12, min_jump=0.05)
            report = qv_limit(p, n_max=12, tol=1e-12)
            oracle = np.sum(np.diff(p.values[:, 0]) ** 2)
            assert report.terminal[0, 0] == pytest.approx(oracle, abs=1e-12)
            assert report.cauchy_tol_met

    def test_cross_terms_pure_jump(self):
        rng = np.random.default_rng(24)
        for _ in range(6):
            p = random_step_path(rng, n_events=8, dim=2, min_jump=0.05)
            report = qv_limit(p, n_max=12, tol=1e-12)
            dv = np.diff(p.values, axis=0)
            oracle = dv.T @ dv
            np.testing.assert_allclose(report.terminal, oracle, atol=1e-12)

    def test_diagonal_monotone_at_partition_times(self):
        rng = np.random.default_rng(25)
        for _ in range(8):
            p = random_step_path(rng, n_events=12, dim=2)
            report = qv_limit(p, n_max=6, tol=1e-9)
            for n, (times, qp) in report.qv_paths.items():
                for a in range(p.dim):
                    assert np.all(np.diff(qp[:, a, a]) >= -1e-15)

    def test_limit_is_the_last_generation(self):
        rng = np.random.default_rng(28)
        for dim in (1, 2):
            p = random_step_path(rng, n_events=20, dim=dim)
            for keep in (True, False):
                report = qv_limit(p, n_max=7, tol=1e-9, keep_generations=keep)
                times, values = report.qv_paths[7]
                assert sorted(report.qv_paths) == (list(range(1, 8)) if keep else [7])
                np.testing.assert_array_equal(report.limit_times, times)
                np.testing.assert_array_equal(report.limit_times,
                                              lebesgue_partition_nd(p, 7).times)
                np.testing.assert_array_equal(report.limit_values, values)

    def test_z_sup_vanishes_once_jumps_isolated(self, p1):
        report = qv_limit(p1, n_max=8, tol=1e-13)
        # generations 5..8 all isolate the three jumps, so Z = 0 exactly
        assert report.z_sup[-1] == 0.0

    @settings(max_examples=100)
    @given(ladder_paths(), st.booleans())
    @example((Path([0.0, 1.0, 2.0], [[0.5, -0.5], [-0.5, 0.5], [0.25, 0.25]]), 12), False)
    @example((Path([0.0], [[0.3, 0.1, -0.2]], horizon=1.0), 2), True)
    def test_matches_the_reference_loops(self, case, keep):
        path, n_max = case
        got = qv_limit(path, n_max, keep_generations=keep)
        ref = R.qv_limit_py(path, n_max, keep_generations=keep)
        for name in ("z_sup", "qv_terminal", "limit_times", "limit_values", "terminal"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        assert (got.converged_at, got.cauchy_tol_met) == (ref.converged_at, ref.cauchy_tol_met)
        assert sorted(got.qv_paths) == sorted(ref.qv_paths)
        for n, (times, qp) in ref.qv_paths.items():
            assert got.qv_paths[n][0].tobytes() == times.tobytes()
            assert got.qv_paths[n][1].tobytes() == qp.tobytes()
        assert got.partition.times.tobytes() == ref.partition.times.tobytes()
        for name in ("level_indices", "event_indices"):
            if getattr(ref.partition, name) is None:
                assert getattr(got.partition, name) is None
            else:
                assert getattr(got.partition, name).tobytes() == getattr(ref.partition,
                                                                          name).tobytes()


class TestZProcess:
    def test_constant_zero(self):
        p = Path(times=[0.0], values=[0.1], horizon=1.0)
        assert z_process(p, 3, 0.7) == 0.0

    def test_equal_partitions_give_zero(self, p1):
        # at n = 8 both pi_7 and pi_8 isolate all jumps of P1
        assert z_process(p1, 8, 3.0) == 0.0

    def test_z_at_zero_is_zero(self, p1):
        for n in (1, 2, 5):
            assert z_process(p1, n, 0.0) == 0.0

    def test_z1_is_q1(self, p1):
        part = lebesgue_partition_1d(p1, 1)
        assert z_process(p1, 1, 3.0) == pytest.approx(discrete_qv(p1, part, 3.0), abs=1e-14)

    @settings(max_examples=60)
    @given(ladder_paths(), st.integers(0, 29))
    @example((Path([0.0, 1.0, 2.0], [0.5, -0.25, 0.75], mode="linear"), 1), 1)
    def test_matches_the_reference_loops(self, case, j):
        # t at 0, at the horizon, at an event and between two events
        path, n_max = case
        p = path.coordinate(1)
        j %= p.n_events
        after = p.times[j + 1] if j + 1 < p.n_events else p.horizon
        for n in sorted({1, n_max}):
            for t in (0.0, p.horizon, p.times[j], 0.5 * (p.times[j] + after)):
                assert z_process(p, n, t) == R.z_process_py(p, n, t)
                assert k_process(p, n, 2, PSI0, t) == R.k_process_py(p, n, 2, PSI0, t)
            grid, _, z, pn, _ = R.z_data_py(p, n)
            assert sigma_n_K(p, n, 1) == R.sigma_py(z[np.searchsorted(grid, pn.times)],
                                                    pn.times, n, 1)

    @pytest.mark.parametrize("mode", ["step", "linear"])
    @pytest.mark.parametrize("t", [-0.5, 3.5])
    def test_time_outside_the_horizon(self, mode, t):
        p = Path([0.0, 1.0, 2.0], [0.0, 0.6, 0.4], mode=mode, horizon=3.0)
        with pytest.raises(ContractError):
            z_process(p, 2, t)
        with pytest.raises(ContractError):
            k_process(p, 2, 1, PSI0, t)


class TestKProcess:
    def test_constant_path_value(self):
        p = Path(times=[0.0], values=[0.0], horizon=1.0)
        got = k_process(p, 1, 1, PSI0, 0.5)
        assert got == pytest.approx(16.25, abs=1e-14)
        assert k_constant(1, 1, PSI0) == pytest.approx(16.25, abs=1e-14)

    def test_reduces_to_constant_when_z_vanishes(self, p1):
        got = k_process(p1, 8, 2, PSI0, 3.0)
        assert got == pytest.approx(k_constant(8, 2, PSI0), abs=1e-14)

    def test_psi_enters_constant(self):
        psi = PsiSpec("constant", (1.0,))
        assert k_constant(1, 1, psi) == pytest.approx(0.25 + 16.0 * 4.0, abs=1e-14)


class TestSigma:
    def test_constant_never(self):
        p = Path(times=[0.0], values=[0.0], horizon=1.0)
        assert sigma_n_K(p, 2, 1) == SENTINEL

    def test_small_path_large_K(self, p1):
        assert sigma_n_K(p1, 8, 1000) == SENTINEL

    def test_engineered_huge_z_jump(self):
        # one giant jump makes Z^1 blow past both budgets at tau_1
        p = Path(times=[0.0, 0.5], values=[0.0, 50.0], horizon=1.0)
        part = lebesgue_partition_1d(p, 1)
        assert part.times[1] == 0.5
        assert sigma_n_K(p, 1, 1) == 0.5


class TestJumpIdentity:
    def test_p1_exact(self, p1):
        report = qv_limit(p1, n_max=10, tol=1e-12)
        res = jump_identity_check(p1, report)
        assert res.ok and res.max_discrepancy == 0.0

    def test_linear_trivial(self):
        p = Path(times=[0.0, 1.0], values=[0.0, 1.0], mode="linear")
        report = qv_limit(p, n_max=3, tol=1e-9)
        assert jump_identity_check(p, report).ok

    def test_bit_identical_to_event_loop(self):
        rng = np.random.default_rng(27)
        for dim in (1, 2, 3):
            for n_max in (1, 3, 6, 12):
                p = random_step_path(rng, n_events=30, dim=dim, min_jump=0.01)
                report = qv_limit(p, n_max=n_max, tol=1e-12, keep_generations=False)
                got = jump_identity_check(p, report).max_discrepancy
                assert got == R.jump_identity_worst_py(p, report)
        single = Path(times=[0.0], values=[[0.3, 0.1]], horizon=1.0)
        assert jump_identity_check(single, qv_limit(single, n_max=2)).max_discrepancy == 0.0

    def test_report_of_another_path_is_rejected(self, p1):
        other = Path([0.0, 1.5, 2.5, 3.5], p1.values)
        with pytest.raises(ContractError, match="event times"):
            jump_identity_check(p1, qv_limit(other, n_max=3))

    def test_2d_polarized_jumps(self):
        rng = np.random.default_rng(26)
        p = random_step_path(rng, n_events=9, dim=2, min_jump=0.05)
        report = qv_limit(p, n_max=12, tol=1e-12)
        res = jump_identity_check(p, report)
        assert res.ok, res.max_discrepancy
