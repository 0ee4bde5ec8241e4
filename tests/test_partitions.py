import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcalc import ContractError, Path, partitions
from pathcalc.partitions import (
    SENTINEL,
    LebesguePartition,
    _coarsen,
    _components,
    chi,
    crossing_report,
    crossings,
    crossings_accumulated,
    lebesgue_partition_1d,
    lebesgue_partition_nd,
    partition_ladder,
    upcrossings_at_events,
)
from pathcalc.integration import constant_integrand, integrate_f2_dqv, ito_integral
from pathcalc.qv import qv_limit

from conftest import random_step_path


def brute_force_upcrossings(values, a, b):
    """Exhaustive supremum over ordered index pairs (definitionally exact)."""
    m = len(values)
    best = 0
    for r in range(1, m // 2 + 1):
        for combo in itertools.combinations(range(m), 2 * r):
            ok = all(values[combo[2 * i]] <= a and values[combo[2 * i + 1]] >= b
                     for i in range(r))
            if ok:
                best = max(best, r)
    return best


class TestPartition1d:
    def test_p1_generation_1(self, p1):
        part = lebesgue_partition_1d(p1, 1)
        np.testing.assert_array_equal(part.times, [0.0, 1.0, 3.0])
        np.testing.assert_allclose(part.levels, [0.0, 0.5, 1.0])

    def test_constant_path(self):
        p = Path(times=[0.0], values=[0.3], horizon=2.0)
        for n in (1, 5, 20):
            part = lebesgue_partition_1d(p, n)
            np.testing.assert_array_equal(part.times, [0.0])
            assert part.finite

    def test_linear_root_of_a_subnormal_step(self):
        # (tb - ta) / (vb - va) overflows; the root is still inside the segment
        p = Path(times=[0.0, 1.0], values=[-1e-320, 1e-320], mode="linear")
        np.testing.assert_array_equal(lebesgue_partition_1d(p, 1).times, [0.0, 0.5])

    def test_linear_unit_ramp(self):
        p = Path(times=[0.0, 1.0], values=[0.0, 1.0], mode="linear")
        part = lebesgue_partition_1d(p, 1)
        np.testing.assert_allclose(part.times, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(part.levels, [0.0, 0.5, 1.0])

    def test_linear_roots_are_exact(self):
        p = Path(times=[0.0, 2.0], values=[0.25, -0.75], mode="linear")
        part = lebesgue_partition_1d(p, 2)
        # downward ramp crosses 0.0, -0.25, -0.5, -0.75
        np.testing.assert_allclose(part.levels[1:], [0.0, -0.25, -0.5, -0.75])
        np.testing.assert_allclose(part.times[1:], [0.5, 1.0, 1.5, 2.0])

    def test_initial_level_is_floor(self):
        p = Path(times=[0.0], values=[0.7], horizon=1.0)
        assert lebesgue_partition_1d(p, 1).levels[0] == 0.5
        pneg = Path(times=[0.0], values=[-0.1], horizon=1.0)
        assert lebesgue_partition_1d(pneg, 1).levels[0] == -0.5

    def test_tracked_levels_differ_consecutively(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_step_path(rng, n_events=14)
            for n in (1, 2, 4):
                part = lebesgue_partition_1d(p, n)
                if len(part) > 2:
                    assert np.all(np.abs(np.diff(part.level_indices[1:])) >= 1)

    def test_times_strictly_increasing(self):
        rng = np.random.default_rng(1)
        for mode in ("step", "linear"):
            for _ in range(30):
                p = random_step_path(rng, n_events=10)
                if mode == "linear":
                    p = Path(p.times, p.values, mode="linear", horizon=p.horizon)
                for n in (1, 3, 6):
                    part = lebesgue_partition_1d(p, n)
                    assert np.all(np.diff(part.times) > 0)

    def test_tracked_level_within_one_spacing(self):
        # |S_tau_k - D_k| < 2**-n for every realized partition time
        rng = np.random.default_rng(2)
        for _ in range(40):
            p = random_step_path(rng, n_events=12)
            for n in (1, 3):
                part = lebesgue_partition_1d(p, n)
                svals = p.eval(part.times)[:, 0]
                assert np.all(np.abs(svals - part.levels) < 2.0 ** -n + 1e-15)

    def test_multidim_input_rejected(self):
        p = Path(times=[0.0, 1.0], values=[[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ContractError):
            lebesgue_partition_1d(p, 1)

    def test_generation_bounds(self, p1):
        with pytest.raises(ContractError):
            lebesgue_partition_1d(p1, 0)
        with pytest.raises(ContractError):
            lebesgue_partition_1d(p1, 53)

    @pytest.mark.parametrize("mode", ["step", "linear"])
    def test_level_index_beyond_int64_rejected(self, mode):
        # 1e6 * 2**52 is past 2**62: the level index would not be exact
        p = Path(times=[0.0, 1.0, 2.0], values=[1e6, 1e6 + 0.5, 1e6 - 0.25], mode=mode)
        with pytest.raises(ContractError, match="2\\*\\*62"):
            lebesgue_partition_1d(p, 52)
        assert lebesgue_partition_1d(p, 2).level_indices[0] == 4_000_000


class TestRefinementAndJumps:
    def test_nesting_on_random_step_paths(self):
        # pi_n subset pi_{n+1}; counterexamples would be logged, none expected
        rng = np.random.default_rng(3)
        broken = []
        for trial in range(60):
            p = random_step_path(rng, n_events=12)
            for n in (1, 2, 3, 4):
                coarse = set(lebesgue_partition_1d(p, n).times.tolist())
                fine = set(lebesgue_partition_1d(p, n + 1).times.tolist())
                if not coarse <= fine:
                    broken.append((trial, n, sorted(coarse - fine)))
        assert broken == [], f"nesting counterexamples: {broken[:3]}"

    def test_large_jumps_are_exhausted(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            p = random_step_path(rng, n_events=10, min_jump=0.05)
            for n in (2, 4, 6):
                part = lebesgue_partition_1d(p, n)
                times = set(part.times.tolist())
                jumps = np.abs(np.diff(p.values[:, 0]))
                for k, jmp in enumerate(jumps, start=1):
                    if jmp > 2.0 ** (1 - n):
                        assert p.times[k] in times


class TestPartitionNd:
    def test_dim1_degenerates(self, p1):
        times_nd = lebesgue_partition_nd(p1, 1).times
        np.testing.assert_array_equal(times_nd, lebesgue_partition_1d(p1, 1).times)

    def test_constant_second_coordinate(self, p1):
        values = np.column_stack([p1.values[:, 0], np.zeros(4)])
        p = Path(p1.times, values, mode="step")
        part = lebesgue_partition_nd(p, 1)
        # union of pi(P1), pi(const)={0}, pi(P1+0)=pi(P1)
        np.testing.assert_array_equal(part.times, lebesgue_partition_1d(p1, 1).times)
        assert part.level_indices is None

    def test_constant_nd(self):
        p = Path(times=[0.0], values=[[0.2, 0.4]], horizon=1.0)
        np.testing.assert_array_equal(lebesgue_partition_nd(p, 3).times, [0.0])


LADDER_CALLERS = {
    "partition_ladder": partition_ladder,
    "qv_limit": qv_limit,
    "ito_integral": lambda p, n: ito_integral(lambda q, t: q.eval(t), p, n),
    "integrate_f2_dqv": lambda p, n: integrate_f2_dqv(constant_integrand(1.0), p, n),
}


class TestLadder:
    @pytest.mark.parametrize("dim, mode", [(1, "step"), (2, "step"), (1, "linear")])
    def test_generations_and_grid(self, dim, mode):
        rng = np.random.default_rng(9)
        q = random_step_path(rng, n_events=15, dim=dim)
        p = Path(q.times, q.values, mode=mode, horizon=2.0)
        parts, grid, _ = partition_ladder(p, 5)
        assert [part.generation for part in parts] == [1, 2, 3, 4, 5]
        for n, part in enumerate(parts, start=1):
            np.testing.assert_array_equal(part.times, lebesgue_partition_nd(p, n).times)
        expected = np.unique(np.concatenate([p.times] + [part.times for part in parts]))
        np.testing.assert_array_equal(grid, expected)

    @pytest.mark.parametrize("n_max", [0, -1, 53])
    @pytest.mark.parametrize("caller", sorted(LADDER_CALLERS))
    def test_range(self, p1, n_max, caller):
        with pytest.raises(ContractError, match="n_max must be in 1..52"):
            LADDER_CALLERS[caller](p1, n_max)


@st.composite
def ladder_paths(draw):
    """``(path, n_max)``: step or linear, d = 1..3, values often on dyadic levels.

    Level values are multiples of ``2**-k`` for some ``k <= n_max``, so they
    sit on the levels of generation k and of every finer one.  Linear
    partitions hold one point per level crossed, so their values stay small.
    """
    mode = draw(st.sampled_from(["step", "linear"]))
    n_max = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 30))
    if draw(st.booleans()):
        k = draw(st.integers(max(0, n_max - 4) if mode == "linear" else 0, n_max))
        ints = draw(st.lists(st.integers(-64, 64), min_size=m * d, max_size=m * d))
        values = np.array(ints, dtype=np.float64) * 2.0 ** -k
    else:
        bound = min(2.0, 2.0 ** (8 - n_max)) if mode == "linear" else 512.0
        values = np.array(draw(st.lists(st.floats(-bound, bound), min_size=m * d,
                                        max_size=m * d)))
    gaps = draw(st.lists(st.floats(0.001, 1.0), min_size=m - 1, max_size=m - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return Path(times, values.reshape(m, d), mode=mode, horizon=times[-1] + 1.0), n_max


def _assert_same_partition(a, b):
    assert a.generation == b.generation
    assert a.times.tobytes() == b.times.tobytes()
    if b.level_indices is None:
        assert a.level_indices is None
    else:
        assert a.level_indices.tobytes() == b.level_indices.tobytes()


class TestNestingLemma:
    """Coarse generations derived from fine ones equal the direct builds, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ladder_paths())
    @example((Path([0.0, 1.0], [0.0, 0.75], mode="linear"), 3))
    @example((Path([0.0, 1.0, 2.0], [[0.5, -0.5], [-0.5, 0.5], [0.25, 0.25]]), 12))
    def test_ladder_equals_direct_builds(self, case):
        path, n_max = case
        parts, grid, _ = partition_ladder(path, n_max)
        direct = [lebesgue_partition_nd(path, n) for n in range(1, n_max + 1)]
        for part, ref in zip(parts, direct, strict=True):
            _assert_same_partition(part, ref)
        expected = np.unique(np.concatenate([path.times] + [ref.times for ref in direct]))
        assert grid.tobytes() == expected.tobytes()
        for comp in _components(path):
            fine = lebesgue_partition_1d(comp, n_max)
            while fine.generation > 1:
                coarse, _ = _coarsen(fine)
                _assert_same_partition(coarse, lebesgue_partition_1d(comp, fine.generation - 1))
                assert set(coarse.times.tolist()) <= set(fine.times.tolist())
                fine = coarse

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ladder_paths())
    @example((Path([0.0, 1.0, 2.0], [[0.5, -0.5], [-0.5, 0.5], [0.25, 0.25]]), 12))
    def test_ladder_positions(self, case):
        # positions carried down the ladder are the grid search of each
        # generation's times
        path, n_max = case
        parts, grid, positions = partition_ladder(path, n_max)
        for part, pos in zip(parts, positions, strict=True):
            assert pos.tobytes() == np.searchsorted(grid, part.times).tobytes()
            assert grid[pos].tobytes() == part.times.tobytes()

    @pytest.mark.parametrize("mode", ["step", "linear"])
    def test_level_indices_beyond_2_53(self, mode):
        # near 5 the generation-52 indices lie between 2**54 and 2**55, where
        # float64 holds only multiples of 4.  A linear partition also crosses
        # the levels 4k + 2 between the values, and halving those through
        # float64 would skip the coarse level 2k + 1.
        ulp = 2.0 ** -50
        p = Path([0.0, 1.0, 2.0, 3.0], [5.0, 5.0 + 8 * ulp, 5.0 + ulp, 5.0 + 5 * ulp],
                 mode=mode)
        fine = lebesgue_partition_1d(p, 52)
        assert fine.level_indices.min() > 2 ** 54
        assert np.any(fine.level_indices % 4 == 2) == (mode == "linear")
        parts, _, _ = partition_ladder(p, 52)
        for n in range(52, 0, -1):
            _assert_same_partition(fine, lebesgue_partition_1d(p, n))
            assert parts[n - 1].times.tobytes() == fine.times.tobytes()
            if n > 1:
                fine, _ = _coarsen(fine)


class TestLinearCap:
    def test_rejected_before_allocating(self, monkeypatch):
        p = Path(times=[0.0, 1.0], values=[0.0, 0.75], mode="linear")

        def no_fill(*args):
            raise AssertionError("the fill kernel ran")

        monkeypatch.setattr(partitions.K, "partition_linear_fill", no_fill)
        assert partitions.K.partition_linear_count(p.times, p.values[:, 0], 2.0 ** 40) \
            == 824_633_720_833
        with pytest.raises(ContractError, match="crosses 824633720833 levels"):
            lebesgue_partition_1d(p, 40)

    def test_count_beyond_int64_rejected(self):
        # sum |dj| at n = 52 is exactly 2**64, which used to wrap to a count
        # of 1; the fill kernel then crashed the interpreter
        p = Path([0.0, 1.0, 2.0, 3.0], [0.0, 1000.0, -1000.0, 96.0], mode="linear")
        with pytest.raises(ContractError, match="2\\*\\*63"):
            lebesgue_partition_1d(p, 52)

    def test_cap_is_inclusive(self, monkeypatch):
        p = Path(times=[0.0, 1.0], values=[0.0, 1.0], mode="linear")  # 1 + 2^n points
        monkeypatch.setattr(partitions, "MAX_LINEAR_POINTS", 9)
        assert len(lebesgue_partition_1d(p, 3)) == 9
        with pytest.raises(ContractError):
            lebesgue_partition_1d(p, 4)


class TestChi:
    def test_examples(self):
        part = LebesguePartition(1, np.array([0.0, 1.0, 3.0]))
        assert chi(part, 2.5) == 1.0
        assert chi(part, 3.0) == 3.0
        assert chi(part, 0.0) == 0.0

    def test_sentinel_is_beyond_any_horizon(self):
        assert SENTINEL > 1e300


class TestCrossings:
    def test_oscillator(self, p2):
        assert crossings(p2, 0.0, 1.0, 4.0) == (2, 2)

    def test_p1_interval(self, p1):
        assert crossings(p1, 0.0, 0.5, 3.0) == (1, 0)

    def test_constant(self):
        p = Path(times=[0.0], values=[0.0], horizon=1.0)
        assert crossings(p, -0.5, 0.5) == (0, 0)

    def test_contract(self, p1):
        with pytest.raises(ContractError):
            crossings(p1, 0.5, 0.5)

    def test_greedy_equals_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = rng.integers(2, 9)
            vals = rng.uniform(-1, 1, m)
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, m - 1))])
            p = Path(times=times, values=vals, horizon=1.0)
            a, b = sorted(rng.uniform(-1, 1, 2))
            if a == b:
                continue
            up, down = crossings(p, a, b)
            assert up == brute_force_upcrossings(vals, a, b)
            assert down == brute_force_upcrossings([-v for v in vals], -b, -a)

    def test_up_down_differ_by_at_most_one(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = rng.integers(2, 20)
            vals = rng.uniform(-2, 2, m)
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, m - 1))])
            p = Path(times=times, values=vals, horizon=1.0)
            a, b = sorted(rng.uniform(-2, 2, 2))
            if a == b:
                continue
            up, down = crossings(p, a, b)
            assert abs(up - down) <= 1


class TestCrossingsAccumulated:
    def test_oscillator_h1(self, p2):
        assert crossings_accumulated(p2, 1.0, 4.0) == (2, 2)

    def test_p1_h_half(self, p1):
        assert crossings_accumulated(p1, 0.5, 3.0) == (2, 0)

    def test_monotone_ramp(self):
        p = Path(times=[0.0, 1.0], values=[-0.25, 1.25], mode="linear")
        up, down = crossings_accumulated(p, 1.0)
        assert (up, down) == (1, 0)

    def test_h_positive(self, p1):
        with pytest.raises(ContractError):
            crossings_accumulated(p1, 0.0)

    def test_level_index_beyond_int64_rejected(self):
        p = Path(times=[0.0, 1.0, 2.0], values=[0.0, 10.0, 0.0], mode="step")
        with pytest.raises(ContractError, match="2\\*\\*62"):
            crossings_accumulated(p, 1e-18)
        assert crossings_accumulated(p, 1e-3) == (10000, 10000)

    def test_count_beyond_int64_rejected(self):
        # every scaled value is below 2**62, but the upcrossings of the grid
        # of spacing 2**-52 add up to 2**63
        p = Path(np.arange(8.0), [0.0, 2.0, 0.0, 512.0, 0.0, 512.0, -510.0, 512.0])
        with pytest.raises(ContractError, match="2\\*\\*63"):
            crossings_accumulated(p, 2.0 ** -52)
        with pytest.raises(ContractError, match="2\\*\\*63"):
            upcrossings_at_events(p, 2.0 ** -52)
        assert crossings_accumulated(p, 2.0 ** -52, 5.0) == (1026 * 2 ** 52, 514 * 2 ** 52)

    def test_fast_counter_matches_per_interval_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            m = rng.integers(2, 25)
            vals = rng.uniform(-3, 3, m)
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, m - 1))])
            p = Path(times=times, values=vals, horizon=1.0)
            h = float(rng.choice([0.25, 0.5, 1.0]))
            rep = crossing_report(p, h)
            assert (rep["U"], rep["D"]) == crossings_accumulated(p, h)

    @pytest.mark.parametrize("mode", ["step", "linear"])
    def test_upcrossings_at_events(self, mode):
        rng = np.random.default_rng(11)
        for _ in range(40):
            q = random_step_path(rng, n_events=int(rng.integers(2, 30)))
            p = Path(q.times, q.values, mode=mode, horizon=q.horizon)
            for h in (0.125, 0.25, 0.3, 1.0):
                ups = upcrossings_at_events(p, h)
                assert ups.tolist() == [crossings_accumulated(p, h, float(t))[0]
                                        for t in p.times]
        on_levels = Path([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.5, 0.0, 0.5, 0.25])
        assert upcrossings_at_events(on_levels, 0.25).tolist() == [0, 2, 2, 4, 4]
        assert upcrossings_at_events(Path([0.0], [0.3], horizon=1.0), 0.25).tolist() == [0]

    def test_upcrossings_at_events_contract(self):
        p = Path([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ContractError):
            upcrossings_at_events(p, 0.5)
        with pytest.raises(ContractError):
            upcrossings_at_events(p.coordinate(1), 0.0)

    def test_report_interval_cap(self, p2, monkeypatch):
        # values 0..1 at h = 1/8 span klo = -1 .. khi = 9: 11 intervals
        monkeypatch.setattr(partitions, "MAX_CROSSING_INTERVALS", 11)
        assert crossing_report(p2, 0.125)["U"] == 16
        monkeypatch.setattr(partitions, "MAX_CROSSING_INTERVALS", 10)
        with pytest.raises(ContractError, match="11 intervals"):
            crossing_report(p2, 0.125)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("h", [1e-7, 1e-320])
    def test_report_rejects_fine_spacing(self, p2, h):
        with pytest.raises(ContractError, match="intervals"):
            crossing_report(p2, h)

    def test_report_fields(self, p2):
        rep = crossing_report(p2, 1.0, 4.0)
        assert rep["U"] == 2 and rep["D"] == 2
        contributing = [(e["a"], e["b"]) for e in rep["per_interval"]]
        assert contributing == [(0.0, 1.0)]

    def test_dyadic_budget_diagnostic(self, p2):
        rep = crossing_report(p2, 0.25)
        # h = 2^-2: budget n^2 2^{2n} = 4 * 16 = 64, reported but not asserted
        assert rep["generation"] == 2 and rep["crossing_budget"] == 64.0
        assert rep["budget_ratio"] == rep["U"] / 64.0
        assert "crossing_budget" not in crossing_report(p2, 0.3)
