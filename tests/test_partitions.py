import itertools

import numpy as np
import pytest

from pathcalc import ContractError, Path
from pathcalc.partitions import (
    SENTINEL,
    LebesguePartition,
    chi,
    crossing_report,
    crossings,
    crossings_accumulated,
    lebesgue_partition_1d,
    lebesgue_partition_nd,
)

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
