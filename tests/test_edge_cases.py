"""Sharp-edge regression tests: exact dyadic values, higher dimensions,
linear-mode counters, negative and large scales."""

import numpy as np
import pytest

from pathcalc import Path, PsiSpec
from pathcalc.partitions import (
    crossing_report,
    crossings_accumulated,
    lebesgue_partition_1d,
    lebesgue_partition_nd,
)
from pathcalc.qv import discrete_cross_qv, qv_limit, write_qv_report
from pathcalc.strategies import capital, doob_interval_strategy, l_strategy
from pathcalc.simulate import SimSpec, simulate

from conftest import random_step_path


class TestExactDyadicValues:
    def test_path_living_on_levels(self):
        # every value is a generation-2 level; construction must not stutter
        p = Path(times=[0, 1, 2, 3, 4], values=[0.0, 0.25, 0.5, 0.25, 1.0],
                 mode="step")
        part = lebesgue_partition_1d(p, 2)
        assert np.all(np.diff(part.times) > 0)
        np.testing.assert_allclose(part.levels,
                                   p.eval(part.times)[:, 0], atol=0)

    def test_step_onto_tracked_level_never_retriggers(self):
        # crossing 0.5 triggers at t=1 (tracked becomes 0.5); landing exactly
        # on the tracked level at t=2 must NOT fire a new partition time
        p = Path(times=[0, 1, 2], values=[0.45, 0.95, 0.5], mode="step")
        part = lebesgue_partition_1d(p, 1)
        np.testing.assert_array_equal(part.times, [0.0, 1.0])
        np.testing.assert_allclose(part.levels, [0.0, 0.5])

    def test_linear_path_through_levels_lands_exactly(self):
        p = Path(times=[0.0, 1.0], values=[-1.0, 1.0], mode="linear")
        part = lebesgue_partition_1d(p, 3)
        svals = p.eval(part.times)[:, 0]
        np.testing.assert_array_equal(svals, part.levels)

    def test_negative_and_large_values(self):
        p = Path(times=[0, 1, 2, 3], values=[-100.25, 250.5, -30.125, 7.0],
                 mode="step")
        for n in (1, 4, 10):
            part = lebesgue_partition_1d(p, n)
            assert np.all(np.diff(part.times) > 0)
            svals = p.eval(part.times)[:, 0]
            assert np.all(np.abs(svals - part.levels) < 2.0 ** -n)


class TestHigherDimensions:
    def test_three_dim_cross_qv_pure_jump(self):
        rng = np.random.default_rng(91)
        p = random_step_path(rng, n_events=8, dim=3, min_jump=0.05)
        report = qv_limit(p, n_max=12, tol=1e-12)
        dv = np.diff(p.values, axis=0)
        np.testing.assert_allclose(report.terminal, dv.T @ dv, atol=1e-12)

    def test_nd_partition_counts_pairs(self):
        rng = np.random.default_rng(92)
        p = random_step_path(rng, n_events=6, dim=3, min_jump=0.1)
        part = lebesgue_partition_nd(p, 2)
        pieces = [lebesgue_partition_1d(p.coordinate(i), 2).times for i in (1, 2, 3)]
        pieces += [lebesgue_partition_1d(p.coordinate_sum(i, j), 2).times
                   for i, j in ((1, 2), (1, 3), (2, 3))]
        np.testing.assert_array_equal(part.times,
                                      np.unique(np.concatenate(pieces)))

    def test_cross_qv_partial_time(self):
        rng = np.random.default_rng(93)
        p = random_step_path(rng, n_events=9, dim=2, min_jump=0.05)
        t = float(p.times[4]) + 1e-3
        q12 = discrete_cross_qv(p, 3, 1, 2, t)
        q21 = discrete_cross_qv(p, 3, 2, 1, t)
        assert q12 == q21  # symmetry is exact, not approximate

    def test_qv_csv_export_2d(self, tmp_path):
        rng = np.random.default_rng(94)
        p = random_step_path(rng, n_events=6, dim=2, min_jump=0.1)
        report = qv_limit(p, n_max=8, tol=1e-9)
        write_qv_report(report, tmp_path / "r.json", tmp_path / "r.csv")
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header == "t,qv_11,qv_12,qv_21,qv_22"


class TestLinearModeCounters:
    def test_accumulated_crossings_on_linear_path(self):
        # triangle wave passing through all intermediate values
        p = Path(times=[0, 1, 2, 3, 4], values=[0.0, 1.0, 0.0, 1.0, 0.0],
                 mode="linear")
        up, down = crossings_accumulated(p, 0.5)
        rep = crossing_report(p, 0.5)
        assert (up, down) == (rep["U"], rep["D"])
        # intervals (0,0.5) and (0.5,1) are each upcrossed twice
        assert up == 4 and down == 4

    def test_mid_segment_cap_time(self):
        p = Path(times=[0.0, 2.0], values=[0.0, 2.0], mode="linear")
        up_half, _ = crossings_accumulated(p, 1.0, t=1.0)   # reaches exactly 1.0
        up_full, _ = crossings_accumulated(p, 1.0, t=2.0)
        assert (up_half, up_full) == (1, 2)


class TestStrategiesEdges:
    def test_doob_interval_on_linear_path_round_trips(self):
        p = Path(times=[0, 1, 2, 3, 4], values=[0.6, -0.1, 0.8, -0.2, 0.9],
                 mode="linear")
        realized = doob_interval_strategy(0.0, 0.5, 5.0).realize(p)
        # two full round trips: buy at the exact 0.0 roots, sell at the 0.5 roots
        assert capital(realized, p, 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_l_strategy_on_linear_path(self):
        p = simulate(SimSpec(kind="brownian", steps=64, seed=9))
        _, report = l_strategy(p, 3, 2, PsiSpec("constant", (0.0,)), tolerance=1e-9)
        assert report.max_deviation <= 1e-9

    def test_l_strategy_gamma_at_start(self):
        # |S_0| >= K stops everything at time zero
        p = Path(times=[0, 1], values=[5.0, 7.0], mode="step")
        realized, report = l_strategy(p, 2, 1, PsiSpec("constant", (0.0,)))
        assert capital(realized, p, 1.0) == 0.0
        assert report.gamma == 0.0
