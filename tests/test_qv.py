import numpy as np
import pytest

from pathcalc import Path, PsiSpec
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
from conftest import random_step_path

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

    def test_2d_polarized_jumps(self):
        rng = np.random.default_rng(26)
        p = random_step_path(rng, n_events=9, dim=2, min_jump=0.05)
        report = qv_limit(p, n_max=12, tol=1e-12)
        res = jump_identity_check(p, report)
        assert res.ok, res.max_discrepancy
