import math

import numpy as np
import pytest

from pathcalc import ContractError, Path, PsiSpec
from pathcalc.partitions import SENTINEL, crossings, crossings_accumulated
from pathcalc.qv import sigma_n_K
from pathcalc.simulate import SimSpec, ensemble, simulate
from pathcalc.strategies import (
    RealizedStrategy,
    bdg_check,
    bdg_check_batch,
    bdg_weights,
    capital,
    capital_curve,
    check_strong_admissibility,
    check_weak_admissibility,
    doob_aggregate,
    doob_aggregate_bound_factor,
    doob_interval_strategy,
    gamma_K,
    hoeffding_beta,
    hoeffding_check,
    hoeffding_strategy,
    l_strategy,
    lift_budget,
    rho_lambda,
    admissibility_lift,
)

from conftest import random_step_path

PSI0 = PsiSpec("constant", (0.0,))
PSI1 = PsiSpec("constant", (1.0,))


def buy_and_hold(d=1, units=1.0):
    return RealizedStrategy(times=[0.0, np.inf], positions=np.full((1, d), units))


class TestCapital:
    def test_buy_and_hold_telescopes(self, p1):
        assert capital(buy_and_hold(), p1, 3.0) == pytest.approx(1.3, abs=1e-15)

    def test_zero_strategy(self, p1):
        zero = RealizedStrategy(times=[0.0], positions=np.zeros((0, 1)))
        assert capital(zero, p1, 3.0) == 0.0

    def test_window_position(self, p1):
        two_on_13 = RealizedStrategy(times=[0.0, 1.0, 3.0], positions=[0.0, 2.0])
        assert capital(two_on_13, p1, 3.0) == pytest.approx(1.4, abs=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = random_step_path(rng, n_events=10)
            ha = RealizedStrategy(times=[0.0, 0.4, np.inf], positions=rng.normal(size=2))
            hb = RealizedStrategy(times=[0.0, 0.7, np.inf], positions=rng.normal(size=2))
            a, b = rng.normal(size=2)
            merged_times = np.array([0.0, 0.4, 0.7, np.inf])
            combo_pos = (a * np.array([ha.positions[0, 0], ha.positions[1, 0], ha.positions[1, 0]])
                         + b * np.array([hb.positions[0, 0], hb.positions[0, 0], hb.positions[1, 0]]))
            combo = RealizedStrategy(times=merged_times, positions=combo_pos)
            t = float(p.horizon)
            lhs = capital(combo, p, t)
            rhs = a * capital(ha, p, t) + b * capital(hb, p, t)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dim_mismatch(self, p1):
        with pytest.raises(ContractError):
            capital(buy_and_hold(d=2), p1, 1.0)


class TestStoppingTimes:
    def test_gamma_examples(self, p1):
        assert gamma_K(p1, 1.0) == 3.0
        assert gamma_K(p1, 2.0) == SENTINEL
        assert gamma_K(p1, 1e-12) == 1.0  # S_0 = 0 sits below even a tiny K
        p = Path(times=[0.0], values=[1.0], horizon=1.0)
        assert gamma_K(p, 0.5) == 0.0

    def test_gamma_linear_exact_root(self):
        p = Path(times=[0.0, 2.0], values=[0.0, 2.0], mode="linear")
        assert gamma_K(p, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_rho_short_seller(self, p1):
        short = RealizedStrategy(times=[0.0, np.inf], positions=[-1.0])
        assert rho_lambda(short, p1, 0.5) == 1.0  # capital -0.6 at t=1

    def test_rho_never(self, p1):
        zero = RealizedStrategy(times=[0.0], positions=np.zeros((0, 1)))
        assert rho_lambda(zero, p1, 0.5) == SENTINEL
        assert rho_lambda(buy_and_hold(), Path(times=[0.0, 1.0], values=[0.0, 1.0]), 1.0) == SENTINEL

    def test_rho_linear_interpolates(self):
        p = Path(times=[0.0, 1.0], values=[0.0, -1.0], mode="linear")
        short = buy_and_hold()
        assert rho_lambda(short, p, 0.5) == pytest.approx(0.5, abs=1e-15)


class TestAdmissibility:
    def test_zero_strategy_always_passes(self, p1):
        zero = RealizedStrategy(times=[0.0], positions=np.zeros((0, 1)))
        assert check_strong_admissibility(zero, [p1], 0.01)[0].ok

    def test_short_fails(self, p1):
        short = RealizedStrategy(times=[0.0, np.inf], positions=[-1.0])
        v = check_strong_admissibility(short, [p1], 0.5)[0]
        assert not v.ok and v.worst_capital == pytest.approx(-1.3)

    def test_strong_implies_weak_with_larger_budget(self, p1):
        hold = buy_and_hold()
        assert check_strong_admissibility(hold, [p1], 0.1)[0].ok
        assert check_weak_admissibility(hold, [p1], 0.2)[0].ok

    def test_trading_after_rho_fails_stopping_clause(self):
        p = Path(times=[0.0, 1.0, 2.0, 3.0], values=[0.0, -1.0, -1.5, 0.5], mode="step")
        short = RealizedStrategy(times=[0.0, np.inf], positions=[1.0])
        # long one unit: capital hits -1 at t=1 (rho for lam=1), keeps trading
        v = check_weak_admissibility(short, [p], 1.0)[0]
        assert not v.ok and not v.ok_stopping

    def test_weak_pass_when_stopped_at_rho(self):
        p = Path(times=[0.0, 1.0, 2.0, 3.0], values=[0.0, -1.0, -1.5, 0.5], mode="step")
        stopped = RealizedStrategy(times=[0.0, 1.0], positions=[1.0])
        v = check_weak_admissibility(stopped, [p], 1.0)[0]
        assert v.ok and v.rho == 1.0


class TestDoobInterval:
    def test_p1_round_trip(self, p1):
        rule = doob_interval_strategy(0.0, 0.5, 2.0, PSI0)
        realized = rule.realize(p1)
        cap = capital(realized, p1, 3.0)
        assert cap == pytest.approx(0.6, abs=1e-15)
        up, _ = crossings(p1, 0.0, 0.5, 3.0)
        assert 0.0 + 2.0 + 0.0 + cap >= (0.5 - 0.0) * up

    def test_constant_path_no_trades(self):
        p = Path(times=[0.0], values=[0.7], horizon=1.0)
        realized = doob_interval_strategy(0.0, 0.5, 2.0, PSI0).realize(p)
        assert capital(realized, p, 1.0) == 0.0

    def test_monotone_ramp_single_trip(self):
        p = Path(times=[0.0, 1.0], values=[-0.2, 0.9], mode="linear")
        realized = doob_interval_strategy(0.0, 0.5, 2.0, PSI0).realize(p)
        # buys at t=0 (value -0.2 <= 0), sells at the exact 0.5-crossing
        assert capital(realized, p, 1.0) == pytest.approx(0.7, abs=1e-12)

    def test_interval_bound_random_paths(self):
        rng = np.random.default_rng(32)
        psi = PsiSpec("constant", (0.7,))
        for _ in range(40):
            p = random_step_path(rng, n_events=14)
            K = float(np.ceil(p.sup_norm())) + 1.0
            a, b = -0.25, 0.25
            realized = doob_interval_strategy(a, b, K, psi).realize(p)
            curve = capital_curve(realized, p)
            for t, _ in zip(curve.times, curve.values):
                up, _ = crossings(p, a, b, float(t))
                cap_t = curve.value_at(float(t))
                assert a + K + psi(K) + cap_t >= (b - a) * up - 1e-12


class TestDoobAggregate:
    def test_constant_path(self):
        p = Path(times=[0.0], values=[0.0], horizon=1.0)
        rule = doob_aggregate(2, 1.0, PSI0)
        assert capital(rule.realize(p), p, 1.0) == 0.0

    def test_oscillator_bound_vs_crossings(self, p2):
        scaled = Path(p2.times, p2.values * 0.9 - 0.45, mode="step")  # inside (-2, 2)
        K, n = 2.0, 1
        rule = doob_aggregate(n, K, PSI0)
        realized = rule.realize(scaled)
        factor = doob_aggregate_bound_factor(n, K, PSI0)
        curve = capital_curve(realized, scaled)
        for t in scaled.times:
            up, _ = crossings_accumulated(scaled, 2.0 ** -n, float(t))
            assert 1.0 + curve.value_at(float(t)) >= factor * up - 1e-12

    def test_bound_and_admissibility_random(self):
        rng = np.random.default_rng(33)
        psi = PsiSpec("constant", (0.5,))
        for trial in range(25):
            p = random_step_path(rng, n_events=20, min_jump=0.02, max_jump=0.3)
            if p.sup_norm() >= 4.0:
                continue
            K = float(np.floor(p.sup_norm())) + 1.0
            n = int(rng.integers(0, 4))
            rule = doob_aggregate(n, K, psi)
            realized = rule.realize(p)
            assert check_strong_admissibility(realized, [p], 1.0)[0].ok
            factor = doob_aggregate_bound_factor(n, K, psi)
            curve = capital_curve(realized, p)
            for t in p.times:
                up, _ = crossings_accumulated(p, 2.0 ** -n, float(t))
                assert 1.0 + curve.value_at(float(t)) >= factor * up - 1e-12, \
                    f"trial {trial} t {t}"

    def test_step_and_python_paths_agree(self):
        # the kernel-based step route must match summing interval strategies
        rng = np.random.default_rng(34)
        p = random_step_path(rng, n_events=12)
        K = float(np.ceil(p.sup_norm())) + 1.0
        rule = doob_aggregate(2, K, PSI0)
        realized = rule.realize(p)
        total = np.zeros(p.n_events)
        spacing, weight = 0.25, 1.0 / (K * 2 ** 3 * (2 * K))
        klo = int(np.floor(-K / spacing)) + 1
        khi = int(np.ceil(K / spacing)) - 2
        for k in range(klo, khi + 1):
            sub = doob_interval_strategy(k * spacing, (k + 1) * spacing, K, PSI0).realize(p)
            for e, t in enumerate(p.times):
                total[e] += weight * sub.position_at(np.nextafter(t, np.inf))[0]
        got = np.array([realized.position_at(np.nextafter(t, np.inf))[0] for t in p.times])
        np.testing.assert_allclose(got, total, atol=1e-15)


class TestAdmissibilityLift:
    def test_budget_arithmetic(self):
        assert lift_budget(1.0, 1, 1.0, PSI0) == 4.0
        assert lift_budget(0.5, 2, 1.0, PSI1) == 0.5 * (1 + 6 + 4)

    def test_zero_strategy_lift(self, p1):
        zero = doob_interval_strategy(-10.0, -9.0, 100.0, PSI0)  # never trades on p1
        lifted = admissibility_lift(zero, 1.0, 2.0, PSI0)
        realized = lifted.realize(p1)
        # lift holds lam units until gamma_K = inf, so capital = S_t - S_0
        assert capital(realized, p1, 3.0) == pytest.approx(1.3, abs=1e-14)
        assert check_strong_admissibility(realized, [p1], lift_budget(1.0, 1, 2.0, PSI0))[0].ok

    def test_lift_of_weak_strategies_is_strong(self):
        rng = np.random.default_rng(35)
        psi = PsiSpec("constant", (0.6,))
        lam = 0.5
        checked = 0
        for _ in range(60):
            p = random_step_path(rng, n_events=16, min_jump=0.02, max_jump=0.4)
            K = float(np.floor(p.sup_norm())) + 1.0
            # candidate: random positions, truncated at its own rho
            times = [0.0] + sorted(rng.uniform(0.01, 0.95, 3).tolist())
            pos = rng.uniform(-lam, lam, 4)
            cand = RealizedStrategy(times=np.append(times, np.inf), positions=pos)
            rho = rho_lambda(cand, p, lam)
            if np.isfinite(rho):
                keep_t = [t for t in times if t < rho] + [rho]
                keep_p = pos[:len(keep_t) - 1].tolist() + []
                keep_p = pos[:len(keep_t) - 1]
                cand = RealizedStrategy(times=np.array(keep_t + [np.inf]),
                                        positions=np.append(keep_p, 0.0))
            if not check_weak_admissibility(cand, [p], lam)[0].ok:
                continue
            checked += 1
            from pathcalc.strategies import StrategyRule
            rule = StrategyRule(kind="fixed", params={}, _evaluate=lambda _p, c=cand: c)
            lifted = admissibility_lift(rule, lam, K, psi).realize(p)
            budget = lift_budget(lam, 1, K, psi)
            assert check_strong_admissibility(lifted, [p], budget)[0].ok
        assert checked >= 20

    def test_lift_two_dimensional(self):
        rng = np.random.default_rng(44)
        psi = PsiSpec("constant", (0.6,))
        lam = 0.4
        checked = 0
        for _ in range(40):
            p = random_step_path(rng, n_events=12, dim=2, min_jump=0.02, max_jump=0.3)
            K = float(np.floor(p.sup_norm())) + 1.0
            times = np.append([0.0] + sorted(rng.uniform(0.01, 0.9, 2).tolist()), np.inf)
            pos = rng.uniform(-lam / 2, lam / 2, (3, 2))
            cand = RealizedStrategy(times=times, positions=pos)
            rho = rho_lambda(cand, p, lam)
            if np.isfinite(rho):
                keep = [t for t in times[:-1] if t < rho] + [rho]
                cand = RealizedStrategy(
                    times=np.array(keep + [np.inf]),
                    positions=np.vstack([pos[:len(keep) - 1], np.zeros((1, 2))]))
            if not check_weak_admissibility(cand, [p], lam)[0].ok:
                continue
            checked += 1
            from pathcalc.strategies import StrategyRule
            rule = StrategyRule(kind="fixed", params={}, _evaluate=lambda _p, c=cand: c)
            lifted = admissibility_lift(rule, lam, K, psi).realize(p)
            budget = lift_budget(lam, 2, K, psi)
            assert check_strong_admissibility(lifted, [p], budget)[0].ok
        assert checked >= 15


class TestLStrategy:
    def test_constant_path(self):
        p = Path(times=[0.0], values=[0.0], horizon=1.0)
        realized, report = l_strategy(p, 2, 1, PSI0)
        assert report.max_deviation == 0.0
        assert capital(realized, p, 1.0) == 0.0

    def test_p1_identity(self, p1):
        _, report = l_strategy(p1, 2, 2, PSI0)
        assert report.max_deviation <= 1e-9

    def test_identity_random_paths(self):
        rng = np.random.default_rng(36)
        psi = PsiSpec("constant", (0.5,))
        for _ in range(40):
            p = random_step_path(rng, n_events=18, min_jump=0.02, max_jump=0.5)
            n = int(rng.integers(2, 7))
            K = int(rng.choice([1, 2, 4]))
            _, report = l_strategy(p, n, K, psi)
            assert report.max_deviation <= 1e-9

    def test_sigma_matches_sigma_n_K(self):
        psi = PsiSpec("constant", (0.5,))
        spec = SimSpec(kind="jump-diffusion", steps=48, seed=2, volatility=4.0,
                       jump_intensity=6.0, jump_mean=-0.05, jump_std=0.25, psi=psi)
        paths = ensemble(spec, 6)
        finite = 0
        for p in paths + [Path(p.times, p.values, mode="linear") for p in paths[:3]]:
            for n in range(2, 9):
                for K in (1, 2, 4):
                    sigma = l_strategy(p, n, K, psi)[1].sigma
                    assert sigma == sigma_n_K(p, n, K)
                    finite += bool(np.isfinite(sigma))
        assert finite > 0

    def test_weak_admissibility_on_member_paths(self):
        psi = PsiSpec("constant", (0.3,))
        spec = SimSpec(kind="jump-diffusion", steps=40, seed=5, volatility=0.4,
                       jump_intensity=6.0, jump_mean=-0.1, jump_std=0.2, psi=psi)
        for stream in range(10):
            p = simulate(spec, stream=stream)
            n, K = 3, 2
            realized, report = l_strategy(p, n, K, psi)
            assert check_weak_admissibility(realized, [p], report.budget)[0].ok


class TestHoeffding:
    def test_beta_values(self):
        beta = hoeffding_beta(1.0, 1.0)
        assert beta == pytest.approx(math.exp(-0.5) * math.sinh(1.0), abs=1e-12)
        assert beta == pytest.approx(0.71278, abs=1e-4)
        assert hoeffding_beta(0.0, 1.0) == 0.0

    def test_single_step_chord_bounds(self):
        beta = hoeffding_beta(1.0, 1.0)
        assert 1.0 + beta * 1.0 >= math.exp(0.5)      # increment +1
        assert 1.0 - beta >= math.exp(-1.5)           # increment -1
        assert 1.0 + beta >= 1.7127 and math.exp(0.5) <= 1.6488

    def test_lambda_zero_constant_wealth(self, p1):
        report = hoeffding_check(p1, [0.0, 1.0, 2.0, 3.0], 1.0, 0.0)
        assert report.ok and report.worst_margin == pytest.approx(0.0, abs=1e-15)

    def test_random_walk_guarantee(self):
        rng = np.random.default_rng(37)
        for lam in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            for _ in range(10):
                steps = int(rng.integers(5, 60))
                c = float(rng.uniform(0.05, 0.5))
                incr = rng.uniform(-c, c, steps)
                times = np.arange(steps + 1, dtype=float)
                vals = np.concatenate([[0.0], np.cumsum(incr)])
                p = Path(times=times, values=vals, mode="step")
                report = hoeffding_check(p, times, c, lam)
                assert report.bound_respected
                assert report.ok, (lam, report)

    def test_violated_step_bound_reported(self):
        p = Path(times=[0.0, 1.0], values=[0.0, 5.0], mode="step")
        report = hoeffding_check(p, [0.0, 1.0], 1.0, 0.5)
        assert not report.bound_respected


class TestBdg:
    def test_zero_one(self):
        res = bdg_check([0.0, 1.0])
        assert res.lhs == 1.0 and res.rhs == pytest.approx(6.0, abs=1e-12) and res.holds
        assert bdg_weights([0.0, 1.0])[0] == 0.0  # the 0/0 convention

    def test_zero_one_minus_one(self):
        res = bdg_check([0.0, 1.0, -1.0])
        assert res.lhs == 1.0
        assert res.rhs == pytest.approx(6 * math.sqrt(5) - 2 * math.sqrt(2), abs=1e-9)
        assert res.rhs == pytest.approx(10.588, abs=1e-2) and res.holds

    def test_all_zero(self):
        res = bdg_check([0.0, 0.0, 0.0])
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.holds

    def test_random_sequences_never_violate(self):
        rng = np.random.default_rng(38)
        seqs = []
        for _ in range(4000):
            m = int(rng.integers(1, 60))
            scale = 10.0 ** rng.uniform(-3, 3)
            seqs.append(rng.normal(0, scale, m))
        lhs, rhs = bdg_check_batch(seqs)
        assert np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, np.abs(rhs)))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(39)
        seqs = [rng.normal(size=int(rng.integers(1, 20))) for _ in range(50)]
        lhs, rhs = bdg_check_batch(seqs)
        for s, l, r in zip(seqs, lhs, rhs):
            res = bdg_check(s)
            assert res.lhs == pytest.approx(l, abs=1e-13)
            assert res.rhs == pytest.approx(r, abs=1e-13)


class TestNonAnticipation:
    def test_rules_agree_on_common_prefix(self):
        rng = np.random.default_rng(40)
        base = random_step_path(rng, n_events=12, horizon=1.2)
        u = 0.6
        keep = base.times <= u
        alt_times = np.concatenate([base.times[keep], [0.9, 1.1]])
        alt_vals = np.concatenate([base.values[keep, 0], [5.0, -3.0]])
        alt = Path(times=alt_times, values=alt_vals, mode="step", horizon=1.2)
        psi = PSI1
        K = 50.0
        rules = [
            doob_interval_strategy(-0.1, 0.4, K, psi),
            doob_aggregate(2, K, psi),
            hoeffding_strategy(np.arange(0.0, 1.2, 0.2), 10.0, 0.5),
        ]
        for rule in rules:
            ra, rb = rule.realize(base), rule.realize(alt)
            for t_a, p_a, t_b, p_b in zip(ra.times, np.vstack([ra.positions, [[0]]]),
                                          rb.times, np.vstack([rb.positions, [[0]]])):
                if min(t_a, t_b) > u:
                    break
                assert t_a == t_b
                np.testing.assert_array_equal(p_a, p_b)
