import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcalc import ContractError, Path, PsiSpec
from pathcalc.integration import ito_integral
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
    StrategyRule,
    admissibility_lift,
    _interval_trades,
)

import reference_loops as R
from conftest import ladder_paths, random_step_path

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

    def test_zero_strategy_of_the_path_dim(self):
        p = Path(times=[0.0, 1.0], values=[[0.0, 1.0], [2.0, 5.0]])
        zero = RealizedStrategy(times=[0.0], positions=np.zeros((0, 2)))
        assert zero.dim == 2 and capital(zero, p, 1.0) == 0.0

    def test_dim_mismatch(self, p1):
        with pytest.raises(ContractError):
            capital(buy_and_hold(d=2), p1, 1.0)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 0.5], [0.0, 0.5, np.nan], [0.0, 0.5, 0.5],
                                       [0.0, np.inf, np.inf]])
    def test_times_must_increase_strictly(self, times):
        with pytest.raises(ContractError, match="strictly increasing"):
            RealizedStrategy(times=times, positions=[1.0, 2.0])

    @pytest.mark.parametrize("positions", [5.0, np.ones((1, 1, 1)), np.zeros((1, 0))])
    def test_positions_must_be_a_table_with_columns(self, positions):
        with pytest.raises(ContractError, match="2-d"):
            RealizedStrategy(times=[0.0, 1.0], positions=positions)

    def test_a_1d_positions_array_is_frozen_with_the_strategy(self):
        positions = np.array([1.0, 2.0])
        realized = RealizedStrategy(times=[0.0, 0.5, 1.0], positions=positions)
        with pytest.raises(ValueError):
            positions[1] = 5.0
        assert realized.positions[1, 0] == 2.0

    @settings(max_examples=100)
    @given(ladder_paths(), st.data())
    def test_reads_the_capital_curve(self, case, data):
        path = case[0]
        d = path.dim
        gaps = data.draw(st.lists(st.floats(0.001, 1.0), max_size=6))
        times = np.concatenate([[0.0], np.cumsum(gaps), [np.inf]])
        size = d * (len(times) - 1)
        pos = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size))
        realized = RealizedStrategy(times=times, positions=np.reshape(pos, (-1, d)))
        curve = capital_curve(realized, path)
        j = data.draw(st.integers(0, path.n_events - 1))
        for t in (0.0, path.times[j], 0.5 * (path.times[j] + path.horizon), path.horizon):
            assert capital(realized, path, t) == curve.value_at(t)


DECISION_CASES = ("events", "off-events", "horizon", "past-horizon", "inf", "beyond-events",
                  "many")


@st.composite
def curve_cases(draw, case):
    """``(realized, path)``: a step or linear path, d = 1..2, and decision times of ``case``.

    The decision times are 0 and a subset of the events, plus nothing
    (``events``), times up to the horizon that are mostly not events
    (``off-events``), the horizon (``horizon``), finite times past it
    (``past-horizon``), a last time of ``inf`` (``inf``), or more distinct
    times than events (``many``).  The horizon lies past the last event for
    ``beyond-events`` and on a one-event path, and is drawn in the other
    cases.  Values and positions may be drawn as either signed zero.
    """
    mode = draw(st.sampled_from(["step", "linear"]))
    d = draw(st.integers(1, 2))
    m = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.floats(0.001, 1.0), min_size=m - 1, max_size=m - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    values = draw(st.lists(st.floats(-512.0, 512.0), min_size=m * d, max_size=m * d))
    beyond = case == "beyond-events" or m == 1 or draw(st.booleans())
    horizon = float(times[-1]) + (draw(st.floats(0.001, 1.0)) if beyond else 0.0)
    path = Path(times, np.reshape(values, (m, d)), mode=mode, horizon=horizon)
    keep = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    decided = np.concatenate([[0.0], times[keep]])
    up_to_horizon = st.floats(0.0, horizon, exclude_min=True)
    extra = {
        "off-events": st.lists(up_to_horizon, min_size=1, max_size=4),
        "horizon": st.just([horizon]),
        "past-horizon": st.lists(st.floats(horizon, horizon + 2.0, exclude_min=True),
                                 min_size=1, max_size=3),
        "many": st.lists(up_to_horizon, min_size=m, max_size=m + 4, unique=True),
    }.get(case, st.just([]))
    decided = np.unique(np.concatenate([decided, draw(extra)]))
    if case == "inf":
        decided = np.append(decided, np.inf)
    size = d * (len(decided) - 1)
    pos = draw(st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size))
    return RealizedStrategy(times=decided, positions=np.reshape(pos, (-1, d))), path


class TestCapitalCurve:
    @pytest.mark.parametrize("case", DECISION_CASES)
    @settings(max_examples=40)
    @given(st.data())
    def test_matches_the_merged_grid(self, case, data):
        """Bit for bit the curve of ``np.unique`` and ``path.eval``, signed zeros included."""
        realized, path = data.draw(curve_cases(case))
        curve = capital_curve(realized, path)
        ref = R.capital_curve_py(realized, path)
        assert curve.times.tobytes() == ref.times.tobytes()
        assert curve.values.tobytes() == ref.values.tobytes()
        if case in ("events", "inf") and path.horizon == path.times[-1]:
            assert curve.times is path.times
        if case == "many":
            assert len(realized.times) > path.n_events

    def test_step_capital_reads_the_event_table(self, monkeypatch):
        """On a step path whose decisions are events the capital makes no ``Path.eval`` call."""
        evals = []
        original = Path.eval
        monkeypatch.setattr(Path, "eval", lambda self, t: evals.append(t) or original(self, t))
        rng = np.random.default_rng(20)
        live = 0
        for _ in range(6):
            path = random_step_path(rng, n_events=40)
            for n in (2, 3, 4):
                realized, _ = l_strategy(path, n, 4, PSI1)
                live += realized.positions.size
                assert capital_curve(realized, path).times is path.times
            aggregate = doob_aggregate(3, 4.0, PSI1).realize(path)
            assert capital_curve(aggregate, path).times is path.times
        assert live and evals == []

    @pytest.mark.parametrize("mode", ["step", "linear"])
    @pytest.mark.parametrize("t", [np.nan, 7.0, 1.0 + 1e-12, -5.0, -1e-300])
    def test_reads_inside_its_times_only(self, mode, t):
        p = Path(times=[0.0, 0.5, 1.0], values=[0.0, 1.0, 3.0], mode=mode)
        curve = capital_curve(buy_and_hold(), p)
        with pytest.raises(ContractError):
            curve.value_at(t)
        with pytest.raises(ContractError):
            curve.values_at(np.array([0.0, t, 1.0]))
        with pytest.raises(ContractError):
            capital(buy_and_hold(), p, t)
        assert curve.value_at(0.0) == 0.0 and curve.value_at(1.0) == 3.0
        assert list(curve.values_at([0.0, 0.5, 1.0])) == [0.0, 1.0, 3.0]

    @pytest.mark.parametrize("horizon", [1.0, 2.0])
    @pytest.mark.parametrize("mode", ["step", "linear"])
    def test_arrays_are_read_only(self, mode, horizon):
        p = Path(times=[0.0, 0.5, 1.0], values=[0.0, 1.0, 3.0], mode=mode, horizon=horizon)
        curve = capital_curve(buy_and_hold(), p)
        assert (curve.times is p.times) == (horizon == 1.0)
        integral = ito_integral(lambda q, t: 1.0, p, n_max=3).curve
        for arr in (curve.times, curve.values, integral.times, integral.values):
            with pytest.raises(ValueError):
                arr[0] = 1.0


@st.composite
def position_cases(draw):
    """``(realized, ts)``: d = 1..2, up to six gaps, possibly a last time of ``inf``.

    Without gaps and ``inf`` it is the zero strategy, with positions of
    shape ``(0, d)``.  The query times lie before 0, on the decision times,
    between them and past the last finite one; either signed zero occurs.
    """
    d = draw(st.integers(1, 2))
    gaps = draw(st.lists(st.floats(0.001, 1.0), max_size=6))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    last = float(times[-1])
    if draw(st.booleans()):
        times = np.append(times, np.inf)
    size = d * (len(times) - 1)
    pos = draw(st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size))
    ts = draw(st.lists(st.one_of(st.sampled_from(times[:-1].tolist() + [last, -0.0]),
                                 st.floats(-1.0, last + 1.0)), min_size=1, max_size=12))
    return RealizedStrategy(times=times, positions=np.reshape(pos, (-1, d))), np.array(ts)


class TestPositionAfter:
    @settings(max_examples=200)
    @given(position_cases())
    @example((RealizedStrategy(times=[0.0], positions=np.zeros((0, 2))),
              np.array([-1.0, -0.0, 0.0, 0.5])))
    @example((RealizedStrategy(times=[0.0, 0.5, np.inf], positions=[[1.0], [-2.0]]),
              np.array([-0.25, 0.0, 0.25, 0.5, 0.75, 1e300])))
    @example((RealizedStrategy(times=[0.0, 0.5, 1.0], positions=[[1.0, 3.0], [-2.0, 0.0]]),
              np.array([-1e-300, 0.0, 0.5, 0.75, 1.0, 2.0])))
    def test_matches_the_gap_loop(self, case):
        """Bit for bit the per-time reference, which finds ``times[k] <= t < times[k + 1]``."""
        realized, ts = case
        held = realized.position_after(ts)
        ref = R.position_after_py(realized, ts)
        assert held.shape == ref.shape == (len(ts), realized.dim)
        assert held.tobytes() == ref.tobytes()


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

    @settings(max_examples=300)
    @given(ladder_paths(), st.one_of(st.sampled_from([0.25, 1.0, 2.0, 4.0]),
                                     st.floats(1e-3, 600.0)))
    @example((Path([0.0, 1.0, 2.0], [[0.5, 0.5], [0.5, 0.5], [1.0, 0.5]]), 1), 1.0)
    def test_gamma_linear_matches_the_segment_loop(self, case, K_bound):
        # lattice values repeat (zero increments) and often start at or above K
        path = case[0]
        p = Path(path.times, path.values, mode="linear", horizon=path.horizon)
        assert gamma_K(p, K_bound) == R.gamma_K_py(p, K_bound)

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

    def test_weak_floor_of_a_huge_price(self):
        # |S_rho| is 1.41e200, so the relaxed floor is -7.07e199; the capital
        # -2e201 breaks it, and the sum of squares 2e400 must not overflow
        p = Path([0.0, 1.0, 2.0], [[0.0, 0.0], [1e200, 1e200], [1e200, 1e200]], mode="step")
        short = RealizedStrategy(times=[0.0, 1.0, np.inf], positions=[[-10.0, -10.0], [0.0, 0.0]])
        v = check_weak_admissibility(short, [p], 0.5)[0]
        assert v.rho == 1.0 and v.ok_stopping
        assert not v.ok and not v.ok_bound

    @pytest.mark.parametrize("mode", ["step", "linear"])
    def test_rule_is_realized_on_each_path(self, mode):
        rng = np.random.default_rng(13)
        paths = [Path(q.times, q.values, mode=mode, horizon=q.horizon)
                 for q in (random_step_path(rng, n_events=12) for _ in range(6))]
        rule = doob_interval_strategy(-0.2, 0.2, 2.0)
        for check in (check_strong_admissibility, check_weak_admissibility):
            verdicts = check(rule, paths, 0.3)
            assert verdicts == [check(rule.realize(p), [p], 0.3)[0] for p in paths]
        worst = [v.worst_capital for v in check_strong_admissibility(rule, paths, 0.3)]
        assert len(set(worst)) > 1

    @pytest.mark.parametrize("mode", ["step", "linear"])
    def test_weak_check_builds_one_curve_per_path(self, monkeypatch, mode):
        """rho is found on the curve the bound is checked on, not on a second one."""
        import pathcalc.strategies as S
        calls = []
        monkeypatch.setattr(S, "capital_curve",
                            lambda *args: calls.append(args) or capital_curve(*args))
        rng = np.random.default_rng(12)
        paths = [Path(q.times, q.values, mode=mode, horizon=q.horizon)
                 for q in (random_step_path(rng, n_events=12) for _ in range(8))]
        short = RealizedStrategy(times=[0.0, 0.5, np.inf], positions=[-1.0, 0.5])
        verdicts = check_weak_admissibility(short, paths, 0.2)
        assert len(calls) == len(paths)
        rhos = [v.rho for v in verdicts]
        assert any(np.isfinite(rhos)) and not all(np.isfinite(rhos))
        assert rhos == [rho_lambda(short, p, 0.2) for p in paths]


@st.composite
def interval_cases(draw):
    """``(path, a, b, K)``: a step or linear path and one interval strategy.

    Lattice values are multiples of 0.25 and so hit ``a``, ``b`` and ``K``
    exactly; linear paths also get flat segments and segment ends on a level.
    """
    m = draw(st.integers(1, 25))
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.integers(-12, 12), min_size=m, max_size=m))) * 0.25
        a = draw(st.integers(-8, 8)) * 0.25
        b = a + draw(st.integers(1, 4)) * 0.25
    else:
        values = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)))
        a = draw(st.floats(-3.0, 3.0))
        b = a + draw(st.floats(1e-3, 3.0))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=m - 1, max_size=m - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    mode = draw(st.sampled_from(["step", "linear"]))
    K_bound = draw(st.sampled_from([0.5, 1.0, 2.25, 3.0, 100.0]))
    return Path(times, values, mode=mode, horizon=times[-1] + 1.0), a, b, K_bound


class TestDoobInterval:
    @settings(max_examples=400)
    @given(interval_cases())
    @example((Path([0.0, 1.0, 2.0], [2.0, 1e16, 0.5], mode="linear"), 0.0, 1.0, 1e20))
    @example((Path([0.0, 1.0, 2.0], [0.5, -0.5, 0.5], mode="linear"), 0.0, 0.25, 100.0))
    def test_trades_match_the_state_machine(self, case):
        path, a, b, K_bound = case
        trades = _interval_trades(path, a, b, gamma_K(path, K_bound))
        ref = R.interval_trades_py(path, a, b, K_bound)
        assert np.array(trades).tobytes() == np.array(ref).tobytes()

    def test_linear_rounding_decides_the_trade(self):
        # 0.5 - 1e16 rounds to -1e16, so the fraction to a = 0 is exactly 1
        p = Path([0.0, 1.0, 2.0], [2.0, 1e16, 0.5], mode="linear")
        assert _interval_trades(p, 0.0, 1.0, gamma_K(p, 1e20)) == [(2.0, 1.0)]

    def test_p1_round_trip(self, p1):
        rule = doob_interval_strategy(0.0, 0.5, 2.0)
        realized = rule.realize(p1)
        cap = capital(realized, p1, 3.0)
        assert cap == pytest.approx(0.6, abs=1e-15)
        up, _ = crossings(p1, 0.0, 0.5, 3.0)
        assert 0.0 + 2.0 + 0.0 + cap >= (0.5 - 0.0) * up

    def test_constant_path_no_trades(self):
        p = Path(times=[0.0], values=[0.7], horizon=1.0)
        realized = doob_interval_strategy(0.0, 0.5, 2.0).realize(p)
        assert capital(realized, p, 1.0) == 0.0

    def test_monotone_ramp_single_trip(self):
        p = Path(times=[0.0, 1.0], values=[-0.2, 0.9], mode="linear")
        realized = doob_interval_strategy(0.0, 0.5, 2.0).realize(p)
        # buys at t=0 (value -0.2 <= 0), sells at the exact 0.5-crossing
        assert capital(realized, p, 1.0) == pytest.approx(0.7, abs=1e-12)

    def test_interval_bound_random_paths(self):
        rng = np.random.default_rng(32)
        psi = PsiSpec("constant", (0.7,))
        for _ in range(40):
            p = random_step_path(rng, n_events=14)
            K = float(np.ceil(p.sup_norm())) + 1.0
            a, b = -0.25, 0.25
            realized = doob_interval_strategy(a, b, K).realize(p)
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
        total = np.zeros((p.n_events, 1))
        spacing, weight = 0.25, 1.0 / (K * 2 ** 3 * (2 * K))
        klo = int(np.floor(-K / spacing)) + 1
        khi = int(np.ceil(K / spacing)) - 2
        for k in range(klo, khi + 1):
            sub = doob_interval_strategy(k * spacing, (k + 1) * spacing, K).realize(p)
            total += sub.position_after(p.times) * weight
        assert realized.position_after(p.times).tobytes() == total.tobytes()

    def test_linear_aggregate_is_the_interval_sum(self):
        # gamma_K fires at t = 2.86 on the last segment while (-0.5, -0.25) is long
        p = Path([0.0, 1.0, 2.0, 3.0], [0.0, -0.3, 0.2, -0.9], mode="linear")
        K = 0.75
        realized = doob_aggregate(2, K, PSI0).realize(p)
        assert realized.positions[-1, 0] == 0.0
        spacing, weight = 0.25, 1.0 / (K * 2 ** 3 * (2 * K))
        times = realized.times[:-1]
        total = np.zeros((len(times), 1))
        for k in range(-2, 2):
            total += doob_interval_strategy(k * spacing, (k + 1) * spacing, K) \
                .realize(p).position_after(times) * weight
        assert realized.position_after(times).tobytes() == total.tobytes()

    @pytest.mark.parametrize("K", [1e-300, 1e-155])
    def test_a_budget_below_the_normal_floats_is_rejected(self, K):
        # with psi(K) = K^2 the budget 2K (2K + psi(K)) is 0.0 at 1e-300 (a ZeroDivisionError
        # before) and subnormal at 1e-155 (an infinite factor before)
        psi = PsiSpec("power", (1.0, 2.0))
        for fn in (doob_aggregate_bound_factor, doob_aggregate):
            with pytest.raises(ContractError, match=r"budget 2K \(2K \+ psi\(K\)\)"):
                fn(0, K, psi)
        assert doob_aggregate_bound_factor(0, 1e-153, psi) == 1.0 / (2e-153 * 2e-153)

    @settings(max_examples=150)
    @given(interval_cases(), st.integers(0, 3))
    def test_linear_merge_matches_the_reference_loop(self, case, n):
        path, _, _, K_bound = case
        p = Path(path.times, path.values, mode="linear", horizon=path.horizon)
        realized = doob_aggregate(n, K_bound, PSI1).realize(p)
        times, pos = R.doob_aggregate_linear_py(p, n, K_bound, PSI1)
        assert realized.times.tobytes() == times.tobytes()
        assert realized.positions[:, 0].tobytes() == pos.tobytes()


class TestAdmissibilityLift:
    def test_budget_arithmetic(self):
        assert lift_budget(1.0, 1, 1.0, PSI0) == 4.0
        assert lift_budget(0.5, 2, 1.0, PSI1) == 0.5 * (1 + 6 + 4)

    def test_zero_strategy_lift(self, p1):
        zero = doob_interval_strategy(-10.0, -9.0, 100.0)  # never trades on p1
        lifted = admissibility_lift(zero, 1.0, 2.0)
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
            rule = StrategyRule(lambda _p, c=cand: c)
            lifted = admissibility_lift(rule, lam, K).realize(p)
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
            rule = StrategyRule(lambda _p, c=cand: c)
            lifted = admissibility_lift(rule, lam, K).realize(p)
            budget = lift_budget(lam, 2, K, psi)
            assert check_strong_admissibility(lifted, [p], budget)[0].ok
        assert checked >= 15

    @settings(max_examples=150)
    @given(ladder_paths(), st.data())
    def test_matches_the_reference_loop(self, case, data):
        path, _ = case
        d = path.dim
        gaps = data.draw(st.lists(st.floats(0.01, 1.0), max_size=8))
        times = np.concatenate([[0.0], np.cumsum(gaps), [np.inf]])
        pos = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(gaps) + 1,
                                 max_size=len(gaps) + 1))
        G = RealizedStrategy(times=times, positions=np.repeat(np.array(pos)[:, None], d, axis=1))
        lam = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
        K_bound = data.draw(st.sampled_from([0.5, 2.25, 100.0, 1e4]))
        rule = StrategyRule(lambda _p: G)
        realized = admissibility_lift(rule, lam, K_bound).realize(path)
        ref_times, ref_pos = R.admissibility_lift_py(G, path, lam, K_bound)
        assert realized.times.tobytes() == ref_times.tobytes()
        assert realized.positions.tobytes() == ref_pos.tobytes()


# paths whose compensated-Z strategy stops inside the grid, at its last
# point and never: ((path, n), K)
CUT_CASES = {
    "inside": ((Path([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.5, 0.25]), 2), 1),
    "last": ((Path([0.0, 1.0, 2.0], [0.0, 0.5, 1.5]), 2), 1),
    "none": ((Path([0.0, 1.0, 2.0], [0.125, 0.25, 0.125]), 2), 4),
}


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

    @settings(max_examples=100)
    @given(ladder_paths(), st.sampled_from([1, 2, 4]))
    @example((Path([0.0, 1.0, 2.0], [0.5, -0.25, 0.75], mode="linear"), 1), 1)
    def test_matches_the_reference_loop(self, case, K_bound):
        path, n_max = case
        p = path.coordinate(1)
        for n in sorted({2, max(2, n_max)}):
            realized, report = l_strategy(p, n, K_bound, PSI0, tolerance=np.inf)
            times, positions, sigma = R.l_strategy_py(p, n, K_bound)
            assert realized.times.tobytes() == times.tobytes()
            assert realized.positions[:, 0].tobytes() == positions.tobytes()
            assert report.sigma == sigma

    @settings(max_examples=100)
    @given(ladder_paths(), st.sampled_from([1, 2, 4]))
    @example(*CUT_CASES["inside"])
    @example(*CUT_CASES["last"])
    @example(*CUT_CASES["none"])
    def test_deviation_matches_the_clamped_gather(self, case, K_bound):
        """``max_deviation`` bit for bit against K gathered at ``min(index, cut index)``."""
        path, n_max = case
        p = path.coordinate(1)
        for n in sorted({2, max(2, n_max)}):
            realized, report = l_strategy(p, n, K_bound, PSI0, tolerance=np.inf)
            ref = R.l_strategy_deviation_py(p, n, K_bound, PSI0, realized)
            assert report.max_deviation.hex() == ref.hex()

    @pytest.mark.parametrize("name", sorted(CUT_CASES))
    def test_cut_cases_stop_where_named(self, name):
        (path, n), K_bound = CUT_CASES[name]
        report = l_strategy(path, n, K_bound, PSI0)[1]
        cut = min(report.gamma, report.sigma)
        where = "none" if cut == np.inf else "last" if cut == path.times[-1] else "inside"
        assert where == name and (cut == np.inf or cut in path.times)

    def test_psi_beyond_float64_is_contract_error(self):
        # the budget psi(K) = 4**1000 overflows; a NaN deviation must not pass the identity
        spec = SimSpec(kind="jump-diffusion", steps=48, seed=1, volatility=0.4,
                       jump_intensity=6.0, jump_mean=-0.05, jump_std=0.25,
                       psi=PsiSpec("constant", (0.5,)))
        with pytest.raises(ContractError, match="beyond float64"):
            l_strategy(simulate(spec), 4, 4, PsiSpec("power", (1.0, 1000.0)))

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

    @settings(max_examples=200)
    @given(interval_cases(), st.data())
    def test_wealth_matches_the_step_loop(self, case, data):
        p = case[0]
        gaps = data.draw(st.lists(st.floats(1e-3, 1.0), max_size=30))
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        c = data.draw(st.one_of(st.floats(0.0, 4.0),
                                st.lists(st.floats(0.0, 4.0), min_size=len(times),
                                         max_size=len(times))))
        lam = data.draw(st.floats(-3.0, 3.0))
        realized = hoeffding_strategy(times, c, lam).realize(p)
        assert realized.positions[:, 0].tobytes() == \
            R.hoeffding_positions_py(p, times, c, lam).tobytes()

    def test_nan_decision_time_rejected(self):
        with pytest.raises(ContractError, match="increasing"):
            hoeffding_strategy([0.0, np.nan, 2.0], 0.5, 1.0)

    @pytest.mark.parametrize("c", [[0.1, 0.2], [[0.1], [0.2], [0.3]], np.ones((3, 2))])
    def test_bounds_not_one_per_decision_time_rejected(self, c):
        p = Path([0.0, 1.0, 2.0], [0.0, 0.1, 0.05])
        with pytest.raises(ContractError, match="c must be|step-bound values"):
            hoeffding_strategy([0.0, 1.0, 2.0], c, 1.0)
        with pytest.raises(ContractError, match="c must be|step-bound values"):
            hoeffding_check(p, [0.0, 1.0, 2.0], c, 1.0)

    def test_wealth_beyond_float64_rejected(self):
        p = Path(np.arange(301.0), np.arange(301.0) % 2)
        with pytest.raises(ContractError, match="wealth of lambda 10000000000.0"):
            hoeffding_strategy(p.times, 1e-300, 1e10).realize(p)
        with pytest.raises(ContractError, match="wealth of lambda 10000000000.0"):
            hoeffding_check(p, p.times, 1e-300, 1e10)

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

    @pytest.mark.parametrize("x", [5.0, [], [[0.0, 1.0]]])
    def test_needs_a_non_empty_1d_sequence(self, x):
        for fn in (bdg_check, bdg_weights):
            with pytest.raises(ContractError, match="non-empty 1-d"):
                fn(x)

    @pytest.mark.parametrize("x", [[1.0, np.inf], [1.0, np.nan], [-np.inf]])
    def test_needs_finite_values(self, x):
        # an infinite term made the bound hold and a NaN one made it fail
        for fn in (bdg_check, bdg_weights, lambda s: bdg_check_batch([[0.5], s])):
            with pytest.raises(ContractError, match="finite"):
                fn(x)

    def test_needs_squares_that_sum_in_float64(self):
        # 1e200 squared overflowed in the kernel with a RuntimeWarning; m terms whose largest
        # magnitude is M square-sum to at most 4 m M^2, so M up to sqrt(max / 4m) is taken
        for fn in (bdg_check, bdg_weights, lambda s: bdg_check_batch([[0.5], s])):
            with pytest.raises(ContractError, match="squares in float64"):
                fn([1e200, -1e200])
        top = math.sqrt(np.finfo(np.float64).max / 12)
        assert bdg_check([top, -top, top]).holds
        with pytest.raises(ContractError, match="float64"):
            bdg_check([top, -np.nextafter(top, np.inf), top])

    @pytest.mark.parametrize("seqs", [[[]], [5.0], [[[0.0, 1.0]]]])
    def test_batch_takes_the_sequences_of_bdg_check(self, seqs):
        with pytest.raises(ContractError, match="non-empty 1-d"):
            bdg_check_batch(seqs)

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
            doob_interval_strategy(-0.1, 0.4, K),
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
