"""Simple trading strategies, admissibility checks and explicit constructions.

A realized strategy is a finite list of decision times ``0 = tau_0 < tau_1 <
... <= inf`` with position vectors held on ``(tau_k, tau_{k+1}]``; its capital
is the sum of positions dotted with price increments.  Rules are evaluated
per path; non-anticipation (the realized decisions up to ``u`` depend only
on the path restricted to ``[0, u]``) is a documented contract of every
construction here and is spot-checked in the test suite rather than enforced
through filtration bookkeeping.

Constructions: interval buy-low/sell-high strategies and their weighted
dyadic aggregate (which turns crossing counts into capital), the lift that
upgrades a weakly admissible strategy to a strongly admissible one, the
compensated-Z strategy whose capital reproduces the K process exactly, the
multiplicative exponential-supermartingale strategy, and the weighted
transform behind the deterministic sequence inequality
``x* <= 6 sqrt([x]) + 2 (h.x)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels as K
from .errors import ContractError, InternalConsistencyError
from .partitions import MAX_CROSSING_INTERVALS, SENTINEL
from .paths import MODE_LINEAR, MODE_STEP, Path, PsiSpec
from .qv import _sigma_from_z, _z_data, k_constant

__all__ = [
    "RealizedStrategy", "StrategyRule", "CapitalCurve",
    "capital", "capital_curve", "gamma_K", "rho_lambda",
    "check_strong_admissibility", "check_weak_admissibility",
    "doob_interval_strategy", "doob_aggregate", "doob_aggregate_bound_factor",
    "admissibility_lift", "lift_budget", "l_strategy",
    "hoeffding_strategy", "hoeffding_beta", "hoeffding_check",
    "bdg_weights", "bdg_check", "bdg_check_batch",
]


@dataclass(frozen=True)
class RealizedStrategy:
    """Decision times and the positions held on the half-open gaps between them."""

    times: np.ndarray     # (N+1,), strictly increasing, times[0] = 0, last may be inf
    positions: np.ndarray  # (N, d)

    def __post_init__(self):
        times = np.ascontiguousarray(np.asarray(self.times, dtype=np.float64))
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim == 1:
            pos = pos[:, None]
        pos = np.ascontiguousarray(pos)
        if times.ndim != 1 or times.shape[0] == 0 or times[0] != 0.0:
            raise ContractError("strategy times must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ContractError("strategy times must be strictly increasing")
        if pos.shape[0] != times.shape[0] - 1:
            raise ContractError("need one position per gap between decision times")
        if not np.all(np.isfinite(pos)):
            raise ContractError("positions must be finite")
        times.flags.writeable = False
        pos.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", pos)

    @property
    def dim(self) -> int:
        return self.positions.shape[1] if self.positions.size else 1

    def position_after(self, ts) -> np.ndarray:
        """Positions held on ``(t, next decision time]`` for each t of the 1-d ``ts``.

        Shape ``(len(ts), dim)``; zero before time 0 and after the last
        decision time.
        """
        k = np.searchsorted(self.times, ts, side="right") - 1
        held = np.zeros((k.shape[0], self.dim))
        live = (k >= 0) & (k < self.positions.shape[0])
        held[live] = self.positions[k[live]]
        return held


@dataclass(frozen=True)
class StrategyRule:
    """Deterministic map from a path to a realized strategy, with a descriptor."""

    kind: str
    params: dict
    _evaluate: Callable[[Path], RealizedStrategy] = field(repr=False)

    def realize(self, path: Path) -> RealizedStrategy:
        return self._evaluate(path)

    def descriptor(self) -> str:
        return json.dumps({"kind": self.kind, "params": self.params},
                          sort_keys=True, default=str)


@dataclass(frozen=True)
class CapitalCurve:
    """Capital at every merged grid time; between grid times it moves only
    through the price (constant in step mode, affine in linear mode)."""

    times: np.ndarray
    values: np.ndarray
    mode: str = MODE_STEP

    def value_at(self, t: float) -> float:
        if self.mode == MODE_LINEAR:
            return float(np.interp(t, self.times, self.values))
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.values[max(idx, 0)])

    def values_at(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        if self.mode == MODE_LINEAR:
            return np.interp(ts, self.times, self.values)
        idx = np.maximum(np.searchsorted(self.times, ts, side="right") - 1, 0)
        return self.values[idx]

    @property
    def minimum(self) -> float:
        return float(np.min(self.values))


def _as_matrix_positions(realized: RealizedStrategy, d: int) -> np.ndarray:
    if realized.positions.size and realized.positions.shape[1] != d:
        raise ContractError(
            f"strategy dim {realized.positions.shape[1]} != path dim {d}")
    return realized.positions if realized.positions.size else np.zeros((0, d))


def capital(realized: RealizedStrategy, path: Path, t: float) -> float:
    """``(H.S)_t``: exact finite sum of positions dotted with increments."""
    if not 0.0 <= t <= path.horizon:
        raise ContractError("t outside [0, horizon]")
    pos = _as_matrix_positions(realized, path.dim)
    clamped = np.minimum(realized.times, t)
    svals = path.eval(clamped)
    incr = np.diff(svals, axis=0)
    return float(np.sum(pos * incr))


def capital_curve(realized: RealizedStrategy, path: Path) -> CapitalCurve:
    """Capital evaluated on the merged grid of decision times and events."""
    _as_matrix_positions(realized, path.dim)  # rejects a strategy of another dimension
    finite = realized.times[np.isfinite(realized.times)]
    finite = finite[finite <= path.horizon]
    grid = np.unique(np.concatenate([path.times, finite, [path.horizon]]))
    svals = path.eval(grid)
    held = realized.position_after(grid[:-1])
    incr = np.diff(svals, axis=0)
    values = np.concatenate([[0.0], np.cumsum(np.sum(held * incr, axis=1))])
    return CapitalCurve(times=grid, values=values, mode=path.mode)


# ---------------------------------------------------------------------------
# Stopping times
# ---------------------------------------------------------------------------

def gamma_K(path: Path, K_bound: float) -> float:
    """First time the l2 norm of the path reaches K; ``inf`` if never."""
    if K_bound <= 0:
        raise ContractError("K must be > 0")
    norms = np.linalg.norm(path.values, axis=1)
    if path.mode == MODE_STEP:
        hits = np.flatnonzero(norms >= K_bound)
        return float(path.times[hits[0]]) if hits.size else SENTINEL
    if norms[0] >= K_bound:
        return 0.0
    k2 = K_bound * K_bound
    for e in range(path.n_events - 1):
        a = path.values[e]
        b = path.values[e + 1]
        dv = b - a
        c2 = float(dv @ dv)
        c1 = 2.0 * float(a @ dv)
        c0 = float(a @ a) - k2
        dt = path.times[e + 1] - path.times[e]
        if c2 == 0.0:
            if c1 > 0 and c0 + c1 >= 0:
                s = -c0 / c1
                if 0.0 <= s <= 1.0:
                    return float(path.times[e] + s * dt)
            continue
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            continue
        s = (-c1 + math.sqrt(disc)) / (2.0 * c2)
        if 0.0 <= s <= 1.0:
            return float(path.times[e] + s * dt)
    return SENTINEL


def rho_lambda(realized: RealizedStrategy, path: Path, lam: float) -> float:
    """First time the capital curve reaches ``-lam``; ``inf`` if never."""
    if lam <= 0:
        raise ContractError("lambda must be > 0")
    curve = capital_curve(realized, path)
    below = curve.values <= -lam
    if not np.any(below):
        return SENTINEL
    idx = int(np.argmax(below))
    if path.mode == MODE_STEP or idx == 0:
        return float(curve.times[idx])
    c0, c1 = curve.values[idx - 1], curve.values[idx]
    t0, t1 = curve.times[idx - 1], curve.times[idx]
    if c1 == c0:
        return float(t1)
    s = (-lam - c0) / (c1 - c0)
    return float(t0 + min(max(s, 0.0), 1.0) * (t1 - t0))


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityVerdict:
    ok: bool
    worst_capital: float
    budget: float
    rho: float = SENTINEL
    ok_bound: bool = True
    ok_stopping: bool = True


def _realize(rule_or_realized, path: Path) -> RealizedStrategy:
    if isinstance(rule_or_realized, StrategyRule):
        return rule_or_realized.realize(path)
    return rule_or_realized


def check_strong_admissibility(rule, paths, lam: float) -> list[AdmissibilityVerdict]:
    """Capital stays >= -lam on the merged grid of every supplied path.

    Grid checks are exact: capital is constant between grid times in step
    mode and affine in linear mode, so extrema sit on the grid.
    """
    if lam <= 0:
        raise ContractError("lambda must be > 0")
    verdicts = []
    for path in paths:
        curve = capital_curve(_realize(rule, path), path)
        worst = curve.minimum
        verdicts.append(AdmissibilityVerdict(ok=bool(worst >= -lam),
                                             worst_capital=worst, budget=lam))
    return verdicts


def check_weak_admissibility(rule, paths, lam: float) -> list[AdmissibilityVerdict]:
    """Relaxed bound ``-lam (1 + |S_rho| 1_{t >= rho})`` plus the stop-at-rho clause."""
    if lam <= 0:
        raise ContractError("lambda must be > 0")
    verdicts = []
    for path in paths:
        realized = _realize(rule, path)
        curve = capital_curve(realized, path)
        rho = rho_lambda(realized, path, lam)
        if np.isfinite(rho):
            s_rho = float(np.linalg.norm(path.eval(rho)))
            floor_after = -lam * (1.0 + s_rho)
            before = curve.times < rho
            ok_bound = bool(np.all(curve.values[before] >= -lam)
                            and np.all(curve.values[~before] >= floor_after))
            nonzero = np.any(realized.positions != 0.0, axis=1)
            ends = realized.times[1:][nonzero]
            ok_stopping = bool(np.all(ends <= rho))
            worst = curve.minimum
        else:
            ok_bound = bool(np.all(curve.values >= -lam))
            ok_stopping = True
            worst = curve.minimum
        verdicts.append(AdmissibilityVerdict(
            ok=ok_bound and ok_stopping, worst_capital=worst, budget=lam,
            rho=rho, ok_bound=ok_bound, ok_stopping=ok_stopping))
    return verdicts


# ---------------------------------------------------------------------------
# Buy-low / sell-high interval strategies and the dyadic aggregate
# ---------------------------------------------------------------------------

def _interval_trades(path: Path, a: float, b: float, gamma: float) -> list[tuple[float, float]]:
    """(time, new_position) changes of the one-interval strategy on a 1-d path.

    ``gamma`` is the path's ``gamma_K``, which the caller computes once for
    every interval it trades.

    Step mode: the strategy is long at an event before ``gamma_K`` when the
    long track of :func:`pathcalc._kernels._interval_tracks` is 0 there.

    Linear mode: a segment from ``(ta, va)`` to ``(tb, vb)`` moves one way,
    so a falling segment can only buy, at the fraction
    ``s = (a - va) / (vb - va)``, and a rising one only sell, at
    ``s = (b - va) / (vb - va)``, each at time ``ta + s (tb - ta)`` if
    ``0 <= s <= 1`` and that time is before ``gamma_K``.  After a trade the
    strategy waits for the other level, which needs the opposite direction,
    so a segment trades at most once.  Each segment therefore carries a
    fixed label (buy, sell or none), the state after a segment is the last
    label so far, and a segment trades when its label differs from the state
    before it.  The labels use ``s`` as computed: when rounding makes
    ``a - va`` equal to ``vb - va`` the segment buys at ``tb`` although
    ``vb > a`` (``Path([0, 1, 2], [2.0, 1e16, 0.5], mode="linear")`` buys at
    t = 2 for ``a = 0``, ``b = 1``).
    """
    t, v = path.times, path.values[:, 0]
    if path.mode == MODE_STEP:
        upto = int(np.searchsorted(t, gamma))  # events before gamma
        _, m = K._interval_tracks(v[:upto], np.array([a]), np.array([b]))
        held = m == 0
        trades = [(float(t[e]), float(held[e]))
                  for e in np.flatnonzero(np.diff(held, prepend=False))]
        long = bool(upto) and bool(held[-1])
    else:
        falls = v[1:] < v[:-1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = (np.where(falls, a, b) - v[:-1]) / (v[1:] - v[:-1])
            hit = t[:-1] + s * (t[1:] - t[:-1])
        seg = np.flatnonzero((v[1:] != v[:-1]) & (s >= 0.0) & (s <= 1.0) & (hit < gamma))
        start = float(v[0] <= a and 0.0 < gamma)
        state = np.concatenate(([start], falls[seg].astype(np.float64)))
        trades = [(0.0, 1.0)] if start else []
        trades += [(float(hit[seg[i]]), float(state[i + 1]))
                   for i in np.flatnonzero(state[1:] != state[:-1])]
        long = bool(state[-1])
    if long and np.isfinite(gamma) and gamma <= path.horizon:
        trades.append((gamma, 0.0))
    return trades


def _strategy_from_trades(trades) -> RealizedStrategy:
    times = [0.0]
    positions = []
    current = 0.0
    for t, new_pos in trades:
        if t > times[-1]:
            positions.append(current)
            times.append(t)
        current = new_pos
    positions.append(current)
    times.append(np.inf)
    return RealizedStrategy(times=np.array(times), positions=np.array(positions))


def doob_interval_strategy(a: float, b: float, K_bound: float, psi: PsiSpec) -> StrategyRule:
    """Buy one unit at the first time S <= a, sell at the next time S >= b.

    Trading repeats until the horizon or until ``gamma_K`` fires, whichever
    is first (an open position is closed at ``gamma_K``).  The realized
    capital dominates ``(b - a)`` per completed upcrossing against the budget
    ``a + K + psi(K)``.  A jump crossing both levels at one event triggers at
    most one action: the state machine processes buys only while flat.
    """
    if a >= b:
        raise ContractError("need a < b")

    def evaluate(path: Path) -> RealizedStrategy:
        if path.dim != 1:
            raise ContractError("interval strategies act on 1-d paths")
        return _strategy_from_trades(_interval_trades(path, a, b, gamma_K(path, K_bound)))

    return StrategyRule(kind="doob-interval",
                        params={"a": a, "b": b, "K": K_bound, "psi": psi.to_json()},
                        _evaluate=evaluate)


def doob_aggregate_bound_factor(n: int, K_bound: float, psi: PsiSpec) -> float:
    """``[2K (2K + psi(K))]^{-1} 2^{-2n}``, the crossing-count multiplier."""
    psi_k = float(psi(float(K_bound)))
    return 2.0 ** (-2 * n) / (2.0 * K_bound * (2.0 * K_bound + psi_k))


def doob_aggregate(n: int, K_bound: float, psi: PsiSpec) -> StrategyRule:
    """Weighted sum of interval strategies over the dyadic grid inside (-K, K).

    Weight ``[K 2^{n+1} (2K + psi(K))]^{-1}`` per interval; on paths with sup
    norm below K the capital dominates the bound factor times the accumulated
    upcrossing count at spacing ``2^{-n}``, and the whole portfolio is
    strongly 1-admissible.
    """
    if K_bound <= 0:
        raise ContractError("K must be > 0")
    if not 0 <= n <= 52:
        raise ContractError("n out of range")
    if not 2.0 * K_bound * 2.0 ** n <= MAX_CROSSING_INTERVALS:  # also rejects nan and inf
        raise ContractError(f"K = {K_bound} spans over {MAX_CROSSING_INTERVALS} intervals at n = {n}")
    spacing = 2.0 ** (-n)
    psi_k = float(psi(float(K_bound)))
    weight = 1.0 / (K_bound * 2.0 ** (n + 1) * (2.0 * K_bound + psi_k))
    klo = int(np.floor(-K_bound / spacing)) + 1
    khi = int(np.ceil(K_bound / spacing)) - 2

    def evaluate(path: Path) -> RealizedStrategy:
        if path.dim != 1:
            raise ContractError("the dyadic aggregate acts on 1-d paths")
        if khi < klo:
            return RealizedStrategy(times=np.array([0.0]), positions=np.zeros((0, 1)))
        if path.mode == MODE_STEP:
            norms = np.abs(path.values[:, 0])
            hits = np.flatnonzero(norms >= K_bound)
            gidx = int(hits[0]) if hits.size else path.n_events
            pos = K.doob_positions(np.ascontiguousarray(path.values[:, 0]),
                                   klo, khi, spacing, weight, gidx)
            times = np.append(path.times, np.inf)
            return RealizedStrategy(times=times, positions=pos)
        gamma = gamma_K(path, K_bound)
        trades = (_interval_trades(path, k * spacing, (k + 1) * spacing, gamma)
                  for k in range(klo, khi + 1))
        subs = [_strategy_from_trades(t) for t in trades]
        times = np.unique(np.concatenate([sub.times[:-1] for sub in subs]))
        pos = np.zeros((len(times), 1))
        for sub in subs:
            pos += sub.position_after(times) * weight
        return RealizedStrategy(times=np.append(times, np.inf), positions=pos)

    return StrategyRule(kind="doob-aggregate",
                        params={"n": n, "K": K_bound, "psi": psi.to_json()},
                        _evaluate=evaluate)


# ---------------------------------------------------------------------------
# Weak-to-strong lift
# ---------------------------------------------------------------------------

def lift_budget(lam: float, d: int, K_bound: float, psi: PsiSpec) -> float:
    """``lam (1 + 3 d K + 2 d psi(K))``: strong budget of the lifted strategy."""
    return lam * (1.0 + 3.0 * d * K_bound + 2.0 * d * float(psi(float(K_bound))))


def admissibility_lift(G: StrategyRule, lam: float, K_bound: float, psi: PsiSpec) -> StrategyRule:
    """Add ``lam`` units of every asset until ``rho_lam(G)`` and cut at ``gamma_K``.

    If G is weakly lam-admissible, the lift is strongly admissible with
    budget :func:`lift_budget` on paths bounded by K.
    """
    if lam <= 0:
        raise ContractError("lambda must be > 0")

    def evaluate(path: Path) -> RealizedStrategy:
        g_real = G.realize(path)
        d = path.dim
        rho = rho_lambda(g_real, path, lam)
        gamma = gamma_K(path, K_bound)
        cut = min(rho, gamma)
        times = np.concatenate([[0.0], g_real.times, [cut, gamma]])
        times = np.unique(times[times <= path.horizon])
        # position on (t, next]: both indicators are decided by t itself
        # because gamma and cut are breakpoints of the merged grid
        pos = np.zeros((len(times), d))
        before_gamma = times < gamma
        pos[before_gamma] += g_real.position_after(times[before_gamma])
        pos[times < cut] += lam
        return RealizedStrategy(times=np.append(times, np.inf), positions=pos)

    return StrategyRule(kind="lift",
                        params={"lambda": lam, "K": K_bound, "psi": psi.to_json(),
                                "of": G.kind},
                        _evaluate=evaluate)


# ---------------------------------------------------------------------------
# The compensated-Z strategy and its exact capital identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LStrategyReport:
    max_deviation: float
    tolerance: float
    budget: float
    gamma: float
    sigma: float


def l_strategy(path: Path, n: int, K_bound: int, psi: PsiSpec,
               tolerance: float = 1e-9) -> tuple[RealizedStrategy, LStrategyReport]:
    """Realize the compensated-Z strategy and verify its capital identity.

    Position ``-4 Z_{tau_k} (S_{tau_k} - S at the coarse projection)`` on each
    generation-n gap, truncated at ``gamma_K and sigma``.  The capital then
    reproduces the K process exactly:
    ``K^n at (gamma ^ sigma ^ t) = budget + capital_t`` for every t.  A
    deviation beyond tolerance raises :class:`InternalConsistencyError`.
    """
    if path.dim != 1:
        raise ContractError("the compensated-Z strategy acts on 1-d paths")
    if n < 2:
        raise ContractError("needs n >= 2 (a coarser generation must exist)")
    gamma = gamma_K(path, float(K_bound))
    # a finite sigma is a fine partition time, so the grid already holds it
    grid, v, z, sumsq, fine, fine_pos, coarse_pos = _z_data(
        path, n, [gamma] if np.isfinite(gamma) else [])
    sigma = _sigma_from_z(z, sumsq, fine, fine_pos, n, K_bound)
    cut = min(gamma, sigma)

    # realized positions on (tau_k, tau_{k+1} ^ cut]; both generations start
    # at grid position 0, so every fine point has a coarse projection chi
    chi_pos = coarse_pos[np.searchsorted(coarse_pos, fine_pos, side="right") - 1]
    h = -4.0 * z[fine_pos] * (v[fine_pos] - v[chi_pos])

    live = np.flatnonzero(fine.times < cut)  # a prefix of the partition indices
    if live.size == 0:
        realized = RealizedStrategy(times=np.array([0.0]), positions=np.zeros((0, 1)))
    else:
        t_out = fine.times[live]
        p_out = h[live]
        if np.isfinite(cut):
            t_out = np.concatenate([t_out, [cut, np.inf]])
            p_out = np.append(p_out, 0.0)
        else:
            t_out = np.append(t_out, np.inf)
        realized = RealizedStrategy(times=t_out, positions=p_out)

    budget = k_constant(n, K_bound, psi)
    curve = capital_curve(realized, path)
    cap_grid = curve.values_at(grid)
    k_vals = budget + z * z - sumsq
    if np.isfinite(cut):
        cut_idx = int(np.searchsorted(grid, cut))
        k_clamped = k_vals[np.minimum(np.arange(len(grid)), cut_idx)]
    else:
        k_clamped = k_vals
    worst = float(np.max(np.abs(k_clamped - (budget + cap_grid))))
    if worst > tolerance:
        raise InternalConsistencyError(
            f"K-process identity violated by {worst:.3e} (> {tolerance:.1e})")
    return realized, LStrategyReport(max_deviation=worst, tolerance=tolerance,
                                     budget=budget, gamma=gamma, sigma=sigma)


# ---------------------------------------------------------------------------
# Exponential supermartingale strategy
# ---------------------------------------------------------------------------

def hoeffding_beta(lam: float, c: float) -> float:
    """Fraction of capital held per unit increment on a step with bound c.

    Chord construction: ``exp(lam x - lam^2 c^2 / 2) <= 1 + beta x`` for
    ``|x| <= c`` because the chord of the convex exponential over ``[-c, c]``
    dominates it and ``cosh(lam c) <= exp(lam^2 c^2 / 2)``.
    """
    y = lam * c
    if y == 0.0 or c == 0.0:
        return 0.0
    return math.exp(-0.5 * y * y) * math.sinh(y) / c


def hoeffding_strategy(decision_times, c, lam: float) -> StrategyRule:
    """Multiplicative exponential-supermartingale strategy on given steps.

    On step k the portfolio holds ``V_k beta_k`` units, where ``V_k`` is the
    current capital (starting at 1) and ``beta_k`` comes from
    :func:`hoeffding_beta`; the per-step price increments must stay within
    ``c_k`` on the target paths for the guarantee to bind.
    """
    dt = np.asarray(decision_times, dtype=np.float64)
    if dt.ndim != 1 or dt.shape[0] == 0 or dt[0] != 0.0 or np.any(np.diff(dt) <= 0):
        raise ContractError("decision times must be increasing and start at 0")
    c_arr = np.broadcast_to(np.asarray(c, dtype=np.float64), dt.shape).copy()
    if np.any(c_arr < 0):
        raise ContractError("step bounds must be >= 0")
    betas = np.array([hoeffding_beta(lam, ck) for ck in c_arr])

    def evaluate(path: Path) -> RealizedStrategy:
        if path.dim != 1:
            raise ContractError("the supermartingale strategy acts on 1-d paths")
        s = path.eval(np.minimum(dt, path.horizon))[:, 0]
        wealth = np.cumprod(np.concatenate([[1.0], 1.0 + betas[:-1] * np.diff(s)]))
        return RealizedStrategy(times=np.append(dt, np.inf), positions=wealth * betas)

    return StrategyRule(kind="hoeffding",
                        params={"lambda": lam, "steps": len(dt)},
                        _evaluate=evaluate)


@dataclass(frozen=True)
class HoeffdingReport:
    ok: bool
    bound_respected: bool
    worst_margin: float        # min of (1 + capital) - envelope over the grid
    min_wealth: float


def hoeffding_check(path: Path, decision_times, c, lam: float) -> HoeffdingReport:
    """Verify ``1 + (H.S)_t >= exp(lam M_t - lam^2/2 sum_{started steps} c_k^2)``.

    ``M_t = S_t - S_0``.  Also reports whether the per-step increment bounds
    actually held on this path (the guarantee is void otherwise).
    """
    rule = hoeffding_strategy(decision_times, c, lam)
    realized = rule.realize(path)
    curve = capital_curve(realized, path)
    dt = np.asarray(decision_times, dtype=np.float64)
    c_arr = np.broadcast_to(np.asarray(c, dtype=np.float64), dt.shape)
    s0 = float(path.values[0, 0])

    s_grid = path.eval(curve.times)[:, 0]
    # map each grid time into the step whose gap (d_k, d_{k+1}] contains it,
    # so the step-endpoint increments |S_{d_{k+1}} - S_{d_k}| are checked too
    step_of = np.clip(np.searchsorted(dt, curve.times, side="left") - 1, 0, len(dt) - 1)
    s_at_step = path.eval(np.minimum(dt, path.horizon))[:, 0]
    incr = np.abs(s_grid - s_at_step[step_of])
    bound_respected = bool(np.all(incr <= c_arr[step_of] + 1e-12))

    penalties = np.concatenate([[0.0], np.cumsum(c_arr ** 2)])
    started = np.searchsorted(dt, curve.times, side="right")
    envelope = np.exp(lam * (s_grid - s0) - 0.5 * lam * lam * penalties[started])
    wealth = 1.0 + curve.values
    margin = wealth - envelope
    worst = float(np.min(margin))
    ok = bool(worst >= -1e-10 and np.all(wealth >= -1e-12))
    return HoeffdingReport(ok=ok and bound_respected, bound_respected=bound_respected,
                           worst_margin=worst, min_wealth=float(np.min(wealth)))


# ---------------------------------------------------------------------------
# Deterministic sequence inequality with explicit weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BdgResult:
    lhs: float
    rhs: float
    holds: bool


def bdg_weights(x) -> np.ndarray:
    """Weights ``h_k = x_k / sqrt([x]_k + (x*_k)^2)`` with 0/0 := 0."""
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if x.ndim != 1 or x.shape[0] == 0:
        raise ContractError("need a non-empty 1-d sequence")
    return K.bdg_weights(x)


def bdg_check(x) -> BdgResult:
    """Verify ``max_k |x_k| <= 6 sqrt([x]_n) + 2 (h.x)_n`` for one sequence.

    Holds for every real sequence; a ``False`` signals an implementation bug.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if x.ndim != 1 or x.shape[0] == 0:
        raise ContractError("need a non-empty 1-d sequence")
    xstar, qv, hx = K.bdg_core(x)
    lhs = float(xstar)
    rhs = float(6.0 * np.sqrt(qv) + 2.0 * hx)
    return BdgResult(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-9 * max(1.0, abs(rhs))))


def bdg_check_batch(sequences) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) arrays for many sequences at once (flat kernel call)."""
    lengths = [len(s) for s in sequences]
    if any(m == 0 for m in lengths):
        raise ContractError("sequences must be non-empty")
    flat = np.concatenate([np.asarray(s, dtype=np.float64) for s in sequences])
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return K.bdg_batch(np.ascontiguousarray(flat), offsets)
