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

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels as K
from .errors import ContractError, InternalConsistencyError
from .partitions import MAX_CROSSING_INTERVALS, MAX_GENERATION, SENTINEL
from .paths import MODE_LINEAR, MODE_STEP, Path, PsiSpec, _held_table, _scalar
from .qv import _sigma_from_z, _z_at, _z_data, k_constant

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
    """Decision times and the positions held on the half-open gaps between them.

    The table is :func:`pathcalc.paths._held_table`'s with one row per gap,
    so the last time may be ``inf``.
    """

    times: np.ndarray     # (N+1,), strictly increasing, times[0] = 0, last may be inf
    positions: np.ndarray  # (N, d)

    def __post_init__(self):
        times, positions = _held_table(self.times, self.positions, 1, "strategy")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def position_after(self, ts) -> np.ndarray:
        """Positions held on ``(t, next decision time]`` for each t of the 1-d ``ts``.

        Shape ``(len(ts), dim)``; zero before time 0 and after the last
        decision time: one search indexes the positions padded with a zero
        row at each end.
        """
        padded = np.zeros((self.positions.shape[0] + 2, self.dim))
        padded[1:-1] = self.positions
        return padded[self.times.searchsorted(ts, side="right")]


@dataclass(frozen=True)
class StrategyRule:
    """Deterministic map from a path to a realized strategy."""

    _evaluate: Callable[[Path], RealizedStrategy] = field(repr=False)

    def realize(self, path: Path) -> RealizedStrategy:
        return self._evaluate(path)


@dataclass(frozen=True)
class CapitalCurve:
    """Capital at every merged grid time; between grid times it moves only
    through the price (constant in step mode, affine in linear mode).

    ``times`` and ``values`` are read-only: a curve may share its path's
    read-only event table as ``times``, and ``values`` is frozen with it so
    that both arrays behave alike on every curve.
    """

    times: np.ndarray
    values: np.ndarray
    mode: str = MODE_STEP

    def __post_init__(self):
        self.times.setflags(write=False)
        self.values.setflags(write=False)

    def value_at(self, t: float) -> float:
        return float(self.values_at(t))

    def values_at(self, ts) -> np.ndarray:
        """Capital at each of ``ts``, which must lie in ``[times[0], times[-1]]``.

        Given the curve's own ``times`` array it returns ``values`` itself,
        with no search.
        """
        if ts is self.times:
            return self.values
        ts = np.asarray(ts, dtype=np.float64)
        if not np.all((ts >= self.times[0]) & (ts <= self.times[-1])):  # NaN fails too
            raise ContractError("capital read outside the curve's time range")
        if self.mode == MODE_LINEAR:
            return np.interp(ts, self.times, self.values)
        return self.values[self.times.searchsorted(ts, side="right") - 1]

    @property
    def minimum(self) -> float:
        return float(np.min(self.values))


def capital(realized: RealizedStrategy, path: Path, t: float) -> float:
    """``(H.S)_t``: ``capital_curve(realized, path).value_at(t)``, its one computation."""
    return capital_curve(realized, path).value_at(t)


def capital_curve(realized: RealizedStrategy, path: Path) -> CapitalCurve:
    """Capital evaluated on the merged grid of events, decision times and the horizon.

    When the horizon and every decision time up to it are event times, as
    for the step-path strategies built here, the merged grid is the event
    table: the curve takes ``path.times`` and ``path.values`` as they are,
    with no merge and no evaluation.  Membership is one search, made only
    when there are at most ``path.n_events`` decision times, since more
    distinct times cannot all be events.
    """
    if realized.positions.size and realized.positions.shape[1] != path.dim:
        raise ContractError(f"strategy dim {realized.positions.shape[1]} != path dim {path.dim}")
    decided = realized.times[realized.times <= path.horizon]  # drops a last time of inf
    grid, svals = path.times, path.values
    if not (path.horizon == grid[-1] and decided.shape[0] <= path.n_events
            and (grid[grid.searchsorted(decided)] == decided).all()):
        grid = np.unique(np.concatenate([path.times, decided, [path.horizon]]))
        svals = path.eval(grid)
    held = realized.position_after(grid[:-1])
    values = np.zeros(grid.shape[0])
    np.cumsum((held * (svals[1:] - svals[:-1])).sum(axis=1), out=values[1:])
    return CapitalCurve(times=grid, values=values, mode=path.mode)


# ---------------------------------------------------------------------------
# Stopping times
# ---------------------------------------------------------------------------

def gamma_K(path: Path, K_bound: float) -> float:
    """First time the l2 norm of the path reaches K; ``inf`` if never.

    It is kept in the path's memo under ``("gamma", K)``.
    """
    K_bound = _scalar(K_bound, "K", 0, open_lo=True)
    return path._memo(("gamma", K_bound), lambda: _gamma_K(path, K_bound))


def _gamma_K(path: Path, K_bound: float) -> float:
    norms = K.row_norms(path.values)
    if path.mode == MODE_STEP:
        hits = np.flatnonzero(norms >= K_bound)
        return float(path.times[hits[0]]) if hits.size else SENTINEL
    if norms[0] >= K_bound:
        return 0.0
    # segment e reaches K at the fraction s of the root of c2 s^2 + c1 s + c0;
    # a batched matmul takes each dot product as the per-segment ``x @ y`` does
    a = path.values[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dv = path.values[1:] - a
        c2 = (dv[:, None, :] @ dv[:, :, None])[:, 0, 0]
        c1 = 2.0 * (a[:, None, :] @ dv[:, :, None])[:, 0, 0]
        c0 = (a[:, None, :] @ a[:, :, None])[:, 0, 0] - K_bound * K_bound
        disc = c1 * c1 - 4.0 * c2 * c0
        s = np.where(c2 == 0.0, np.where((c1 > 0) & (c0 + c1 >= 0), -c0 / c1, np.nan),
                     np.where(disc >= 0, (-c1 + np.sqrt(disc)) / (2.0 * c2), np.nan))
    hits = np.flatnonzero((s >= 0.0) & (s <= 1.0))
    if not hits.size:
        return SENTINEL
    e = hits[0]
    return float(path.times[e] + s[e] * (path.times[e + 1] - path.times[e]))


def _first_hit(curve: CapitalCurve, lam: float) -> float:
    """First time ``curve`` reaches ``-lam``; ``inf`` if never."""
    below = curve.values <= -lam
    if not np.any(below):
        return SENTINEL
    idx = int(np.argmax(below))
    if curve.mode == MODE_STEP or idx == 0:
        return float(curve.times[idx])
    c0, c1 = curve.values[idx - 1], curve.values[idx]
    t0, t1 = curve.times[idx - 1], curve.times[idx]
    s = (-lam - c0) / (c1 - c0)
    return float(t0 + min(max(s, 0.0), 1.0) * (t1 - t0))


def rho_lambda(realized: RealizedStrategy, path: Path, lam: float) -> float:
    """First time the capital curve reaches ``-lam``; ``inf`` if never."""
    lam = _scalar(lam, "lambda", 0, open_lo=True)
    return _first_hit(capital_curve(realized, path), lam)


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
    lam = _scalar(lam, "lambda", 0, open_lo=True)
    verdicts = []
    for path in paths:
        curve = capital_curve(_realize(rule, path), path)
        worst = curve.minimum
        verdicts.append(AdmissibilityVerdict(ok=bool(worst >= -lam),
                                             worst_capital=worst, budget=lam))
    return verdicts


def check_weak_admissibility(rule, paths, lam: float) -> list[AdmissibilityVerdict]:
    """Relaxed bound ``-lam (1 + |S_rho| 1_{t >= rho})`` plus the stop-at-rho clause."""
    lam = _scalar(lam, "lambda", 0, open_lo=True)
    verdicts = []
    for path in paths:
        realized = _realize(rule, path)
        curve = capital_curve(realized, path)
        rho = _first_hit(curve, lam)
        before = curve.times < rho
        ok_bound = bool(np.all(curve.values[before] >= -lam))
        ok_stopping = True
        if np.isfinite(rho):
            floor_after = -lam * (1.0 + float(K.row_norms(path.eval([rho]))[0]))
            ok_bound = ok_bound and bool(np.all(curve.values[~before] >= floor_after))
            nonzero = np.any(realized.positions != 0.0, axis=1)
            ok_stopping = bool(np.all(realized.times[1:][nonzero] <= rho))
        verdicts.append(AdmissibilityVerdict(
            ok=ok_bound and ok_stopping, worst_capital=curve.minimum, budget=lam,
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
        _, m = K._interval_tracks(v[:upto], a, b)
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


def doob_interval_strategy(a: float, b: float, K_bound: float) -> StrategyRule:
    """Buy one unit at the first time S <= a, sell at the next time S >= b.

    Trading repeats until the horizon or until ``gamma_K`` fires, whichever
    is first (an open position is closed at ``gamma_K``).  The realized
    capital dominates ``(b - a)`` per completed upcrossing against the budget
    ``a + K + psi(K)``.  A jump crossing both levels at one event triggers at
    most one action: the state machine processes buys only while flat.
    """
    a, b, K_bound = _scalar(a, "a"), _scalar(b, "b"), _scalar(K_bound, "K", 0, open_lo=True)
    if not a < b:
        raise ContractError("need a < b")

    def evaluate(path: Path) -> RealizedStrategy:
        if path.dim != 1:
            raise ContractError("interval strategies act on 1-d paths")
        return _strategy_from_trades(_interval_trades(path, a, b, gamma_K(path, K_bound)))

    return StrategyRule(evaluate)


def doob_aggregate_bound_factor(n: int, K_bound: float, psi: PsiSpec) -> float:
    """``[2K (2K + psi(K))]^{-1} 2^{-2n}``, the crossing-count multiplier."""
    n = _scalar(n, "n", 0, MAX_GENERATION, integer=True)
    K_bound = _scalar(K_bound, "K", 0, open_lo=True)
    budget = 2.0 * K_bound * (2.0 * K_bound + float(psi(K_bound)))  # subnormal: factor overflows
    return 2.0 ** (-2 * n) / _scalar(budget, "the budget 2K (2K + psi(K))",
                                     np.finfo(np.float64).tiny, math.inf)


def doob_aggregate(n: int, K_bound: float, psi: PsiSpec) -> StrategyRule:
    """Weighted sum of interval strategies over the dyadic grid inside (-K, K).

    Weight ``[K 2^{n+1} (2K + psi(K))]^{-1}`` per interval; on paths with sup
    norm below K the capital dominates the bound factor times the accumulated
    upcrossing count at spacing ``2^{-n}``, and the whole portfolio is
    strongly 1-admissible.
    """
    n = _scalar(n, "n", 0, MAX_GENERATION, integer=True)
    K_bound = _scalar(K_bound, "K", 0, open_lo=True)
    if not 2.0 * K_bound * 2.0 ** n <= MAX_CROSSING_INTERVALS:
        raise ContractError(f"K = {K_bound} spans over {MAX_CROSSING_INTERVALS} intervals at n = {n}")
    spacing = 2.0 ** (-n)
    weight = doob_aggregate_bound_factor(0, K_bound, psi) * 2.0 ** -n
    klo = int(np.floor(-K_bound / spacing)) + 1
    khi = int(np.ceil(K_bound / spacing)) - 2

    def evaluate(path: Path) -> RealizedStrategy:
        if path.dim != 1:
            raise ContractError("the dyadic aggregate acts on 1-d paths")
        if khi < klo:
            return RealizedStrategy(times=np.array([0.0]), positions=np.zeros((0, 1)))
        if path.mode == MODE_STEP:
            gidx = int(np.searchsorted(path.times, gamma_K(path, K_bound)))
            pos = K.doob_positions(path.values[:, 0], klo, khi, spacing, weight, gidx)
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

    return StrategyRule(evaluate)


# ---------------------------------------------------------------------------
# Weak-to-strong lift
# ---------------------------------------------------------------------------

def lift_budget(lam: float, d: int, K_bound: float, psi: PsiSpec) -> float:
    """``lam (1 + 3 d K + 2 d psi(K))``: strong budget of the lifted strategy, finite."""
    lam, d = _scalar(lam, "lambda", 0, open_lo=True), _scalar(d, "d", 1, integer=True)
    K_bound = _scalar(K_bound, "K", 0, open_lo=True)
    return _scalar(lam * (1.0 + 3.0 * d * K_bound + 2.0 * d * float(psi(K_bound))),
                   f"the lift budget of lambda {lam!r} at K = {K_bound}")


def admissibility_lift(G: StrategyRule, lam: float, K_bound: float) -> StrategyRule:
    """Add ``lam`` units of every asset until ``rho_lam(G)`` and cut at ``gamma_K``.

    If G is weakly lam-admissible, the lift is strongly admissible with
    budget :func:`lift_budget` on paths bounded by K.
    """
    lam, K_bound = _scalar(lam, "lambda", 0, open_lo=True), _scalar(K_bound, "K", 0, open_lo=True)

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

    return StrategyRule(evaluate)


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


def _z_capital(path: Path, n: int, zd) -> np.ndarray:
    """Capital of the uncut compensated-Z strategy of generation n on its Z record's grid.

    The strategy holds h on every generation-n gap; its capital is
    :func:`capital_curve`'s, read on ``zd.grid`` and kept read-only in the
    path's memo under ``("z-capital", n)``.  A cut strategy holds the same
    positions before its cut and zero after it, so its capital is this curve
    up to the cut and the curve's value at the cut after it: each later term
    of the running sum is a zero position times a finite increment.
    """
    def build() -> np.ndarray:
        uncut = RealizedStrategy(times=np.append(zd.fine_times, np.inf), positions=zd.h)
        values = capital_curve(uncut, path).values_at(zd.grid)
        values.setflags(write=False)
        return values

    return path._memo(("z-capital", n), build)


def l_strategy(path: Path, n: int, K_bound: int, psi: PsiSpec,
               tolerance: float = 1e-9) -> tuple[RealizedStrategy, LStrategyReport]:
    """Realize the compensated-Z strategy and verify its capital identity.

    Position ``-4 Z_{tau_k} (S_{tau_k} - S at the coarse projection)`` on each
    generation-n gap, truncated at ``gamma_K and sigma``.  The capital then
    reproduces the K process exactly:
    ``K^n at (gamma ^ sigma ^ t) = budget + capital_t`` for every t.  A
    deviation beyond tolerance raises :class:`InternalConsistencyError` naming
    the time of the worst one.

    K enters only through the cut, so the capital is the generation's uncut
    one (:func:`_z_capital`) on its Z record's grid, and grid times from the
    cut on take the deviation at the cut.  An off-grid cut reads K there from
    :func:`pathcalc.qv._z_at` and the capital one price step past the uncut one.
    """
    n = _scalar(n, "n", 2, MAX_GENERATION, integer=True)  # a coarser generation must exist
    K_bound = _scalar(K_bound, "K", 1, integer=True)
    tolerance = _scalar(tolerance, "tolerance", 0, math.inf)
    if path.dim != 1:
        raise ContractError("the compensated-Z strategy acts on 1-d paths")
    gamma = gamma_K(path, K_bound)
    zd = _z_data(path, n)
    grid = zd.grid
    sigma = _sigma_from_z(zd, K_bound)
    cut = min(gamma, sigma)

    # realized positions h on (tau_k, tau_{k+1} ^ cut], k below n_live
    n_live = int(zd.fine_times.searchsorted(cut))
    if n_live == 0:
        realized = RealizedStrategy(times=np.array([0.0]), positions=np.zeros((0, 1)))
    else:
        t_out = zd.fine_times[:n_live]
        p_out = zd.h[:n_live]
        if math.isfinite(cut):
            t_out = np.concatenate([t_out, [cut, np.inf]])
            p_out = np.append(p_out, 0.0)
        else:
            t_out = np.append(t_out, np.inf)
        realized = RealizedStrategy(times=t_out, positions=p_out)

    budget = k_constant(n, K_bound, psi)
    deviation = np.abs(budget + zd.z * zd.z - zd.comp - (budget + _z_capital(path, n, zd)))
    cut_idx = int(grid.searchsorted(cut))  # K and the capital stop at the cut: so does the check
    if cut_idx < grid.shape[0] and grid[cut_idx] == cut:
        deviation = deviation[:cut_idx + 1]
    elif math.isfinite(cut):  # the last step of capital_curve's running sum, to the cut
        z, comp = _z_at(path, n, cut)
        s_prev, s_cut = path.eval([grid[cut_idx - 1], cut])[:, 0]
        cap = _z_capital(path, n, zd)[cut_idx - 1] + realized.positions[-2, 0] * (s_cut - s_prev)
        deviation = np.append(deviation[:cut_idx], abs(budget + z * z - comp - (budget + cap)))
    worst = float(deviation.max())
    if worst > tolerance:
        i = int(deviation.argmax())
        raise InternalConsistencyError(f"K-process identity violated by {worst:.3e} (> "
                                       f"{tolerance:.1e}) at t {cut if i == cut_idx else grid[i]}")
    return realized, LStrategyReport(max_deviation=worst, tolerance=tolerance,
                                     budget=budget, gamma=gamma, sigma=sigma)


# ---------------------------------------------------------------------------
# Exponential supermartingale strategy
# ---------------------------------------------------------------------------

def hoeffding_beta(lam: float, c: float) -> float:
    """Fraction of capital held per unit increment on a step with bound c.

    Chord construction: ``exp(lam x - lam^2 c^2 / 2) <= 1 + beta x`` for
    ``|x| <= c`` because the chord of the convex exponential over ``[-c, c]``
    dominates it and ``cosh(lam c) <= exp(lam^2 c^2 / 2)``.  From ``|lam c| = 38.6`` on,
    ``exp(-lam^2 c^2 / 2)`` is 0 in float64, so beta is 0 there.
    """
    lam, c = _scalar(lam, "lambda"), _scalar(c, "c", 0)
    y = lam * c
    if y == 0.0 or c == 0.0 or not abs(y) < 40.0:
        return 0.0
    return math.exp(-0.5 * y * y) * math.sinh(y) / c


def _decision_table(decision_times, c) -> tuple[np.ndarray, np.ndarray]:
    """The checked decision times of the supermartingale strategy and the bound ``c_k`` on
    each step's increment, a scalar ``c`` bounding every step: a read-only :func:`_held_table`,
    so a float64 array passed in is frozen."""
    times, c = np.asarray(decision_times, dtype=np.float64), np.asarray(c, dtype=np.float64)
    if c.ndim > 1:
        raise ContractError(f"c must be a scalar or 1-d, got shape {c.shape}")
    times, c = _held_table(times, np.broadcast_to(c, times.shape) if c.ndim == 0 else c, 0,
                           "step-bound")
    return times, c[:, 0]


def _hoeffding(dt: np.ndarray, c: np.ndarray, lam: float):
    """:func:`hoeffding_strategy`'s map on a checked table, also giving S at each decision time."""
    betas = np.array([hoeffding_beta(lam, ck) for ck in c.tolist()])

    def evaluate(path: Path) -> tuple[RealizedStrategy, np.ndarray]:
        if path.dim != 1:
            raise ContractError("the supermartingale strategy acts on 1-d paths")
        s = path.eval(np.minimum(dt, path.horizon))[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            wealth = np.cumprod(np.concatenate([[1.0], 1.0 + betas[:-1] * np.diff(s)]))
            positions = wealth * betas
        if not np.isfinite(positions).all():
            raise ContractError(f"the wealth of lambda {lam!r} on this path is beyond float64")
        return RealizedStrategy(times=np.append(dt, np.inf), positions=positions), s

    return evaluate


def hoeffding_strategy(decision_times, c, lam: float) -> StrategyRule:
    """Multiplicative exponential-supermartingale strategy on given steps.

    On step k the portfolio holds ``V_k beta_k`` units, where ``V_k`` is the
    current capital (starting at 1) and ``beta_k`` comes from
    :func:`hoeffding_beta`; the per-step price increments must stay within
    ``c_k`` on the target paths for the guarantee to bind.
    """
    evaluate = _hoeffding(*_decision_table(decision_times, c), lam)
    return StrategyRule(lambda path: evaluate(path)[0])


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
    dt, c_arr = _decision_table(decision_times, c)
    realized, s_at_step = _hoeffding(dt, c_arr, lam)(path)
    curve = capital_curve(realized, path)
    s_grid = path.eval(curve.times)[:, 0]  # from time 0, where S is S_0
    # map each grid time into the step whose gap (d_k, d_{k+1}] contains it,
    # so the step-endpoint increments |S_{d_{k+1}} - S_{d_k}| are checked too
    step_of = np.clip(np.searchsorted(dt, curve.times, side="left") - 1, 0, len(dt) - 1)
    incr = np.abs(s_grid - s_at_step[step_of])
    bound_respected = bool(np.all(incr <= c_arr[step_of] + 1e-12))

    started = np.searchsorted(dt, curve.times, side="right")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        penalties = np.concatenate([[0.0], np.cumsum(c_arr ** 2)])
        exponent = lam * (s_grid - s_grid[0]) - 0.5 * lam * lam * penalties[started]
    if not (exponent < 709.78).all():  # exp(709.79) is beyond float64; NaN fails too
        raise ContractError(f"the envelope of lambda {lam!r} and these bounds is beyond float64")
    envelope = np.exp(exponent)
    wealth = 1.0 + curve.values
    worst = float(np.min(wealth - envelope))
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


def _sequence(x) -> np.ndarray:
    """``x`` as a sequence of the transform bound: a non-empty 1-d float64 array of finite values
    whose squares sum in float64 (``m`` terms sum to at most ``4 m max|x|^2``)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] == 0 or not (
            np.abs(x).max() <= math.sqrt(np.finfo(np.float64).max / (4 * x.shape[0]))):
        raise ContractError("need a non-empty 1-d sequence of finite values, squares in float64")
    return x


def bdg_weights(x) -> np.ndarray:
    """Weights ``h_k = x_k / sqrt([x]_k + (x*_k)^2)`` with 0/0 := 0."""
    return K.bdg_weights(_sequence(x))


def _bdg_slack(lhs, rhs):
    """``rhs + 1e-9 max(1, |rhs|) - lhs``: the transform bound holds where it is not negative."""
    return rhs + 1e-9 * np.maximum(1.0, np.abs(rhs)) - lhs


def bdg_check(x) -> BdgResult:
    """Verify ``max_k |x_k| <= 6 sqrt([x]_n) + 2 (h.x)_n`` for one sequence, by the batch.

    Holds for every finite sequence; a ``False`` signals an implementation bug.
    """
    (lhs,), (rhs,) = bdg_check_batch([x])
    return BdgResult(lhs=float(lhs), rhs=float(rhs), holds=bool(_bdg_slack(lhs, rhs) >= 0.0))


def bdg_check_batch(sequences) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) arrays for many sequences at once (one kernel call)."""
    return K.bdg_batch([_sequence(s) for s in sequences])
