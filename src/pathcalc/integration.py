"""Step-function integration, the quadratic compensator, metrics and bounds.

The integral of a step integrand is an exact finite sum, shared with the
strategy capital machinery.  The compensator ``int F^(x2) d[S]`` is realized
as the discrete quadratic variation of the integral process along the union
of the integrand's jump times and the generation-n crossing times: because F
is constant on each union cell, the cell increment of ``(F.S)`` equals
``F . (S increment)`` and the quadratic form collapses to its square.

Expectations of the outer-measure metrics are uncomputable suprema over
hedging strategies; every metric value returned here is an empirical mean
over a declared path ensemble and therefore a lower-bound estimate (any
probability measure that makes the coordinate process a local martingale is
dominated by the superhedging functional).  Infinite localized sums are
truncated with the geometric tail reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, InternalConsistencyError
from .partitions import LebesguePartition, lebesgue_partition_nd, partition_ladder
from .paths import Path, PsiSpec
from .qv import qv_limit
from .strategies import CapitalCurve, RealizedStrategy, bdg_weights, capital_curve

__all__ = [
    "StepIntegrand", "MetricEstimate", "PathStats",
    "integrate_step", "integral_curve", "integrate_f2_dqv",
    "approximate_caglad", "ito_integral", "ItoIntegralReport",
    "prepare_ensemble", "metric",
    "concentration_check_continuous", "ConcentrationReport",
    "bdg_bound_check_cadlag", "BdgBoundReport",
    "continuity_experiment", "ContinuityReport",
]

METRIC_NAMES = ("d_inf", "d_QV", "d_QV_loc", "d_inf_loc", "d_inf_bM", "d_inf_psi")

ARBITRAGE_NOTE = ("non-convergence of the approximating integrals is reported data: "
                  "on such a path the construction yields unbounded profit with "
                  "bounded risk rather than an integral")


@dataclass(frozen=True)
class StepIntegrand:
    """Piecewise-constant integrand: ``values[i]`` held on ``(times[i], times[i+1]]``.

    The last value is held up to the horizon; ``value_at_zero`` is the value
    at t = 0 itself, which never enters integrals.
    """

    times: np.ndarray
    values: np.ndarray
    value_at_zero: np.ndarray | None = None

    def __post_init__(self):
        times = np.ascontiguousarray(np.asarray(self.times, dtype=np.float64))
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        values = np.ascontiguousarray(values)
        if times.ndim != 1 or times.shape[0] == 0 or times[0] != 0.0:
            raise ContractError("integrand times must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ContractError("integrand times must be strictly increasing")
        if values.shape[0] != times.shape[0]:
            raise ContractError("one value per jump time required")
        if not np.all(np.isfinite(values)):
            raise ContractError("integrand values must be finite")
        z = self.value_at_zero
        if z is not None:
            z = np.ascontiguousarray(np.asarray(z, dtype=np.float64).reshape(-1))
            z.flags.writeable = False
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "value_at_zero", z)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def value_after(self, t) -> np.ndarray:
        """Value held just to the right of t (i.e. on the cell (t, next])."""
        idx = np.maximum(np.searchsorted(self.times, t, side="right") - 1, 0)
        return self.values[idx]

    def sup_norm(self) -> float:
        norms = np.linalg.norm(self.values, axis=1)
        if self.value_at_zero is not None:
            norms = np.append(norms, np.linalg.norm(self.value_at_zero))
        return float(np.max(norms))

    def as_strategy(self) -> RealizedStrategy:
        return RealizedStrategy(times=np.append(self.times, np.inf), positions=self.values)


def constant_integrand(value, d: int = 1) -> StepIntegrand:
    vec = np.broadcast_to(np.asarray(value, dtype=np.float64), (d,))
    return StepIntegrand(times=[0.0], values=[vec], value_at_zero=vec)


def difference_integrand(F: StepIntegrand, G: StepIntegrand) -> StepIntegrand:
    times = np.unique(np.concatenate([F.times, G.times]))
    vals = F.value_after(times) - G.value_after(times)
    z = None
    if F.value_at_zero is not None or G.value_at_zero is not None:
        zf = F.value_at_zero if F.value_at_zero is not None else np.zeros(F.dim)
        zg = G.value_at_zero if G.value_at_zero is not None else np.zeros(G.dim)
        z = zf - zg
    return StepIntegrand(times=times, values=vals, value_at_zero=z)


def integrate_step(F: StepIntegrand, path: Path, t: float) -> float:
    """``(F.S)_t``: exact sum of values dotted with price increments."""
    from .strategies import capital
    return capital(F.as_strategy(), path, t)


def integral_curve(F: StepIntegrand, path: Path) -> CapitalCurve:
    return capital_curve(F.as_strategy(), path)


# ---------------------------------------------------------------------------
# Quadratic compensator
# ---------------------------------------------------------------------------

def _union_grid(path: Path, F: StepIntegrand, part_times: np.ndarray) -> np.ndarray:
    return np.unique(np.concatenate([F.times, part_times, [path.horizon]]))


def _compensator_terminal(F: StepIntegrand, curve: CapitalCurve, path: Path,
                          part_times: np.ndarray) -> float:
    """Squared increments of ``curve``, F's integral, summed along F's and the partition's times."""
    x = curve.values_at(_union_grid(path, F, part_times))
    return float(np.sum(np.diff(x) ** 2))


@dataclass(frozen=True, eq=False)
class CompensatorReport:
    times: np.ndarray
    values: np.ndarray
    terminal: float
    per_generation: np.ndarray   # terminal value per generation 1..n_max
    cauchy_gap: float            # |terminal_n_max - terminal_{n_max-1}|
    converged: bool


def integrate_f2_dqv(F: StepIntegrand, path: Path, n_max: int,
                     tol: float = 1e-6) -> CompensatorReport:
    """``int_0^t F^(x2) d[S]`` along the finest generation, with diagnostics.

    The curve is the running sum of squared cell increments of ``(F.S)``
    along the union of F's jump times and the generation-``n_max`` crossing
    times; per-generation terminals supply the Cauchy diagnostic.
    """
    from . import _kernels as K
    parts, _, _ = partition_ladder(path, n_max)
    rho = _union_grid(path, F, parts[-1].times)
    grid = np.unique(np.concatenate([rho, path.times]))
    integral = integral_curve(F, path)
    x = np.ascontiguousarray(integral.values_at(grid))
    curve = K.qv_on_grid(x[:, None], np.searchsorted(grid, rho))[0]
    terminals = np.array([_compensator_terminal(F, integral, path, part.times)
                          for part in parts[:-1]] + [curve[-1]])
    gap = float(abs(terminals[-1] - terminals[-2])) if n_max >= 2 else float("nan")
    return CompensatorReport(times=grid, values=curve, terminal=float(terminals[-1]),
                             per_generation=terminals, cauchy_gap=gap,
                             converged=bool(n_max >= 2 and gap < tol))


# ---------------------------------------------------------------------------
# Left-point sampling of non-anticipating integrands and the limit integral
# ---------------------------------------------------------------------------

def _sample(rule: Callable[[Path, np.ndarray], np.ndarray], path: Path,
            times: np.ndarray) -> StepIntegrand:
    """The step integrand holding ``rule(path, times)[k]`` on ``(times[k], times[k+1]]``."""
    vals = np.empty((len(times), path.dim))
    vals[...] = rule(path, times)
    return StepIntegrand(times=times, values=vals, value_at_zero=vals[0])


def approximate_caglad(rule: Callable[[Path, np.ndarray], np.ndarray], path: Path,
                       n: int) -> StepIntegrand:
    """Sample a non-anticipating rule at generation-n crossing times.

    ``rule(path, times)`` gets the float64 array of the generation's times
    and returns, for each time t, the information available at t (for the
    left-continuous integrand ``t -> S_{t-}`` that is the current value
    ``S_t``, so ``lambda p, t: p.eval(t)``).  The result must broadcast to
    ``(len(times), d)``: a scalar or a ``(d,)`` vector is held at every
    time.  The step approximation holds the value at ``tau_k`` on
    ``(tau_k, tau_{k+1}]``, which converges to the left-continuous process
    as generations refine.
    """
    return _sample(rule, path, lebesgue_partition_nd(path, n).times)


@dataclass(frozen=True, eq=False)
class ItoIntegralReport:
    curve: CapitalCurve
    generation_gaps: np.ndarray      # sup |I^n - I^{n-1}| for n = 2..n_max
    converged: bool
    tol: float
    note: str = ARBITRAGE_NOTE
    partition: LebesguePartition | None = None  # generation n_max, sampled last

    @property
    def terminal(self) -> float:
        return float(self.curve.values[-1])


def ito_integral(rule: Callable[[Path, np.ndarray], np.ndarray], path: Path,
                 n_max: int, tol: float = 1e-6) -> ItoIntegralReport:
    """Integrate successive step approximations; the last curve is the estimate.

    ``rule(path, times)`` is called once per generation n = 1..n_max with
    the float64 array of that generation's crossing times and returns values
    that broadcast to ``(len(times), d)``, as in :func:`approximate_caglad`.
    """
    parts, grid, _ = partition_ladder(path, n_max)
    prev_vals = None
    gaps = []
    for part in parts:
        vals = integral_curve(_sample(rule, path, part.times), path).values_at(grid)
        if prev_vals is not None:
            gaps.append(float(np.max(np.abs(vals - prev_vals))))
        prev_vals = vals
    gaps = np.asarray(gaps)
    converged = bool(gaps.size and gaps[-1] < tol)
    return ItoIntegralReport(curve=CapitalCurve(times=grid, values=prev_vals,
                                                mode=path.mode),
                             generation_gaps=gaps, converged=converged, tol=tol,
                             partition=parts[-1])


# ---------------------------------------------------------------------------
# Metrics (empirical lower-bound estimates of the hedging expectations)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PathStats:
    """Per-path quantities the localized metrics condition on."""

    path: Path
    partition_times: np.ndarray   # finest-generation crossing times
    qv_frobenius: float           # |[S]_T| estimate
    sup_norm: float
    n_max: int


def _make_stats(p: Path, n_max: int) -> PathStats:
    report = qv_limit(p, n_max=n_max, tol=1e-9, keep_generations=False)
    return PathStats(path=p, partition_times=report.limit_times,
                     qv_frobenius=report.frobenius_terminal,
                     sup_norm=p.sup_norm(), n_max=n_max)


def prepare_ensemble(paths, n_max: int = 8) -> list[PathStats]:
    return [_make_stats(p, n_max) for p in paths]


@dataclass(frozen=True)
class MetricEstimate:
    name: str
    value: float
    ensemble_size: int
    truncation: int | None = None
    epsilon: float | None = None
    tail_bound: float | None = None
    note: str = "empirical lower bound for the outer expectation"


def _iter_stats(ensemble, n_max: int):
    """Yield PathStats lazily; ensembles may be generators of Path objects.

    Large Monte-Carlo checks stream their paths through here one at a time,
    so only per-path scalar summaries are ever retained.
    """
    for item in ensemble:
        yield item if isinstance(item, PathStats) else _make_stats(item, n_max)


def _sup_diff(F, G, st: PathStats) -> float:
    """Sup-norm distance of the realized objects of F and G on one path."""
    x, y = F(st.path), G(st.path)
    if isinstance(x, StepIntegrand) and isinstance(y, StepIntegrand):
        return difference_integrand(x, y).sup_norm()
    if isinstance(x, CapitalCurve) and isinstance(y, CapitalCurve):
        times = np.unique(np.concatenate([x.times, y.times]))
        return float(np.max(np.abs(x.values_at(times) - y.values_at(times))))
    raise ContractError("factories must both yield StepIntegrand or both CapitalCurve")


def _qv_dist(F, G, st: PathStats) -> float:
    x, y = F(st.path), G(st.path)
    if not (isinstance(x, StepIntegrand) and isinstance(y, StepIntegrand)):
        raise ContractError("quadratic-compensator metrics need integrand factories")
    diff = difference_integrand(x, y)
    return math.sqrt(_compensator_terminal(diff, integral_curve(diff, st.path), st.path,
                                           st.partition_times))


def metric(name: str, F, G, ensemble, *, n_max: int = 8, epsilon: float = 0.25,
           n_terms: int = 20, b: float | None = None, M: float | None = None,
           psi: PsiSpec | None = None) -> MetricEstimate:
    """Empirical estimate of one of the integrand/process distances.

    ``F`` and ``G`` are factories mapping a path to the compared object
    (a :class:`StepIntegrand` or a :class:`CapitalCurve`).  ``ensemble`` is a
    list of paths or precomputed :class:`PathStats`.  Localized names need
    ``b``/``M`` (for ``d_inf_bM``) or ``psi`` (for ``d_inf_psi``); the
    infinite sums are truncated at ``n_terms`` with the geometric tail bound
    reported.
    """
    if name not in METRIC_NAMES:
        raise ContractError(f"unknown metric {name!r}; choose from {METRIC_NAMES}")
    if not 0.0 < epsilon < 1.0:
        raise ContractError("epsilon must lie in (0, 1)")
    if name == "d_inf_bM" and (b is None or M is None):
        raise ContractError("d_inf_bM needs b and M")
    if name == "d_inf_psi" and psi is None:
        raise ContractError("d_inf_psi needs the psi spec of the sample space")

    # one streaming pass collecting per-path scalars
    dist_fn = _qv_dist if name in ("d_QV", "d_QV_loc") else _sup_diff
    dists, frobs, norms = [], [], []
    for st in _iter_stats(ensemble, n_max):
        dists.append(dist_fn(F, G, st))
        frobs.append(st.qv_frobenius)
        norms.append(st.sup_norm)
    size = len(dists)
    if size == 0:
        raise ContractError("empty ensemble")
    per_path = np.asarray(dists)
    frob = np.asarray(frobs)
    sups = np.asarray(norms)

    if name in ("d_inf", "d_QV"):
        return MetricEstimate(name, float(np.mean(np.minimum(per_path, 1.0))), size)

    if name in ("d_QV_loc", "d_inf_loc"):
        total = 0.0
        for k in range(1, n_terms + 1):
            cut = 2.0 ** k
            capped = np.minimum(per_path, np.where(frob <= cut, 1.0, 0.0))
            total += 2.0 ** -k * float(np.mean(capped))
        return MetricEstimate(name, total, size, truncation=n_terms,
                              tail_bound=2.0 ** -n_terms)

    if name == "d_inf_bM":
        ind = ((frob <= b) & (sups <= M)).astype(float)
        value = float(np.mean(np.minimum(per_path, ind)))
        return MetricEstimate(name, value, size)

    # d_inf_psi
    total = 0.0
    for n in range(1, n_terms + 1):
        for m in range(1, n_terms + 1):
            w = 2.0 ** (-(n / 2.0 + m) * (1.0 + epsilon))
            denom = max(float(psi(2.0 ** m)), 2.0 ** m, 1.0)
            ind = (frob <= 2.0 ** n) & (sups <= 2.0 ** m)
            d_nm = float(np.mean(np.minimum(per_path, ind.astype(float))))
            total += w / denom * min(d_nm, 1.0)
    r = 2.0 ** (-(1.0 + epsilon) / 2.0)
    q = 2.0 ** (-(1.0 + epsilon))
    full = (r / (1 - r)) * (q / (1 - q))
    partial = (r * (1 - r ** n_terms) / (1 - r)) * (q * (1 - q ** n_terms) / (1 - q))
    return MetricEstimate(name, total, size, truncation=n_terms, epsilon=epsilon,
                          tail_bound=full - partial)


# ---------------------------------------------------------------------------
# Concentration and integral-estimate bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationReport:
    frequency: float
    bound: float
    stderr: float
    count: int
    ok: bool


def concentration_check_continuous(F, ensemble, a: float, b: float, *,
                                   n_max: int = 8) -> ConcentrationReport:
    """Empirical frequency of the exponential concentration event vs its bound.

    Event per path: ``sup |(F.S)| >= a sqrt(b)`` and compensator ``<= b``;
    the bound is ``2 exp(-a^2 / 2)`` plus three binomial standard errors.
    """
    if not (a >= 0 and b > 0):
        raise ContractError("need a >= 0 and b > 0")
    hits = 0
    n = 0
    for st in _iter_stats(ensemble, n_max):
        n += 1
        Fi = F(st.path)
        curve = integral_curve(Fi, st.path)
        sup = float(np.max(np.abs(curve.values)))
        comp = _compensator_terminal(Fi, curve, st.path, st.partition_times)
        if sup >= a * math.sqrt(b) and comp <= b:
            hits += 1
    if n == 0:
        raise ContractError("empty ensemble")
    freq = hits / n
    bound = 2.0 * math.exp(-0.5 * a * a)
    p0 = min(bound, 1.0)
    se = math.sqrt(max(p0 * (1 - p0), freq * (1 - freq)) / n)
    return ConcentrationReport(frequency=freq, bound=bound, stderr=se, count=n,
                               ok=bool(freq <= bound + 3 * se))


@dataclass(frozen=True)
class BdgBoundReport:
    worst_slack: float           # min over paths of rhs - lhs in the pathwise bound
    frequency: float             # event with |[S]_T| <= b (the corollary form)
    bound: float
    stderr: float
    count: int
    ok_pathwise: bool
    ok_frequency: bool
    transform_mismatch: float    # max |(phi.S)_T - (h.x)| cross-check
    frequency_compensator: float = 0.0  # event with int F^(x2) d[S] <= b instead
    bound_compensator: float = 0.0
    ok_frequency_compensator: bool = True


def bdg_bound_check_cadlag(F, ensemble, a: float, b: float, c: float, M: float,
                           psi: PsiSpec, *, n: int = 10, n_max: int = 8)\
        -> BdgBoundReport:
    """Pathwise weighted-transform bound plus the localized frequency bound.

    (i) On every path, with ``rho`` the union of the integrand's jump times
    and the generation-n crossing times, the integral's running maximum obeys
    ``sup_t |(F.S)_t| <= 6 sqrt(sum of squared cell increments)
    + 2 (phi.S)_T + ||F||_inf sqrt(d) 2^{1-n}`` where ``phi_k = h_k F_{rho_k}``
    carries the transform weights.  The slack term uses the provable band
    constant ``sqrt(d) 2^{1-n}`` (between consecutive crossing times each
    coordinate moves less than ``2^{1-n}``).  A violation raises
    :class:`InternalConsistencyError`.

    (ii) Two four-way event frequencies: ``{sup |(F.S)| >= a, ||F|| <= c,
    |[S]_T| <= b, ||S|| <= M}`` against
    ``(1 + 3dM + 2d psi(M)) (6 sqrt(b) + 2 + 2M)/a c``, and the
    compensator form ``{sup |(F.S)| >= a, int F^(x2) d[S] <= b, ||F|| <= c,
    ||S|| <= M}`` against ``(1 + 3dM + 2d psi(M)) (6 sqrt(b) + 2c + 2cM)/a``
    (the hedging-price bound lifted to a probability bound, valid because the
    event already confines the path below M).  Both allow three binomial
    standard errors.
    """
    if not (a > 0 and b >= 0 and c >= 0 and M >= 0):
        raise ContractError("need a > 0, b >= 0, c >= 0 and M >= 0")
    worst_slack = math.inf
    mismatch = 0.0
    hits = 0
    hits_comp = 0
    count = 0
    d = 1
    for st in _iter_stats(ensemble, n_max):
        count += 1
        path = st.path
        d = path.dim
        Fi = F(path)
        part = lebesgue_partition_nd(path, n)
        rho = _union_grid(path, Fi, part.times)
        curve = integral_curve(Fi, path)
        x = curve.values_at(rho)
        quad = float(np.sum(np.diff(x) ** 2))
        h = bdg_weights(x)
        hx = float(np.sum(h * np.diff(x)))
        phi = h[:, None] * Fi.value_after(rho[:-1])
        phi_strategy = RealizedStrategy(times=np.append(rho[:-1], np.inf), positions=phi)
        phi_cap = capital_curve(phi_strategy, path).value_at(path.horizon)
        mismatch = max(mismatch, abs(phi_cap - hx))
        f_sup = Fi.sup_norm()
        lhs = float(np.max(np.abs(curve.values)))
        rhs = 6.0 * math.sqrt(quad) + 2.0 * hx + f_sup * math.sqrt(d) * 2.0 ** (1 - n)
        worst_slack = min(worst_slack, rhs - lhs)
        comp = _compensator_terminal(Fi, curve, path, st.partition_times)
        if lhs >= a and f_sup <= c and st.sup_norm <= M:
            if st.qv_frobenius <= b:
                hits += 1
            if comp <= b:
                hits_comp += 1
    if count == 0:
        raise ContractError("empty ensemble")
    if worst_slack < 0:
        raise InternalConsistencyError(
            f"pathwise transform bound violated by {-worst_slack:.3e}")
    lift = 1.0 + 3.0 * d * M + 2.0 * d * float(psi(M))
    freq = hits / count
    bound = lift * (6.0 * math.sqrt(b) + 2.0 + 2.0 * M) / a * c
    p0 = min(bound, 1.0)
    se = math.sqrt(max(p0 * (1 - p0), freq * (1 - freq)) / count)
    freq_comp = hits_comp / count
    bound_comp = lift * (6.0 * math.sqrt(b) + 2.0 * c + 2.0 * c * M) / a
    p1 = min(bound_comp, 1.0)
    se_comp = math.sqrt(max(p1 * (1 - p1), freq_comp * (1 - freq_comp)) / count)
    return BdgBoundReport(worst_slack=worst_slack, frequency=freq, bound=bound,
                          stderr=se, count=count, ok_pathwise=True,
                          ok_frequency=bool(freq <= bound + 3 * se),
                          transform_mismatch=mismatch,
                          frequency_compensator=freq_comp,
                          bound_compensator=bound_comp,
                          ok_frequency_compensator=bool(
                              freq_comp <= bound_comp + 3 * se_comp))


# ---------------------------------------------------------------------------
# Continuity experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityReport:
    rows: list          # (scale, x, y) per integrand pair
    slope: float
    floor: float
    ok: bool
    kind: str
    epsilon: float


def continuity_experiment(pairs, ensemble, epsilon: float = 0.25, *,
                          kind: str = "continuous", n_max: int = 8,
                          psi: PsiSpec | None = None) -> ContinuityReport:
    """Tabulate integral distances against integrand distances and fit a slope.

    ``pairs`` is a list of ``(label, F_factory, G_factory)`` at decreasing
    distances.  Continuous case: x = d_QV(F, G), y = d_inf((F.S), (G.S)),
    floor ``1/2 - epsilon - 0.1``.  Cadlag case: x = d_inf(F, G),
    y = d_inf_psi((F.S), (G.S)), floor ``1/3 - 0.1``.  The fitted log-log
    slope must not fall below the floor (steeper decay is consistent because
    the continuity estimates are upper bounds).
    """
    if kind not in ("continuous", "cadlag"):
        raise ContractError("kind must be continuous or cadlag")
    if kind == "cadlag" and psi is None:
        raise ContractError("the cadlag experiment needs the sample-space psi")
    if not 0.0 < epsilon < 1.0:  # also rejects nan, which would reach the floor
        raise ContractError("epsilon must lie in (0, 1)")
    stats = list(_iter_stats(ensemble, n_max))  # reused across every pair
    rows = []
    for label, Ff, Gf in pairs:
        def curve_F(p, Ff=Ff):
            return integral_curve(Ff(p), p)

        def curve_G(p, Gf=Gf):
            return integral_curve(Gf(p), p)

        if kind == "continuous":
            x = metric("d_QV", Ff, Gf, stats, n_max=n_max).value
            y = metric("d_inf", curve_F, curve_G, stats, n_max=n_max).value
        else:
            x = metric("d_inf", Ff, Gf, stats, n_max=n_max).value
            y = metric("d_inf_psi", curve_F, curve_G, stats, n_max=n_max,
                       epsilon=epsilon, psi=psi).value
        rows.append((label, x, y))
    pts = [(math.log(x), math.log(y)) for _, x, y in rows if x > 0 and y > 0]
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = math.nan
    floor = (0.5 - epsilon - 0.1) if kind == "continuous" else (1.0 / 3.0 - 0.1)
    ok = bool(not math.isnan(slope) and slope >= floor)
    if all(y == 0 for _, _, y in rows) and all(x == 0 for _, x, _ in rows):
        ok = True  # identical integrands at every scale
    return ContinuityReport(rows=rows, slope=slope, floor=floor, ok=ok,
                            kind=kind, epsilon=epsilon)
