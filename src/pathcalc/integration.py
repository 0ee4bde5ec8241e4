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

from . import _kernels as K
from .errors import ContractError
from .partitions import MAX_GENERATION, LebesguePartition, lebesgue_partition_nd, partition_ladder
from .paths import Path, PsiSpec, Report, _Row, _held_table, _scalar, _sweep
from .qv import _qv_at
from .strategies import CapitalCurve, RealizedStrategy, _sequence, capital, capital_curve

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

    The table is :func:`pathcalc.paths._held_table`'s, and the last value is
    held up to the horizon; ``value_at_zero``, finite and one value per
    coordinate, is the value at t = 0 itself, which never enters integrals.
    """

    times: np.ndarray
    values: np.ndarray
    value_at_zero: np.ndarray | None = None

    def __post_init__(self):
        z = self.value_at_zero
        if z is not None:
            z = np.ascontiguousarray(np.asarray(z, dtype=np.float64).reshape(-1))

        def z_fits(_, values):
            if z is not None and not (z.shape[0] == values.shape[1] and np.isfinite(z).all()):
                raise ContractError("value_at_zero needs one finite value per coordinate")

        times, values = _held_table(self.times, self.values, 0, "integrand", z_fits)
        if z is not None:
            z.flags.writeable = False
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
        """Largest l2 norm of a value, ``value_at_zero`` included."""
        rows = self.values
        if self.value_at_zero is not None:
            rows = np.vstack([rows, self.value_at_zero])
        return float(np.max(K.row_norms(rows)))

    def as_strategy(self) -> RealizedStrategy:
        return RealizedStrategy(times=np.append(self.times, np.inf), positions=self.values)


def constant_integrand(value, d: int = 1) -> StepIntegrand:
    d = _scalar(d, "d", 1, 2 ** 24, integer=True)  # a value of at most 128 MiB
    vec = np.broadcast_to(np.asarray(value, dtype=np.float64), (d,))
    return StepIntegrand(times=[0.0], values=[vec], value_at_zero=vec)


def difference_integrand(F: StepIntegrand, G: StepIntegrand) -> StepIntegrand:
    if F.dim != G.dim:
        raise ContractError(f"integrand dims {F.dim} != {G.dim}")
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
    return capital(F.as_strategy(), path, t)


def integral_curve(F: StepIntegrand, path: Path) -> CapitalCurve:
    return capital_curve(F.as_strategy(), path)


# ---------------------------------------------------------------------------
# Quadratic compensator
# ---------------------------------------------------------------------------

def _union_grid(path: Path, F: StepIntegrand, part_times: np.ndarray) -> np.ndarray:
    """F's jump times up to the horizon, ``part_times`` and the horizon, merged."""
    jumps = F.times[F.times <= path.horizon]
    return np.unique(np.concatenate([jumps, part_times, [path.horizon]]))


def _squares_summed(x: np.ndarray) -> float:
    """The squared increments of ``x`` added left to right, as the compensator curve adds them."""
    return float(np.cumsum(np.diff(x) ** 2)[-1])


def _compensator_terminal(F: StepIntegrand, curve: CapitalCurve, path: Path,
                          part_times: np.ndarray) -> float:
    """Squared increments of ``curve``, F's integral, summed along F's and the partition's times."""
    return _squares_summed(curve.values_at(_union_grid(path, F, part_times)))


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
    times; per-generation terminals, the same running sum along each
    generation's union (on the curve's grid by nesting), supply the Cauchy
    diagnostic, so generations with the same cells have the same terminal.
    """
    tol = _scalar(tol, "tol", 0, open_lo=True)
    parts, _, _ = partition_ladder(path, n_max)
    grid = np.unique(np.concatenate([_union_grid(path, F, parts[-1].times), path.times]))
    x = integral_curve(F, path).values_at(grid)
    cells = [np.searchsorted(grid, _union_grid(path, F, part.times)) for part in parts]
    terminals = np.array([_squares_summed(x[pos]) for pos in cells])
    curve = K.qv_on_grid(x[:, None], cells[-1])[0]
    gap = float(abs(terminals[-1] - terminals[-2])) if len(parts) >= 2 else float("nan")
    return CompensatorReport(times=grid, values=curve, terminal=float(terminals[-1]),
                             per_generation=terminals, cauchy_gap=gap,
                             converged=bool(len(parts) >= 2 and gap < tol))


# ---------------------------------------------------------------------------
# Left-point sampling of non-anticipating integrands and the limit integral
# ---------------------------------------------------------------------------

def _sample(rule: Callable[[Path, np.ndarray], np.ndarray], path: Path,
            times: np.ndarray) -> StepIntegrand:
    """The step integrand holding ``rule(path, times)[k]`` on ``(times[k], times[k+1]]``."""
    vals, out = np.empty((len(times), path.dim)), rule(path, times)
    try:
        vals[...] = out
    except ValueError as exc:
        raise ContractError(f"the rule's values do not broadcast to {vals.shape}: {exc}") from None
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
    tol = _scalar(tol, "tol", 0, open_lo=True)
    parts, grid, _ = partition_ladder(path, n_max)
    prev_vals = None
    gaps = []
    for part in parts:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            vals = integral_curve(_sample(rule, path, part.times), path).values_at(grid)
        if not np.all(np.isfinite(vals)):
            raise ContractError(f"the generation-{part.generation} integral is beyond float64")
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


def _make_stats(p: Path, n_max: int) -> PathStats:
    """Generation n_max's times and ``|Q^n_T|`` by :func:`_qv_at`, bit for bit ``qv_limit``'s."""
    part = lebesgue_partition_nd(p, n_max)
    qv = _qv_at(p, part, p.horizon)
    return PathStats(path=p, partition_times=part.times,
                     qv_frobenius=float(np.sqrt(np.sum(qv ** 2))), sup_norm=p.sup_norm())


def prepare_ensemble(paths, n_max: int = 8) -> list[PathStats]:
    return list(_iter_stats(paths, n_max))


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
    n_max = _scalar(n_max, "n_max", 1, MAX_GENERATION, integer=True)
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
    epsilon = _scalar(epsilon, "epsilon", 0, 1, open_lo=True, open_hi=True)
    n_terms = _scalar(n_terms, "n_terms", 1, 1023, integer=True)  # 2.0 ** 1024 overflows
    if name == "d_inf_bM":  # the one metric that reads b and M
        b, M = _scalar(b, "b", 0), _scalar(M, "M", 0)
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


def _integral_summary(F, st: PathStats):
    """``F(path)``, its integral curve, ``sup |(F.S)|`` and its compensator terminal."""
    Fi = F(st.path)
    curve = integral_curve(Fi, st.path)
    sup = float(np.max(np.abs(curve.values)))
    return Fi, curve, sup, _compensator_terminal(Fi, curve, st.path, st.partition_times)


def _frequency_test(hits: int, count: int, bound: float) -> tuple[float, float, bool]:
    """``hits / count``, its binomial standard error and whether it is <= bound + 3 se."""
    if count == 0:
        raise ContractError("empty ensemble")
    bound = _scalar(bound, "the frequency bound of these parameters", 0, math.inf)  # NaN of inf * 0
    freq = hits / count
    p0 = min(bound, 1.0)
    se = math.sqrt(max(p0 * (1 - p0), freq * (1 - freq)) / count)
    return freq, se, bool(freq <= bound + 3 * se)


def concentration_check_continuous(F, ensemble, a: float, b: float, *,
                                   n_max: int = 8) -> ConcentrationReport:
    """Empirical frequency of the exponential concentration event vs its bound.

    Event per path: ``sup |(F.S)| >= a sqrt(b)`` and compensator ``<= b``;
    the bound is ``2 exp(-a^2 / 2)`` plus three binomial standard errors.
    """
    return _concentration(None, _iter_stats(ensemble, n_max), F, a, b)[0]


def _concentration(seed, stats, F, a, b) -> tuple[ConcentrationReport, Report]:
    """The report of :func:`concentration_check_continuous` on ``stats``, and its pass."""
    a, b = _scalar(a, "a", 0), _scalar(b, "b", 0, open_lo=True)

    def body(stream, st, where):
        _, _, sup, comp = _integral_summary(F, st)
        return _Row(None, hits=(sup >= a * math.sqrt(b) and comp <= b,))
    run = _sweep(seed, stats, body)
    bound = 2.0 * math.exp(-0.5 * a * a)
    freq, se, ok = _frequency_test(len(run.hits.get(0, ())), run.checked, bound)
    return ConcentrationReport(frequency=freq, bound=bound, stderr=se, count=run.checked,
                               ok=ok), run


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
    :class:`InternalConsistencyError`, once every path is checked, naming the
    stream, the index in ``ensemble``, of the worst.

    (ii) Two four-way event frequencies: ``{sup |(F.S)| >= a, ||F|| <= c,
    |[S]_T| <= b, ||S|| <= M}`` against
    ``(1 + 3dM + 2d psi(M)) (6 sqrt(b) + 2 + 2M)/a c``, and the
    compensator form ``{sup |(F.S)| >= a, int F^(x2) d[S] <= b, ||F|| <= c,
    ||S|| <= M}`` against ``(1 + 3dM + 2d psi(M)) (6 sqrt(b) + 2c + 2cM)/a``
    (the hedging-price bound lifted to a probability bound, valid because the
    event already confines the path below M).  ``d`` is the largest
    dimension in ``ensemble``; the bounds grow with it, so they hold on every
    path's sample space.  Both allow three binomial standard errors.
    """
    return _bdg_bound(None, _iter_stats(ensemble, n_max), F, a, b, c, M, psi, n)[0]


def _bdg_bound(seed, stats, F, a, b, c, M, psi, n) -> tuple[BdgBoundReport, Report]:
    """The report of :func:`bdg_bound_check_cadlag` on ``stats``, and its pass."""
    a, b = _scalar(a, "a", 0, open_lo=True), _scalar(b, "b", 0)
    c, M = _scalar(c, "c", 0), _scalar(M, "M", 0)
    n = _scalar(n, "n", 1, MAX_GENERATION, integer=True)
    mismatch, d = 0.0, 1

    def body(stream, st, where):
        nonlocal mismatch, d
        path = st.path
        d = max(d, path.dim)  # the lift grows with d: the largest holds on every path
        Fi, curve, lhs, comp = _integral_summary(F, st)
        rho = _union_grid(path, Fi, lebesgue_partition_nd(path, n).times)
        # the curve starts at 0, so [x] is the sum of the squared cell increments
        _, quad, h, hx = K._bdg_rows(_sequence(curve.values_at(rho))[None, :])
        quad, h, hx = float(quad[0]), h[0], float(hx[0])
        phi = h[:, None] * Fi.value_after(rho[:-1])
        phi_strategy = RealizedStrategy(times=np.append(rho[:-1], np.inf), positions=phi)
        phi_cap = capital_curve(phi_strategy, path).value_at(path.horizon)
        mismatch = max(mismatch, abs(phi_cap - hx))
        f_sup = Fi.sup_norm()
        rhs = 6.0 * math.sqrt(quad) + 2.0 * hx + f_sup * math.sqrt(d) * 2.0 ** (1 - n)
        within = bool(lhs >= a and f_sup <= c and st.sup_norm <= M)
        return _Row(rhs - lhs, hits=(within and st.qv_frobenius <= b, within and comp <= b))
    run = _sweep(seed, stats, body, violation="pathwise transform bound")
    lift = 1.0 + 3.0 * d * M + 2.0 * d * float(psi(M))
    bound = lift * (6.0 * math.sqrt(b) + 2.0 + 2.0 * M) / a * c
    freq, se, ok = _frequency_test(len(run.hits.get(0, ())), run.checked, bound)
    bound_comp = lift * (6.0 * math.sqrt(b) + 2.0 * c + 2.0 * c * M) / a
    freq_comp, _, ok_comp = _frequency_test(len(run.hits.get(1, ())), run.checked, bound_comp)
    return BdgBoundReport(worst_slack=run.worst, frequency=freq, bound=bound,
                          stderr=se, count=run.checked, ok_pathwise=True, ok_frequency=ok,
                          transform_mismatch=mismatch, frequency_compensator=freq_comp,
                          bound_compensator=bound_comp, ok_frequency_compensator=ok_comp), run


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
    epsilon = _scalar(epsilon, "epsilon", 0, 1, open_lo=True, open_hi=True)
    stats = list(_iter_stats(ensemble, n_max))  # reused across every pair
    if not (pairs := list(pairs)):  # else no rows would pass as identical integrands
        raise ContractError("the continuity experiment needs at least one integrand pair")
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
