"""What each acceptance criterion draws and the check of one stream, defined once.

``verify``, ``continuity`` and the acceptance suite call these with their own
seed, size and parameters.  Each check is a body run on one stream (a path, a
walk or a sequence) and one pass of :func:`pathcalc.paths._sweep` over the
streams, drawn one at a time; the transform sequences are checked in chunks.
A failed exact check raises :class:`InternalConsistencyError` naming its seed
and stream, and n, K, t or lambda where they apply.  The two statistical
bound checks run the bodies of :mod:`pathcalc.integration` on their spec and
integrand; a failed bound raises :class:`CheckFailedError` naming the seed,
the count and the first streams in the event.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import replace

import numpy as np

from .errors import ContractError, InternalConsistencyError
from .integration import (BdgBoundReport, ConcentrationReport, ContinuityReport, _bdg_bound,
                          _concentration, _iter_stats, constant_integrand, continuity_experiment)
from .partitions import upcrossings_at_events
from .paths import Path, PsiSpec, Report, _Row, _scalar, _sweep
from .simulate import SimSpec, ensemble, simulate
from .strategies import (RealizedStrategy, StrategyRule, _bdg_slack, admissibility_lift,
                         bdg_check_batch, capital_curve, check_strong_admissibility,
                         check_weak_admissibility, doob_aggregate, doob_aggregate_bound_factor,
                         hoeffding_check, l_strategy, lift_budget, rho_lambda)

CONSTANT_PSI = PsiSpec("constant", (0.5,))
AFFINE_PSI = PsiSpec("affine", (0.1, 0.1))
# the paths of l_identity (48 steps), doob (64) and lift (32)
JUMP_SPEC = SimSpec(kind="jump-diffusion", steps=64, volatility=0.4, jump_intensity=6.0,
                    jump_mean=-0.05, jump_std=0.25, horizon=1.0, psi=CONSTANT_PSI)
BROWNIAN_SPEC = SimSpec(kind="brownian", steps=2 ** 12, mode="step")  # concentration
BDG_BOUND_SPEC = SimSpec(kind="jump-diffusion", steps=128, volatility=0.3, jump_intensity=5.0,
                         jump_mean=-0.02, jump_std=0.1, x0=0.2, psi=AFFINE_PSI)
BDG_CHUNK = 2048  # transform sequences checked in one kernel call


def paths(spec: SimSpec, count: int, **changes) -> Iterator[Path]:
    """Streams 0..count-1 of ``spec`` with ``changes`` applied, drawn one at a time."""
    spec, count = replace(spec, **changes), _scalar(count, "count", 1, integer=True)
    return (simulate(spec, i) for i in range(count))


def integrand(c: float):
    """The rule of the constant integrand ``c``."""
    return lambda p: constant_integrand(c, p.dim)


def _rng(seed: int) -> np.random.Generator:
    """The draws of ``seed``, which is in [0, 2**64) as a simulation seed is."""
    return np.random.Generator(np.random.Philox(key=_scalar(seed, "seed", 0, 2 ** 64 - 1,
                                                            integer=True)))


def bdg_sequences(seed: int, count: int, degenerate=((0.0,) * 5, (0.0, 1.0), (0.0, 0.0, 0.0, 2.0))
                  ) -> Iterator[np.ndarray]:
    """``count`` normal sequences of 1..200 terms at scales 1e-3..1e3, then ``degenerate``,
    drawn as they are taken; ``seed`` and ``count`` are checked at the call."""
    rng, count = _rng(seed), _scalar(count, "count", 1, integer=True)
    sizes = ((int(rng.integers(1, 201)), 10.0 ** rng.uniform(-3, 3)) for _ in range(count))
    return itertools.chain((rng.normal(0.0, scale, m) for m, scale in sizes),
                           [np.array(s, dtype=np.float64) for s in degenerate])


def bdg(seqs: Iterable, seed: int) -> Report:
    """The sequence-transform inequality ``max |x_k| <= 6 sqrt([x]_n) + 2 (h.x)_n`` on each of
    ``seqs``, :data:`BDG_CHUNK` sequences to a kernel call."""
    def slacks(rest):
        while chunk := list(itertools.islice(rest, BDG_CHUNK)):
            lhs, rhs = bdg_check_batch(chunk)
            yield from _bdg_slack(lhs, rhs).tolist()
    return _sweep(seed, slacks(iter(seqs)), lambda _, slack, where: _Row(slack),
                  violation="transform bound")


def l_identity(seed: int, count: int, psi: PsiSpec = CONSTANT_PSI,
               K: int | None = None) -> Report:
    """The compensated-Z capital identity to 1e-9, for n = 2..8 and K in (1, 2, 4) or ``K``."""
    runs = [(n, k) for n in range(2, 9) for k in ((1, 2, 4) if K is None else (K,))]

    def body(stream, p, where):
        worst = -math.inf
        for n, k in runs:
            where.update(n=n, K=k)
            worst = max(worst, l_strategy(p, n, k, psi, tolerance=1e-9)[1].max_deviation)
        return _Row(worst, len(runs))
    return _sweep(seed, paths(JUMP_SPEC, count, steps=48, seed=seed, psi=psi), body,
                  worst=-math.inf)


def doob(seed: int, count: int, psi: PsiSpec = CONSTANT_PSI, *, K: float | None = None,
         spec: SimSpec = JUMP_SPEC, every_generation: bool = True) -> Report:
    """The dyadic Doob crossing bound and strong 1-admissibility at every event, at n = 0..3
    (or ``stream % 4`` alone), with K = ``floor(sup) + 1`` or ``K`` on the paths below it."""
    K = K if K is None else _scalar(K, "K", 0, open_lo=True)

    def body(stream, p, where):
        sup = p.sup_norm()
        if K is not None and not sup < K:  # the bound is claimed on paths below K only
            return None
        k = K if K is not None else float(np.floor(sup)) + 1.0
        worst, checked = math.inf, 0
        for n in (0, 1, 2, 3) if every_generation else (stream % 4,):
            where.update(n=n, K=k)
            curve = capital_curve(doob_aggregate(n, k, psi).realize(p), p)
            if not curve.minimum >= -1.0:
                raise InternalConsistencyError("aggregate not strongly 1-admissible")
            ups = upcrossings_at_events(p, 2.0 ** -n)
            slack = 1.0 + curve.values_at(p.times) - doob_aggregate_bound_factor(n, k, psi) * ups
            i = int(slack.argmin())
            if slack[i] < -1e-12:
                where["t"] = p.times[i]
                raise InternalConsistencyError(f"crossing bound violated by {-slack[i]:.3e}")
            checked += slack.shape[0]
            worst = min(worst, float(slack[i]))
        return _Row(worst, checked, {"path": stream, "K": k, "passed": True, "worst_slack": worst})
    run = _sweep(seed, paths(spec, count, seed=seed, psi=psi), body)
    if not run.per_path:
        raise ContractError(f"none of the {count} paths lies below K = {K}: nothing to check")
    return run


def hoeffding(seed: int, count: int, min_steps: int = 5) -> Report:
    """The exponential supermartingale floor for six lambdas on each random walk:
    ``min_steps``..119 steps uniform in ``[-c, c]``, c uniform in [0.05, 0.5]."""
    rng, count = _rng(seed), _scalar(count, "count", 1, integer=True)
    min_steps = _scalar(min_steps, "min_steps", 1, 119, integer=True)

    def body(stream, _, where):
        steps = int(rng.integers(min_steps, 120))
        c = float(rng.uniform(0.05, 0.5))
        vals = np.concatenate([[0.0], np.cumsum(rng.uniform(-c, c, steps))])
        p = Path(times=np.arange(steps + 1, dtype=float), values=vals, mode="step")
        worst = math.inf
        for lam in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            where["lam"] = lam
            rep = hoeffding_check(p, p.times, c, lam)
            if not rep.ok:
                raise InternalConsistencyError(f"wealth fell below the exponential envelope: {rep}")
            worst = min(worst, rep.worst_margin)
        return _Row(worst, 6)
    return _sweep(seed, range(count), body)


def lift(seed: int, count: int, psi: PsiSpec = CONSTANT_PSI, lam: float = 0.5) -> Report:
    """The admissibility lift of random weakly lam-admissible strategies keeps its budget."""
    rng = _rng(seed)

    def body(stream, p, where):
        K = where["K"] = float(np.floor(p.sup_norm())) + 1.0
        budget = lift_budget(lam, 1, K, psi)  # finite and >= 4 lam: so are draws in [-lam, lam)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.9, 3)), [np.inf]])
        pos = rng.uniform(-lam, lam, 4)
        cand = RealizedStrategy(times=times, positions=pos)
        rho = rho_lambda(cand, p, lam)
        if np.isfinite(rho):
            keep = [t for t in times[:-1] if t < rho] + [rho]
            cand = RealizedStrategy(times=np.array(keep + [np.inf]),
                                    positions=np.append(pos[:len(keep) - 1], 0.0))
        if not check_weak_admissibility(cand, [p], lam)[0].ok:
            return None
        rule = StrategyRule(lambda _p, c=cand: c)
        verdict = check_strong_admissibility(admissibility_lift(rule, lam, K).realize(p),
                                             [p], budget)[0]
        if not verdict.ok:
            raise InternalConsistencyError("lifted strategy broke its strong budget")
        slack = verdict.worst_capital + budget
        return _Row(slack, 1, {"path": stream, "K": K, "budget": budget, "passed": True,
                               "worst_slack": slack})
    return _sweep(seed, paths(JUMP_SPEC, count, steps=32, seed=(seed + 1) % 2 ** 64, psi=psi),
                  body)


def concentration(seed: int, count: int, *, a: float, b: float,
                  n_max: int) -> ConcentrationReport:
    """The exponential concentration bound of the unit integrand on ``count`` Brownian paths."""
    stats = _iter_stats(paths(BROWNIAN_SPEC, count, seed=seed), n_max)
    rep, run = _concentration(seed, stats, integrand(1.0), a, b)
    if not rep.ok:
        raise run.failure(f"frequency {rep.frequency:.4f} > bound {rep.bound:.4f} + 3se")
    return rep


def bdg_bound(seed: int, count: int, psi: PsiSpec = AFFINE_PSI, *, a: float, b: float,
              c: float, M: float, n_max: int) -> BdgBoundReport:
    """The weighted-transform bound of the unit integrand at generation 10 on ``count``
    cadlag paths, and both of its frequency bounds."""
    stats = _iter_stats(paths(BDG_BOUND_SPEC, count, seed=seed, psi=psi), n_max)
    rep, run = _bdg_bound(seed, stats, integrand(1.0), a, b, c, M, psi, 10)
    if not rep.ok_frequency:
        raise run.failure(f"frequency {rep.frequency:.4f} > {rep.bound:.4f} + 3se")
    if not rep.ok_frequency_compensator:
        raise run.failure(f"compensator frequency {rep.frequency_compensator:.4f} > "
                          f"{rep.bound_compensator:.4f} + 3se", 1)
    return rep


def continuity(kind: str, seed: int, count: int, *, epsilon: float, n_max: int,
               psi: PsiSpec = AFFINE_PSI) -> ContinuityReport:
    """The continuity experiment of the constant integrands ``1 + 2^-k`` and 1, k = 1..8;
    ``psi`` clips the jumps of the cadlag ensemble and weights its metric."""
    if kind == "continuous":
        spec, psi = SimSpec(kind="brownian", steps=256, seed=seed, mode="step"), None
    else:
        spec = SimSpec(kind="jump-diffusion", steps=128, seed=seed, volatility=0.3,
                       jump_intensity=5.0, jump_std=0.15, psi=psi)
    pairs = [(k, integrand(1.0 + 2.0 ** -k), integrand(1.0)) for k in range(1, 9)]
    return continuity_experiment(pairs, ensemble(spec, count), epsilon, kind=kind, n_max=n_max,
                                 psi=psi)
