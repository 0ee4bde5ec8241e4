"""What each acceptance criterion draws and the loop that checks it, defined once.

``verify``, ``continuity`` and the acceptance suite call these with their own
seed, size and parameters; paths are drawn and checked one at a time.  A
failed exact check raises :class:`InternalConsistencyError` naming its seed
and stream, and n, K, t or lambda where they apply.  For the two statistical
bound checks, single library calls, this module holds the spec and integrand.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, InternalConsistencyError
from .integration import ContinuityReport, constant_integrand, continuity_experiment
from .partitions import upcrossings_at_events
from .paths import Path, PsiSpec, _scalar
from .simulate import SimSpec, ensemble, simulate
from .strategies import (RealizedStrategy, StrategyRule, admissibility_lift, bdg_check_batch,
                         capital_curve, check_strong_admissibility, check_weak_admissibility,
                         doob_aggregate, doob_aggregate_bound_factor, hoeffding_check,
                         l_strategy, lift_budget, rho_lambda)

CONSTANT_PSI = PsiSpec("constant", (0.5,))
AFFINE_PSI = PsiSpec("affine", (0.1, 0.1))
# the paths of l_identity (48 steps), doob (64) and lift (32)
JUMP_SPEC = SimSpec(kind="jump-diffusion", steps=64, volatility=0.4, jump_intensity=6.0,
                    jump_mean=-0.05, jump_std=0.25, horizon=1.0, psi=CONSTANT_PSI)
BROWNIAN_SPEC = SimSpec(kind="brownian", steps=2 ** 12, mode="step")  # concentration
BDG_BOUND_SPEC = SimSpec(kind="jump-diffusion", steps=128, volatility=0.3, jump_intensity=5.0,
                         jump_mean=-0.02, jump_std=0.1, x0=0.2, psi=AFFINE_PSI)


@dataclass(frozen=True)
class Report:
    """A passed check: the items it checked, its worst value and the stream of that."""

    checked: int
    worst: float
    seed: int
    stream: int | None
    per_path: list = field(default_factory=list)  # ``verify``'s per-path records


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


def _at(seed: int, stream: int, **where) -> str:
    return f"(seed {seed} stream {stream}" + "".join(f" {k} {v}" for k, v in where.items()) + ")"


def bdg_sequences(seed: int, count: int,
                  degenerate=((0.0,) * 5, (0.0, 1.0), (0.0, 0.0, 0.0, 2.0))) -> list:
    """``count`` normal sequences of 1..200 terms at scales 1e-3..1e3, then ``degenerate``."""
    rng, seqs = _rng(seed), []
    for _ in range(_scalar(count, "count", 1, integer=True)):
        m = int(rng.integers(1, 201))
        scale = 10.0 ** rng.uniform(-3, 3)
        seqs.append(rng.normal(0.0, scale, m))
    return seqs + [np.array(s, dtype=np.float64) for s in degenerate]


def bdg(seqs: list, seed: int) -> Report:
    """The sequence-transform inequality ``max |x_k| <= 6 sqrt([x]_n) + 2 (h.x)_n``."""
    lhs, rhs = bdg_check_batch(seqs)
    slack = rhs + 1e-9 * np.maximum(1.0, np.abs(rhs)) - lhs
    i = int(slack.argmin())
    if slack[i] < 0:
        raise InternalConsistencyError(
            f"{int(np.sum(slack < 0))} transform-bound violations, the worst by "
            f"{-slack[i]:.3e} (seed {seed} sequence {i})")
    return Report(len(seqs), float(slack[i]), seed, i)


def l_identity(seed: int, count: int, psi: PsiSpec = CONSTANT_PSI,
               K: int | None = None) -> Report:
    """The compensated-Z capital identity to 1e-9, for n = 2..8 and K in (1, 2, 4) or ``K``."""
    worst, where, runs = -math.inf, None, 0
    for stream, p in enumerate(paths(JUMP_SPEC, count, steps=48, seed=seed, psi=psi)):
        for n in range(2, 9):
            for k in (1, 2, 4) if K is None else (K,):
                try:
                    _, rep = l_strategy(p, n, k, psi, tolerance=1e-9)
                except InternalConsistencyError as exc:
                    raise InternalConsistencyError(f"{exc} {_at(seed, stream, n=n, K=k)}") from exc
                runs += 1
                if rep.max_deviation > worst:
                    worst, where = rep.max_deviation, stream
    return Report(runs, worst, seed, where)


def doob(seed: int, count: int, psi: PsiSpec = CONSTANT_PSI, *, K: float | None = None,
         spec: SimSpec = JUMP_SPEC, every_generation: bool = True) -> Report:
    """The dyadic Doob crossing bound and strong 1-admissibility at every event, at n = 0..3
    (or ``stream % 4`` alone), with K = ``floor(sup) + 1`` or ``K`` on the paths below it."""
    checked, per_path = 0, []
    K = K if K is None else _scalar(K, "K", 0, open_lo=True)
    for stream, p in enumerate(paths(spec, count, seed=seed, psi=psi)):
        sup = p.sup_norm()
        if K is not None and not sup < K:  # the bound is claimed on paths below K only
            continue
        k = K if K is not None else float(np.floor(sup)) + 1.0
        path_worst = math.inf
        for n in (0, 1, 2, 3) if every_generation else (stream % 4,):
            curve = capital_curve(doob_aggregate(n, k, psi).realize(p), p)
            if not curve.minimum >= -1.0:
                raise InternalConsistencyError(
                    f"aggregate not strongly 1-admissible {_at(seed, stream, n=n, K=k)}")
            ups = upcrossings_at_events(p, 2.0 ** -n)
            slack = 1.0 + curve.values_at(p.times) - doob_aggregate_bound_factor(n, k, psi) * ups
            i = int(slack.argmin())
            if slack[i] < -1e-12:
                raise InternalConsistencyError(f"crossing bound violated by {-slack[i]:.3e} "
                                               f"{_at(seed, stream, n=n, K=k, t=p.times[i])}")
            checked += slack.shape[0]
            path_worst = min(path_worst, float(slack[i]))
        per_path.append({"path": stream, "K": k, "passed": True, "worst_slack": path_worst})
    if not per_path:
        raise ContractError(f"none of the {count} paths lies below K = {K}: nothing to check")
    worst = min(per_path, key=lambda r: r["worst_slack"])
    return Report(checked, worst["worst_slack"], seed, worst["path"], per_path)


def hoeffding(seed: int, count: int, min_steps: int = 5) -> Report:
    """The exponential supermartingale floor for six lambdas on each random walk:
    ``min_steps``..119 steps uniform in ``[-c, c]``, c uniform in [0.05, 0.5]."""
    rng, worst, where = _rng(seed), math.inf, None
    count = _scalar(count, "count", 1, integer=True)
    min_steps = _scalar(min_steps, "min_steps", 1, 119, integer=True)
    for stream in range(count):
        steps = int(rng.integers(min_steps, 120))
        c = float(rng.uniform(0.05, 0.5))
        vals = np.concatenate([[0.0], np.cumsum(rng.uniform(-c, c, steps))])
        p = Path(times=np.arange(steps + 1, dtype=float), values=vals, mode="step")
        for lam in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            rep = hoeffding_check(p, p.times, c, lam)
            if not rep.ok:
                raise InternalConsistencyError(f"wealth fell below the exponential envelope: "
                                               f"{rep} {_at(seed, stream, lam=lam)}")
            if rep.worst_margin < worst:
                worst, where = rep.worst_margin, stream
    return Report(count * 6, worst, seed, where)


def lift(seed: int, count: int, psi: PsiSpec = CONSTANT_PSI, lam: float = 0.5) -> Report:
    """The admissibility lift of random weakly lam-admissible strategies keeps its budget."""
    rng, worst, where, per_path = _rng(seed), math.inf, None, []
    for stream, p in enumerate(paths(JUMP_SPEC, count, steps=32, seed=(seed + 1) % 2 ** 64,
                                     psi=psi)):
        K = float(np.floor(p.sup_norm())) + 1.0
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
            continue
        rule = StrategyRule(lambda _p, c=cand: c)
        verdict = check_strong_admissibility(admissibility_lift(rule, lam, K).realize(p),
                                             [p], budget)[0]
        if not verdict.ok:
            raise InternalConsistencyError(
                f"lifted strategy broke its strong budget {_at(seed, stream, K=K)}")
        slack = verdict.worst_capital + budget
        if slack < worst:
            worst, where = slack, stream
        per_path.append({"path": stream, "K": K, "budget": budget, "passed": True,
                         "worst_slack": slack})
    return Report(len(per_path), worst, seed, where, per_path)


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
