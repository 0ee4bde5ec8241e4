"""Discrete quadratic variation along dyadic-crossing partitions.

``Q^n_t`` is the sum of squared increments between consecutive partition
times clamped at ``t`` (including the partial increment from the last
partition time to ``t``).  Cross terms use products of coordinate
increments along the multi-dimensional partition and agree exactly with the
polarization combination of 1-d quadratic sums along the same times.

Limits are realized as the last computed generation together with a Cauchy
diagnostic ``z_sup[n] = sup_t |Q^n_t - Q^{n-1}_t|``; non-convergence is
reported data, never an error.  Convention: ``Q^0 := 0`` so ``Z^1 = Q^1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .errors import ContractError
from .partitions import (SENTINEL, LebesguePartition, _coarsen, _on_grid,
                         lebesgue_partition_1d, lebesgue_partition_nd, partition_ladder)
from .paths import MODE_STEP, Path, PsiSpec, _write_json, _write_table

Q0_CONVENTION = "Q^0 := 0, so Z^1 = Q^1"


def _pairs(d: int) -> list[tuple[int, int]]:
    """Coordinate pairs ``(a, b)``, ``a <= b``, in the row order of ``qv_on_grid``."""
    return [(a, b) for a in range(d) for b in range(a, d)]


def discrete_qv(path: Path, partition: LebesguePartition, t: float) -> float:
    """``Q^n_t`` of a 1-d path along realized partition times."""
    if path.dim != 1:
        raise ContractError("discrete_qv needs a 1-d path; use discrete_cross_qv")
    if not 0.0 <= t <= path.horizon:
        raise ContractError("t outside [0, horizon]")
    if partition.times[-1] > path.horizon:
        raise ContractError("partition does not belong to this path")
    clamped = np.append(np.minimum(partition.times, t), t)
    vals = path.eval(clamped)[:, 0]
    return float(np.sum(np.diff(vals) ** 2))


def discrete_cross_qv(path: Path, n: int, i: int, j: int, t: float,
                      partition: LebesguePartition | None = None) -> float:
    """``Q^{i,j,n}_t`` along the d-dimensional partition (1-based i, j)."""
    if not (1 <= i <= path.dim and 1 <= j <= path.dim):
        raise ContractError("coordinate index out of range")
    part = partition if partition is not None else lebesgue_partition_nd(path, n)
    clamped = np.append(np.minimum(part.times, t), t)
    vals = path.eval(clamped)
    di = np.diff(vals[:, i - 1])
    dj = np.diff(vals[:, j - 1])
    return float(np.sum(di * dj))


@dataclass(eq=False)
class QVReport:
    """Per-generation quadratic variation paths and convergence diagnostics."""

    dim: int
    n_max: int
    tol: float
    generations: list[int]
    z_sup: np.ndarray                      # z_sup[k] for generation k+1
    qv_terminal: np.ndarray                # (n_max, d, d) terminal matrix per generation
    limit_times: np.ndarray                # partition times of the last generation
    limit_values: np.ndarray               # (len(limit_times), d, d)
    terminal: np.ndarray                   # (d, d) final-generation terminal matrix
    cauchy_tol_met: bool
    converged_at: int | None
    convention: str = Q0_CONVENTION
    qv_paths: dict = field(default_factory=dict)  # generation -> (times, (len, d, d))
    partition: LebesguePartition | None = None  # generation n_max, at limit_times

    @property
    def frobenius_terminal(self) -> float:
        """``|[S]_T|``: Frobenius norm of the terminal matrix estimate."""
        return float(np.sqrt(np.sum(self.terminal ** 2)))


def qv_limit(path: Path, n_max: int, tol: float = 1e-8,
             keep_generations: bool = True) -> QVReport:
    """Compute ``Q^{i,j,n}`` for n = 1..n_max on the common evaluation grid.

    The grid is the union of event times and every generation's partition
    times, which makes the sup-norms ``z_sup`` exact for step paths (and for
    linear paths too: ``Z^n`` is affine between consecutive grid points).
    In step mode it is the event table, so the values on it are
    ``path.values``.
    """
    if tol <= 0:
        raise ContractError("tol must be > 0")
    partitions, grid, positions = partition_ladder(path, n_max)
    d = path.dim
    vals = path.values if path.mode == MODE_STEP else path.eval(grid)

    pairs = _pairs(d)
    prev = np.zeros((len(pairs), len(grid)))  # Q^0; spent, it holds |Q^n - Q^{n-1}|
    z_sup = np.empty(n_max)
    qv_terminal = np.empty((n_max, d, d))
    qv_paths: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    for n, (part, pos) in enumerate(zip(partitions, positions), start=1):
        cur = K.qv_on_grid(vals, pos)
        worst = 0.0
        for q, p, (a, b) in zip(cur, prev, pairs):
            np.abs(np.subtract(q, p, out=p), out=p)
            worst = max(worst, float(p.max()))
            qv_terminal[n - 1, a, b] = qv_terminal[n - 1, b, a] = q[-1]
        z_sup[n - 1] = worst
        if keep_generations or n == n_max:
            qp = np.empty((len(pos), d, d))
            for q, (a, b) in zip(cur, pairs):
                qp[:, a, b] = qp[:, b, a] = q[pos]
            qv_paths[n] = (part.times, qp)
        prev = cur
    limit_times, limit_values = qv_paths[n_max]

    hits = np.flatnonzero(z_sup[1:] < tol)
    converged_at = int(hits[0]) + 2 if hits.size else None

    return QVReport(
        dim=d, n_max=n_max, tol=tol,
        generations=list(range(1, n_max + 1)),
        z_sup=z_sup, qv_terminal=qv_terminal,
        limit_times=limit_times, limit_values=limit_values,
        terminal=qv_terminal[n_max - 1].copy(),
        cauchy_tol_met=bool(z_sup[n_max - 1] < tol),
        converged_at=converged_at,
        qv_paths=qv_paths,
        partition=partitions[-1],
    )


# ---------------------------------------------------------------------------
# Z / K processes and the sigma stopping time (1-d convergence machinery)
# ---------------------------------------------------------------------------

def _z_data(path: Path, n: int, extra_times=()):
    """Grid, path values, Z and its compensator, the generation-n partition and the positions.

    The grid is :func:`pathcalc.partitions._on_grid`'s for the generation-n
    partition (which contains the coarse one) and ``extra_times``.  The
    compensator is ``sum_k (dZ along pi_n)^2``, with the partial tail.  The
    coarse partition is derived from the fine one, and its grid positions
    are the fine ones at the points it keeps; they are ``None`` at n = 1.
    """
    if path.dim != 1:
        raise ContractError("Z/K processes are defined for 1-d paths")
    pn = lebesgue_partition_1d(path, n)
    grid, (pos,) = _on_grid(path, [pn], extra_times)
    vals = path.values if path.mode == MODE_STEP else path.eval(grid)
    qn = K.qv_on_grid(vals, pos)[0]
    coarse_pos, qn1 = None, 0.0
    if n >= 2:
        coarse_pos = pos[_coarsen(pn)[1]]
        qn1 = K.qv_on_grid(vals, coarse_pos)[0]
    z = qn - qn1
    return grid, vals[:, 0], z, K.qv_on_grid(z[:, None], pos)[0], pn, pos, coarse_pos


def _z_at(path: Path, n: int, t: float):
    """Z^n and its compensator on the grid of :func:`_z_data` with ``t``, and the index of ``t``.

    In linear mode ``t`` is on the grid; in step mode Z is constant between
    events, so ``t`` reads the last event at or before it.
    """
    if not 0.0 <= t <= path.horizon:
        raise ContractError("t outside [0, horizon]")
    grid, _, z, comp, _, _, _ = _z_data(path, n, extra_times=[t])
    return z, comp, int(np.searchsorted(grid, t, side="right")) - 1


def z_process(path: Path, n: int, t: float) -> float:
    """``Z^n_t = Q^n_t - Q^{n-1}_t`` (with ``Q^0 := 0``)."""
    z, _, it = _z_at(path, n, t)
    return float(z[it])


def k_constant(n: int, K_bound: int, psi: PsiSpec) -> float:
    """``n^4 2^{-2n} + 2^{-n+5} (K + psi(K))^2``."""
    try:
        return float(n) ** 4 * 2.0 ** (-2 * n) \
            + 2.0 ** (-n + 5) * (K_bound + float(psi(float(K_bound)))) ** 2
    except OverflowError as exc:
        raise ContractError(f"K = {K_bound} overflows the K-process budget") from exc


def k_process(path: Path, n: int, K_bound: int, psi: PsiSpec, t: float) -> float:
    """Compensated square of Z^n at time t.

    ``n^4 2^{-2n} + 2^{-n+5}(K+psi(K))^2 + (Z^n_t)^2 - sum_k (dZ along pi_n)^2``.
    """
    if K_bound < 1:
        raise ContractError("K must be a positive integer")
    z, comp, it = _z_at(path, n, t)
    return k_constant(n, K_bound, psi) + float(z[it]) ** 2 - float(comp[it])


def _sigma_from_z(z: np.ndarray, comp: np.ndarray, pn: LebesguePartition, pos: np.ndarray,
                  n: int, K_bound: int) -> float:
    """:func:`sigma_n_K` from Z and its compensator on a grid that holds ``pn`` at ``pos``."""
    if K_bound < 1:
        raise ContractError("K must be a positive integer")
    if len(pn.times) < 2:
        return SENTINEL
    acc = comp[pos[1:]]
    threshold = float(n) ** 4 * 2.0 ** (-2 * n)
    hit_acc = np.flatnonzero(acc > threshold)
    hit_z = np.flatnonzero(z[pos[1:]] > K_bound)
    t_acc = pn.times[hit_acc[0] + 1] if hit_acc.size else SENTINEL
    t_z = pn.times[hit_z[0] + 1] if hit_z.size else SENTINEL
    return float(min(t_acc, t_z))


def sigma_n_K(path: Path, n: int, K_bound: int) -> float:
    """First partition time where the Z-increment budget or level K is breached.

    Returns the earlier of the first generation-n partition time with
    accumulated squared Z-increments above ``n^4 2^{-2n}`` and the first one
    with ``Z^n > K``; ``inf`` if neither occurs.
    """
    _, _, z, comp, pn, pos, _ = _z_data(path, n)
    return _sigma_from_z(z, comp, pn, pos, n, K_bound)


# ---------------------------------------------------------------------------
# Jump identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpIdentityReport:
    ok: bool
    max_discrepancy: float
    tolerance: float


def jump_identity_check(path: Path, report: QVReport, tolerance: float = 1e-9) -> JumpIdentityReport:
    """Verify ``jump of [S] at t = (jump of S at t) (outer product)`` at events.

    Exact for step paths once the final generation isolates every jump; for
    linear paths both sides vanish identically.
    """
    if path.mode != MODE_STEP:
        return JumpIdentityReport(ok=True, max_discrepancy=0.0, tolerance=tolerance)
    # every limit time is an event time, so the grid is the event table
    pos = np.searchsorted(path.times, report.limit_times)
    if not np.array_equal(path.times[np.minimum(pos, path.n_events - 1)], report.limit_times):
        raise ContractError("the report's limit times are not this path's event times")
    q = K.qv_on_grid(path.values, pos)
    dv = np.diff(path.values, axis=0)
    worst = 0.0
    for curve, (a, b) in zip(q, _pairs(path.dim)):
        worst = max(worst, float(np.max(np.abs(np.diff(curve) - dv[:, a] * dv[:, b]),
                                        initial=0.0)))
    return JumpIdentityReport(ok=worst <= tolerance, max_discrepancy=worst, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def write_qv_report(report: QVReport, json_file, csv_file=None):
    """JSON diagnostics plus optional CSV of the limit matrix path."""
    obj = {
        "dim": report.dim,
        "n_max": report.n_max,
        "tol": report.tol,
        "convention": report.convention,
        "cauchy_tol_met": report.cauchy_tol_met,
        "converged_at": report.converged_at,
        "terminal": report.terminal.tolist(),
        "frobenius_terminal": report.frobenius_terminal,
        "generations": [
            {"n": n, "z_sup": float(report.z_sup[n - 1])}
            for n in report.generations
        ],
    }
    _write_json(json_file, obj)
    if csv_file is not None:
        pairs = [(a, b) for a in range(report.dim) for b in range(report.dim)]
        with open(csv_file, "w") as fh:
            _write_table(fh, ["t"] + [f"qv_{a + 1}{b + 1}" for a, b in pairs],
                         [report.limit_times] + [report.limit_values[:, a, b] for a, b in pairs])
