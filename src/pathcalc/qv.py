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
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels as K
from .errors import ContractError
from .partitions import (MAX_GENERATION, SENTINEL, LebesguePartition, _coarsen, _on_grid,
                         _partition_table, lebesgue_partition_1d, lebesgue_partition_nd,
                         partition_ladder)
from .paths import MODE_STEP, Path, PsiSpec, _create, _scalar, _write_json, _write_table

Q0_CONVENTION = "Q^0 := 0, so Z^1 = Q^1"


def _pairs(d: int) -> list[tuple[int, int]]:
    """Coordinate pairs ``(a, b)``, ``a <= b``, in the row order of ``qv_on_grid``."""
    return [(a, b) for a in range(d) for b in range(a, d)]


def _pair_matrix(rows: np.ndarray, cols, d: int) -> np.ndarray:
    """The symmetric ``(..., d, d)`` matrices of the pair rows of ``qv_on_grid`` at ``cols``."""
    out = np.empty(np.shape(cols) + (d, d))
    for row, (a, b) in zip(rows, _pairs(d)):
        out[..., a, b] = out[..., b, a] = row[cols]
    return out


def _qv_at(path: Path, partition: LebesguePartition, t: float) -> np.ndarray:
    """``Q^n_t`` along ``partition``: one ``qv_on_grid`` on its times clamped at t, then t.

    The kernel reads the values at the partition points and at t alone, as in ``qv_limit``.
    """
    clamped = np.append(np.minimum(partition.times, t), t)
    q = K.qv_on_grid(path.eval(clamped), np.arange(len(partition)))
    return _pair_matrix(q, -1, path.dim)


def discrete_qv(path: Path, partition: LebesguePartition, t: float) -> float:
    """``Q^n_t`` of a 1-d path along realized partition times."""
    if path.dim != 1:
        raise ContractError("discrete_qv needs a 1-d path; use discrete_cross_qv")
    return discrete_cross_qv(path, partition.generation, 1, 1, t, partition)


def discrete_cross_qv(path: Path, n: int, i: int, j: int, t: float,
                      partition: LebesguePartition | None = None) -> float:
    """``Q^{i,j,n}_t`` along the d-dimensional partition (1-based i, j).

    It is entry ``(i, j)`` of :func:`_qv_at`, the sum ``qv_limit`` takes, bit for bit.
    """
    i, j = _scalar(i, "i", 1, path.dim, integer=True), _scalar(j, "j", 1, path.dim, integer=True)
    t = _scalar(t, "t", 0, path.horizon)
    part = partition if partition is not None else lebesgue_partition_nd(path, n)
    if part.times[-1] > path.horizon:
        raise ContractError("partition does not belong to this path")
    return float(_qv_at(path, part, t)[i - 1, j - 1])


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
    tol = _scalar(tol, "tol", 0, open_lo=True)
    partitions, grid, positions = partition_ladder(path, n_max)
    n_max, d = len(partitions), path.dim
    vals = path.values if path.mode == MODE_STEP else path.eval(grid)

    prev = np.zeros((d * (d + 1) // 2, len(grid)))  # Q^0; spent, it holds |Q^n - Q^{n-1}|
    z_sup = np.empty(n_max)
    qv_terminal = np.empty((n_max, d, d))
    qv_paths: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    for n, (part, pos) in enumerate(zip(partitions, positions), start=1):
        cur = K.qv_on_grid(vals, pos)
        z_sup[n - 1] = np.abs(np.subtract(cur, prev, out=prev), out=prev).max()
        qv_terminal[n - 1] = _pair_matrix(cur, -1, d)
        if keep_generations or n == n_max:
            qv_paths[n] = (part.times, _pair_matrix(cur, pos, d))
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

class _ZData(NamedTuple):
    """Generation n's Z record on its grid: see :func:`_z_data`."""

    grid: np.ndarray
    z: np.ndarray              # Z^n on the grid
    comp: np.ndarray           # its compensator on the grid
    fine_times: np.ndarray     # the generation-n partition times
    fine_pos: np.ndarray       # their grid positions
    h: np.ndarray | None       # the compensated-Z position at each fine point
    t_acc: float               # first fine time whose compensator passes n^4 2^{-2n}


def _z_data(path: Path, n: int) -> _ZData:
    """Z^n, its compensator and the compensated-Z positions of generation n.

    The grid is :func:`pathcalc.partitions._on_grid`'s for the generation-n
    partition (which contains the coarse one).  The compensator is
    ``sum_k (dZ along pi_n)^2``, with the partial tail.  The coarse
    partition is derived from the fine one, and its grid positions are the
    fine ones at the points it keeps.  At a fine point the compensated-Z
    strategy holds ``h = -4 Z (S - S at chi)``, where its coarse projection
    chi is the last coarse point at or before it; h is ``None`` at n = 1.
    ``t_acc``, the half of σ that does not depend on K, is the first fine
    partition time after 0 whose compensator passes ``n^4 2^{-2n}`` (``inf``
    if none does).  Every array is read-only.  The record depends on the
    path and n alone, in either mode, so it is kept in the path's memo under
    ``("z", n)`` and every later call returns that entry.
    """
    n = _scalar(n, "n", 1, MAX_GENERATION, integer=True)
    if path.dim != 1:
        raise ContractError("Z/K processes are defined for 1-d paths")

    def scan() -> _ZData:
        pn = lebesgue_partition_1d(path, n)
        grid, (pos,) = _on_grid(path, [pn])
        vals = path.values if path.mode == MODE_STEP else path.eval(grid)
        z = K.qv_on_grid(vals, pos)[0]
        h = None
        if n >= 2:
            coarse_pos = pos[_coarsen(pn)[1]]
            z = z - K.qv_on_grid(vals, coarse_pos)[0]
            # both generations start at grid position 0, so every fine point has a chi
            chi_pos = coarse_pos[np.searchsorted(coarse_pos, pos, side="right") - 1]
            h = -4.0 * z[pos] * (vals[pos, 0] - vals[chi_pos, 0])
        comp = K.qv_on_grid(z[:, None], pos)[0]
        hit = np.flatnonzero(comp[pos[1:]] > float(n) ** 4 * 2.0 ** (-2 * n))
        t_acc = float(pn.times[hit[0] + 1]) if hit.size else SENTINEL
        data = _ZData(grid, z, comp, pn.times, pos, h, t_acc)
        for arr in data:
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        return data

    return path._memo(("z", n), scan)


def _z_at(path: Path, n: int, t: float) -> tuple[float, float]:
    """``(Z^n_t, compensator at t)``: :func:`_z_data`'s record at the last grid time <= t if t
    is a grid time or the path a step path; else ``Q^n_t - Q^{n-1}_t`` by :func:`_qv_at` and
    the compensator at the last fine point plus ``(dZ)^2``, the sums of a grid holding t."""
    t = _scalar(t, "t", 0, path.horizon)
    zd = _z_data(path, n)
    it = int(np.searchsorted(zd.grid, t, side="right")) - 1
    if path.mode == MODE_STEP or zd.grid[it] == t:
        return float(zd.z[it]), float(zd.comp[it])
    pn = lebesgue_partition_1d(path, n)
    z = float(_qv_at(path, pn, t)[0, 0])
    if n >= 2:
        z -= float(_qv_at(path, _coarsen(pn)[0], t)[0, 0])
    tau = zd.fine_pos[int(np.searchsorted(zd.fine_times, t, side="right")) - 1]
    dz = z - float(zd.z[tau])
    return z, float(zd.comp[tau]) + dz * dz


def z_process(path: Path, n: int, t: float) -> float:
    """``Z^n_t = Q^n_t - Q^{n-1}_t`` (with ``Q^0 := 0``)."""
    return _z_at(path, n, t)[0]


@lru_cache(maxsize=256, typed=True)  # only checked calls are kept; typed keeps True apart from 1
def k_constant(n: int, K_bound: int, psi: PsiSpec) -> float:
    """``n^4 2^{-2n} + 2^{-n+5} (K + psi(K))^2``."""
    n = _scalar(n, "n", 1, MAX_GENERATION, integer=True)
    K_bound = _scalar(K_bound, "K", 1, integer=True)
    try:  # an overflow raises at ``**``, or gives inf at ``+``
        return _scalar(float(n) ** 4 * 2.0 ** (-2 * n)
                       + 2.0 ** (-n + 5) * (K_bound + float(psi(float(K_bound)))) ** 2,
                       f"the K-process budget at K = {K_bound}")
    except OverflowError as exc:
        raise ContractError(f"K = {K_bound} overflows the K-process budget") from exc


def k_process(path: Path, n: int, K_bound: int, psi: PsiSpec, t: float) -> float:
    """Compensated square of Z^n at time t.

    ``n^4 2^{-2n} + 2^{-n+5}(K+psi(K))^2 + (Z^n_t)^2 - sum_k (dZ along pi_n)^2``.
    """
    budget = k_constant(n, K_bound, psi)
    z, comp = _z_at(path, n, t)
    return budget + z ** 2 - comp


def _sigma_from_z(zd: _ZData, K_bound: int) -> float:
    """:func:`sigma_n_K` from generation n's :func:`_z_data`, for a checked ``K_bound``."""
    hit_z = np.flatnonzero(zd.z[zd.fine_pos[1:]] > K_bound)
    t_z = zd.fine_times[hit_z[0] + 1] if hit_z.size else SENTINEL
    return float(min(zd.t_acc, t_z))


def sigma_n_K(path: Path, n: int, K_bound: int) -> float:
    """First partition time where the Z-increment budget or level K is breached.

    Returns the earlier of the first generation-n partition time with
    accumulated squared Z-increments above ``n^4 2^{-2n}`` and the first one
    with ``Z^n > K``; ``inf`` if neither occurs.
    """
    return _sigma_from_z(_z_data(path, n), _scalar(K_bound, "K", 1, integer=True))


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
    tolerance = _scalar(tolerance, "tolerance", 0, np.inf)
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

def write_qv_report(report: QVReport, json_file, csv_file=None, partition_file=None):
    """JSON diagnostics, optional CSV of the limit matrix path and, beside it,
    ``report.partition`` as ``k,tau,level`` (blank levels for d > 1), one row per limit time;
    a partition file that breaks this is refused before anything is written."""
    if partition_file is not None and (csv_file is None or report.partition is None
                                       or len(report.partition) != len(report.limit_times)):
        raise ContractError("a partition file needs csv_file and one partition row per limit time")
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
        with _create(csv_file) as fh:
            _write_table(fh, ["t"] + [f"qv_{a + 1}{b + 1}" for a, b in pairs],
                         [report.limit_times] + [report.limit_values[:, a, b] for a, b in pairs])
    if partition_file is not None:
        with _create(partition_file) as fh:
            _write_table(fh, *_partition_table(report.partition))
