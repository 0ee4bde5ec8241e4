"""Dyadic-crossing partitions and level-crossing counters.

Generation ``n`` uses the level grid ``{j * 2**-n : j integer}``.  A new
partition time is recorded whenever the closed interval spanned by the value
at the previous partition time and the current value contains a level other
than the currently tracked one; the tracked level then becomes the
qualifying level closest to the new value (ties broken toward the smaller
level, although the construction never actually produces a tie because the
excluded level is never adjacent to the landing value).

Step paths trigger at event times; linear paths trigger at exact segment
roots against the levels.  ``inf`` plays the role of "never" for stopping
times; emitted time arrays contain realized times only.

Nesting lemma.  The tracked index is the play operator
``j_e = clip(j_{e-1}, floor(x_e), ceil(x_e))`` on ``x = 2**n * value`` (see
:mod:`pathcalc._kernels`).  Let ``J`` be the generation-n index and ``j``
the generation-``(n-1)`` one, on ``x / 2``.  Then ``j_0 = floor(J_0 / 2)`` and

    ``j_e = clip(j_{e-1}, floor(J_e / 2), ceil(J_e / 2))``,

so ``2 j_e - J_e`` is always -1, 0 or 1: ``j = J / 2`` when ``J`` is even
and ``j`` is one of ``(J - 1) / 2``, ``(J + 1) / 2`` when ``J`` is odd.

Proof.  ``floor(x_0 / 2) = floor(floor(x_0) / 2)``.  At ``e >= 1`` assume
``|2 j_{e-1} - J_{e-1}| <= 1``.

- ``J`` stays at ``J``: ``floor(x_e) <= J <= ceil(x_e)`` puts ``x_e`` in the
  open band ``(J - 1, J + 1)``.  For ``J = 2k`` the coarse clamp
  ``[floor(x_e / 2), ceil(x_e / 2)]`` contains ``k = j_{e-1}``, so ``j``
  stays ``k``, as ``clip(k, k, k)`` does.  For ``J = 2k + 1``, ``x_e / 2``
  lies in ``(k, k + 1)`` and the coarse clamp is ``[k, k + 1]`` itself.
- ``J`` rises to ``J_e = floor(x_e)``: ``x_e / 2`` lies in
  ``[J_e / 2, (J_e + 1) / 2)``, so the coarse clamp has the lower end
  ``floor(J_e / 2)``, and ``j_{e-1} <= ceil(J_{e-1} / 2) <= floor(J_e / 2)``.
  Both clamps therefore send ``j_{e-1}`` to ``floor(J_e / 2)``.
- ``J`` falls: the mirror image, with both results ``ceil(J_e / 2)``.

Consequences.  ``j`` changes only where ``J`` does, and where ``J`` is
constant the clamp repeats, so running the recursion over the fine
partition alone (:func:`_coarsen`) gives the generation-``(n-1)`` indices
and, at the points where they change, its times: every coarse time is a
fine time, bit for bit.  In linear mode the partition lists every level
crossed.  The coarse index leaves ``j`` when the path reaches fine level
``2j + 2`` or ``2j - 2``; by continuity it first crosses every fine level
between, so each coarse crossing of level ``L`` is the fine crossing of
``2L`` on the same segment, and its root is the same float expression,
because ``L * 2**-(n-1) == 2L * 2**-n`` exactly.  :func:`partition_ladder`
therefore scans the events once, at the finest generation, and derives the
others; the halving is done on int64 indices, which stay exact beyond
``2**53``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .errors import ContractError
from .paths import MODE_LINEAR, MODE_STEP, Path

MAX_GENERATION = 52

MAX_LINEAR_POINTS = 2 ** 26
"""Largest linear-mode partition built; one point per level crossed."""

MAX_CROSSING_INTERVALS = 2 ** 20
"""Largest number of grid intervals :func:`crossing_report` counts."""

SENTINEL = np.inf
"""Stopping-time value meaning "never happens" (beyond any horizon)."""


@dataclass(frozen=True)
class LebesguePartition:
    """Realized crossing times of one generation.

    ``level_indices`` holds the tracked dyadic indices ``j`` (level is
    ``j * 2**-generation``); it is ``None`` for multi-dimensional partitions,
    which only carry times.  ``finite`` records that the recursion exhausted
    the path before the horizon, which always holds for finite event tables.
    """

    generation: int
    times: np.ndarray
    level_indices: np.ndarray | None = None
    finite: bool = True

    def __post_init__(self):
        times = np.ascontiguousarray(np.asarray(self.times, dtype=np.float64))
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        if self.level_indices is not None:
            idx = np.ascontiguousarray(np.asarray(self.level_indices, dtype=np.int64))
            idx.flags.writeable = False
            object.__setattr__(self, "level_indices", idx)

    @property
    def levels(self) -> np.ndarray | None:
        if self.level_indices is None:
            return None
        return self.level_indices * 2.0 ** -self.generation

    def __len__(self) -> int:
        return self.times.shape[0]


def _check_generation(n: int):
    if not 1 <= int(n) <= MAX_GENERATION:
        raise ContractError(f"generation must be in 1..{MAX_GENERATION}, got {n}")


def lebesgue_partition_1d(path: Path, n: int) -> LebesguePartition:
    """Crossing times and tracked levels of a 1-d path at generation n."""
    _check_generation(n)
    if path.dim != 1:
        raise ContractError("lebesgue_partition_1d needs a 1-dimensional path")
    scale = 2.0 ** int(n)
    values = path.values[:, 0]
    if path.mode == MODE_STEP:
        out_t, out_j, cnt = K.partition_step(path.times, values, scale)
        return LebesguePartition(int(n), out_t[:cnt].copy(), out_j[:cnt].copy())
    cnt = K.partition_linear_count(path.times, values, scale)
    if cnt > MAX_LINEAR_POINTS:
        raise ContractError(f"generation {n} crosses {cnt} levels, more than "
                            f"{MAX_LINEAR_POINTS}: use a coarser generation")
    out_t = np.empty(cnt, np.float64)
    out_j = np.empty(cnt, np.int64)
    K.partition_linear_fill(path.times, values, scale, out_t, out_j)
    return LebesguePartition(int(n), out_t, out_j)


def _components(path: Path) -> list[Path]:
    """The 1-d paths whose partitions make up the d-dimensional one.

    The path itself when ``d = 1``; else the coordinates, then the pairwise
    sums ``S^i + S^j`` for ``i < j``.
    """
    if path.dim == 1:
        return [path]
    d = path.dim
    return ([path.coordinate(i) for i in range(1, d + 1)]
            + [path.coordinate_sum(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)])


def _coarsen(part: LebesguePartition) -> tuple[LebesguePartition, np.ndarray]:
    """Generation ``n - 1`` of a 1-d partition, derived from generation n.

    Returns the coarse partition and the indices of its points in ``part``.
    It is bit-identical to :func:`lebesgue_partition_1d` at ``n - 1``, in
    either mode (see the nesting lemma in the module docstring).
    """
    sel, idx = K.partition_coarsen(part.level_indices)
    return LebesguePartition(part.generation - 1, part.times[sel], idx), sel


def lebesgue_partition_nd(path: Path, n: int) -> LebesguePartition:
    """Sorted union of the coordinate and pairwise-sum partition times.

    A 1-d path is its own only component, so its partition is
    :func:`lebesgue_partition_1d`'s, level indices included.
    """
    _check_generation(n)
    pieces = [lebesgue_partition_1d(c, n) for c in _components(path)]
    if len(pieces) == 1:
        return pieces[0]
    return LebesguePartition(int(n), np.unique(np.concatenate([p.times for p in pieces])))


def partition_ladder(path: Path, n_max: int) -> tuple[list[LebesguePartition], np.ndarray,
                                                      list[np.ndarray]]:
    """Generations 1..n_max of :func:`lebesgue_partition_nd`, their grid and positions.

    Returns ``(parts, grid, positions)`` with ``parts[n - 1]`` the
    generation-n partition, ``grid = unique(event times and every
    generation's times)``, the common grid on which limits along the ladder
    are taken, and ``positions[n - 1]`` the grid positions of
    ``parts[n - 1].times`` (``searchsorted(grid, times)``).  Each component
    is scanned once, at ``n_max``, and its points are located on the grid
    once; every coarser generation is derived from the next finer one by
    :func:`_coarsen`, and its positions are the fine ones at the points it
    keeps.  A d-dimensional generation holds the grid points at which any
    of its components has a point.  By nesting, the grid is the union of the
    event times and generation ``n_max``.
    """
    if not 1 <= int(n_max) <= MAX_GENERATION:
        raise ContractError(f"n_max must be in 1..{MAX_GENERATION}, got {n_max}")
    pieces = [lebesgue_partition_1d(c, n_max) for c in _components(path)]
    grid = np.unique(np.concatenate([path.times] + [p.times for p in pieces]))
    pos = [np.searchsorted(grid, p.times) for p in pieces]
    parts, positions = [], []
    for n in range(int(n_max), 0, -1):
        if n < n_max:
            derived = [_coarsen(p) for p in pieces]
            pieces = [coarse for coarse, _ in derived]
            pos = [at[sel] for at, (_, sel) in zip(pos, derived)]
        if len(pieces) == 1:
            parts.append(pieces[0])
            positions.append(pos[0])
        else:
            on_grid = np.zeros(grid.shape[0], np.bool_)
            for piece_pos in pos:
                on_grid[piece_pos] = True
            at = np.flatnonzero(on_grid)
            parts.append(LebesguePartition(n, grid[at]))
            positions.append(at)
    parts.reverse()
    positions.reverse()
    return parts, grid, positions


def chi(partition: LebesguePartition, t: float) -> float:
    """Largest partition time <= t (the coarse-projection map)."""
    if t < 0:
        raise ContractError("chi needs t >= 0")
    idx = int(np.searchsorted(partition.times, t, side="right")) - 1
    return float(partition.times[max(idx, 0)])


def _sample_values(path: Path, t: float | None) -> np.ndarray:
    """Value sequence that witnesses every crossing up to time t.

    Event values up to t; in linear mode the value at t itself is appended
    (monotone segments attain their extrema at endpoints, so this sequence
    is exact for crossing counts in both modes).
    """
    if path.dim != 1:
        raise ContractError("crossing counters work on 1-dimensional paths")
    t = float(path.horizon) if t is None else float(t)
    if not 0.0 <= t <= path.horizon:
        raise ContractError("t outside [0, horizon]")
    upto = int(np.searchsorted(path.times, t, side="right"))
    vals = path.values[:upto, 0]
    if path.mode == MODE_LINEAR and t > path.times[upto - 1]:
        vals = np.append(vals, path.eval(t)[0])
    return np.ascontiguousarray(vals)


def crossings(path: Path, a: float, b: float, t: float | None = None) -> tuple[int, int]:
    """Greedy (supremum-attaining) up/down crossing counts of (a, b) by time t."""
    if a >= b:
        raise ContractError("need a < b")
    vals = _sample_values(path, t)
    up, down = K.crossings_greedy(vals, float(a), float(b))
    return int(up), int(down)


def crossings_accumulated(path: Path, h: float, t: float | None = None) -> tuple[int, int]:
    """Accumulated crossing counts over the full level grid of spacing h."""
    if h <= 0:
        raise ContractError("need h > 0")
    return K.crossings_total_up(_sample_values(path, t), float(h))


def upcrossings_at_events(path: Path, h: float) -> np.ndarray:
    """``crossings_accumulated(path, h, t)[0]`` at every event time t, in one scan."""
    if h <= 0:
        raise ContractError("need h > 0")
    if path.dim != 1:
        raise ContractError("crossing counters work on 1-dimensional paths")
    return K.crossings_up_prefix(np.ascontiguousarray(path.values[:, 0]), float(h))


def crossing_report(path: Path, h: float, t: float | None = None) -> dict:
    """Per-interval crossing counts plus totals, as a JSON-ready dict.

    When ``h`` is a dyadic spacing ``2**-n`` the report also carries the
    asymptotic crossing budget ``n^2 2^{2n}`` and the observed ratio as a
    diagnostic; the budget is asymptotic and never asserted.
    """
    if h <= 0:
        raise ContractError("need h > 0")
    vals = _sample_values(path, t)
    t_eff = float(path.horizon) if t is None else float(t)
    lo, hi = np.floor(vals.min() / h), np.ceil(vals.max() / h)
    if not hi - lo + 3 <= MAX_CROSSING_INTERVALS:  # also rejects an infinite quotient
        raise ContractError(f"spacing {h} gives {hi - lo + 3:.3g} intervals, more than "
                            f"{MAX_CROSSING_INTERVALS}: use a coarser spacing")
    klo, khi = int(lo) - 1, int(hi) + 1
    up, down = K.crossings_interval_batch(vals, klo, khi, float(h))
    per_interval = [
        {"k": int(klo + i), "a": (klo + i) * h, "b": (klo + i + 1) * h,
         "up": int(up[i]), "down": int(down[i])}
        for i in np.flatnonzero(up | down).tolist()
    ]
    report = {
        "h": h,
        "t": t_eff,
        "U": int(up.sum()),
        "D": int(down.sum()),
        "per_interval": per_interval,
    }
    n = -np.log2(h)
    if n > 0 and n == np.floor(n):
        budget = float(n) ** 2 * 2.0 ** (2 * n)
        report["generation"] = int(n)
        report["crossing_budget"] = budget
        report["budget_ratio"] = max(report["U"], report["D"]) / budget
    return report


def write_partition_csv(partition: LebesguePartition, file):
    """Export as ``k,tau,level`` (level blank for multi-dimensional)."""
    levels = partition.levels
    with open(file, "w") as fh:
        fh.write("k,tau,level\n")
        for k in range(len(partition)):
            lev = repr(float(levels[k])) if levels is not None else ""
            fh.write(f"{k},{repr(float(partition.times[k]))},{lev}\n")
