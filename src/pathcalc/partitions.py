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


def lebesgue_partition_nd(path: Path, n: int) -> LebesguePartition:
    """Sorted union of the coordinate and pairwise-sum partition times."""
    _check_generation(n)
    if path.dim == 1:
        p = lebesgue_partition_1d(path, n)
        return LebesguePartition(int(n), p.times, None)
    pieces = [lebesgue_partition_1d(path.coordinate(i), n).times
              for i in range(1, path.dim + 1)]
    for i in range(1, path.dim + 1):
        for j in range(i + 1, path.dim + 1):
            pieces.append(lebesgue_partition_1d(path.coordinate_sum(i, j), n).times)
    return LebesguePartition(int(n), np.unique(np.concatenate(pieces)), None)


def partition_ladder(path: Path, n_max: int) -> tuple[list[LebesguePartition], np.ndarray]:
    """Generations 1..n_max of :func:`lebesgue_partition_nd` and their grid.

    Returns ``(parts, grid)`` with ``parts[n - 1]`` the generation-n
    partition and ``grid = unique(event times and every generation's
    times)``, the common grid on which limits along the ladder are taken.
    """
    if not 1 <= int(n_max) <= MAX_GENERATION:
        raise ContractError(f"n_max must be in 1..{MAX_GENERATION}, got {n_max}")
    parts = [lebesgue_partition_nd(path, n) for n in range(1, int(n_max) + 1)]
    grid = np.unique(np.concatenate([path.times] + [p.times for p in parts]))
    return parts, grid


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
    vals = _sample_values(path, t)
    up = int(K.crossings_total_up(vals, float(h)))
    down = int(K.crossings_total_up(np.ascontiguousarray(-vals), float(h)))
    return up, down


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
        for i in range(len(up)) if up[i] or down[i]
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
