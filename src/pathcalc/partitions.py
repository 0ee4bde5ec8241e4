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
from .paths import MODE_LINEAR, MODE_STEP, Path, _scalar, _value_eq

MAX_GENERATION = 52

MAX_LINEAR_POINTS = 2 ** 26
"""Largest linear-mode partition built; one point per level crossed."""

MAX_CROSSING_INTERVALS = 2 ** 20
"""Largest number of grid intervals :func:`crossing_report` counts."""

SENTINEL = np.inf
"""Stopping-time value meaning "never happens" (beyond any horizon)."""


@dataclass(frozen=True, eq=False)
class LebesguePartition:
    """Realized crossing times of one generation.

    ``level_indices`` holds the tracked dyadic indices ``j`` (level is
    ``j * 2**-generation``); it is ``None`` for multi-dimensional partitions,
    which only carry times.  ``event_indices`` locates the points in the
    path's event table: a 1-d step partition switches only at events, so it
    carries them; other partitions hold ``None``.
    """

    generation: int
    times: np.ndarray
    level_indices: np.ndarray | None = None
    event_indices: np.ndarray | None = None

    __eq__ = _value_eq
    __hash__ = None

    def __post_init__(self):
        times = np.ascontiguousarray(np.asarray(self.times, dtype=np.float64))
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        for name in ("level_indices", "event_indices"):
            if getattr(self, name) is not None:
                idx = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.int64))
                idx.flags.writeable = False
                object.__setattr__(self, name, idx)

    @property
    def levels(self) -> np.ndarray | None:
        if self.level_indices is None:
            return None
        return self.level_indices * 2.0 ** -self.generation

    def __len__(self) -> int:
        return self.times.shape[0]


def lebesgue_partition_1d(path: Path, n: int) -> LebesguePartition:
    """Crossing times and tracked levels of a 1-d path at generation n."""
    n = _scalar(n, "n", 1, MAX_GENERATION, integer=True)
    if path.dim != 1:
        raise ContractError("lebesgue_partition_1d needs a 1-dimensional path")
    scale = 2.0 ** n
    values = path.values[:, 0]
    if path.mode == MODE_STEP:
        idx, level_idx = K.partition_step(values, scale)
        return LebesguePartition(n, path.times[idx], level_idx, event_indices=idx)
    cnt, j = K.partition_linear_count(values, scale)
    if cnt > MAX_LINEAR_POINTS:
        raise ContractError(f"generation {n} crosses {cnt} levels, more than "
                            f"{MAX_LINEAR_POINTS}: use a coarser generation")
    return LebesguePartition(n, *K.partition_linear_fill(path.times, values, scale, j))


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
    events = None if part.event_indices is None else part.event_indices[sel]
    return LebesguePartition(part.generation - 1, part.times[sel], idx, event_indices=events), sel


def lebesgue_partition_nd(path: Path, n: int) -> LebesguePartition:
    """Sorted union of the coordinate and pairwise-sum partition times.

    A 1-d path is its own only component, so its partition is
    :func:`lebesgue_partition_1d`'s, level indices included.
    """
    n = _scalar(n, "n", 1, MAX_GENERATION, integer=True)
    pieces = [lebesgue_partition_1d(c, n) for c in _components(path)]
    if len(pieces) == 1:
        return pieces[0]
    return LebesguePartition(n, np.unique(np.concatenate([p.times for p in pieces])))


def _on_grid(path: Path, pieces: list[LebesguePartition]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The grid holding the events and ``pieces``, and each piece's positions.

    ``pieces`` are 1-d partitions of ``path``'s components.  In step mode
    every partition time is an event time, so the grid is the event table
    ``path.times`` itself and the positions are the pieces' ``event_indices``:
    no union and no search is made.  In linear mode the grid is
    ``unique(events, pieces)`` and the positions are found on it by search.
    """
    if path.mode == MODE_STEP:
        return path.times, [p.event_indices for p in pieces]
    grid = np.unique(np.concatenate([path.times] + [p.times for p in pieces]))
    return grid, [np.searchsorted(grid, p.times) for p in pieces]


def partition_ladder(path: Path, n_max: int) -> tuple[list[LebesguePartition], np.ndarray,
                                                      list[np.ndarray]]:
    """Generations 1..n_max of :func:`lebesgue_partition_nd`, their grid and positions.

    Returns ``(parts, grid, positions)`` with ``parts[n - 1]`` the
    generation-n partition, ``grid = unique(event times and every
    generation's times)``, the common grid on which limits along the ladder
    are taken, and ``positions[n - 1]`` the grid positions of
    ``parts[n - 1].times`` (``searchsorted(grid, times)``).  Each component
    is scanned once, at ``n_max``, and its points are located on the grid
    once, by :func:`_on_grid`; every coarser generation is derived from the
    next finer one by :func:`_coarsen`, and its positions are the fine ones
    at the points it keeps.  A d-dimensional generation holds the grid
    points at which any of its components has a point.  By nesting, the
    grid is the union of the event times and generation ``n_max``.
    """
    n_max = _scalar(n_max, "n_max", 1, MAX_GENERATION, integer=True)
    pieces = [lebesgue_partition_1d(c, n_max) for c in _components(path)]
    grid, pos = _on_grid(path, pieces)
    parts, positions = [], []
    for n in range(n_max, 0, -1):
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
    t = _scalar(t, "t", 0)
    idx = int(np.searchsorted(partition.times, t, side="right")) - 1
    return float(partition.times[max(idx, 0)])


def _prefix_end(path: Path, t: float | None) -> tuple[int, float | None]:
    """``(upto, tail)``: the events up to time t are ``values[:upto]``.

    ``tail`` is the value at t in linear mode when t falls strictly between
    events, else ``None``; monotone segments attain their extrema at
    endpoints, so the events up to t, then ``tail``, witness every crossing
    up to t in both modes.
    """
    if path.dim != 1:
        raise ContractError("crossing counters work on 1-dimensional paths")
    t = path.horizon if t is None else _scalar(t, "t", 0, path.horizon)
    upto = int(path.times.searchsorted(t, side="right"))
    if path.mode == MODE_LINEAR and t > path.times[upto - 1]:
        return upto, path.eval(t)[0]
    return upto, None


def _sample_values(path: Path, t: float | None) -> np.ndarray:
    """Value sequence that witnesses every crossing up to time t (see :func:`_prefix_end`)."""
    upto, tail = _prefix_end(path, t)
    vals = path.values[:upto, 0]
    return vals if tail is None else np.append(vals, tail)


def crossings(path: Path, a: float, b: float, t: float | None = None) -> tuple[int, int]:
    """Greedy (supremum-attaining) up/down crossing counts of (a, b) by time t."""
    a, b = _scalar(a, "a"), _scalar(b, "b")
    if not a < b:
        raise ContractError("need a < b")
    vals = _sample_values(path, t)
    up, down = K.crossings_greedy(vals, a, b)
    return int(up), int(down)


def _crossing_scan(path: Path, h: float) -> K.CrossingPrefixes:
    """The path's accumulated crossings at spacing h, scanned on first use.

    The scan covers the whole event table and is kept in the path's memo,
    keyed by ``float(h)``, so every later query at h reads it.
    """
    h = _scalar(h, "h", 0, open_lo=True)
    if path.dim != 1:
        raise ContractError("crossing counters work on 1-dimensional paths")
    return path._memo(h, lambda: K.crossings_prefix(path.values[:, 0], h))


def crossings_accumulated(path: Path, h: float, t: float | None = None) -> tuple[int, int]:
    """Accumulated up/down crossing counts over the full level grid of spacing h, by time t.

    The counts at every event come from one scan of the path per spacing,
    kept on the path (:func:`_crossing_scan`): a query reads the prefix
    ending at the last event at or before t and, in linear mode with t
    strictly between events, extends it by the value at t.  A query raises
    :class:`ContractError` exactly when its own prefix holds a scaled value
    ``x / h`` of ``2**62`` or more in magnitude or a count beyond
    ``2**63 - 1``, whatever the rest of the path holds.
    """
    scan = _crossing_scan(path, h)
    return scan.at(*_prefix_end(path, t))


def upcrossings_at_events(path: Path, h: float) -> np.ndarray:
    """``crossings_accumulated(path, h, t)[0]`` at every event time t, read-only.

    Reads the same scan as :func:`crossings_accumulated`.
    """
    return _crossing_scan(path, h).ups()


def crossing_report(path: Path, h: float, t: float | None = None) -> dict:
    """Per-interval crossing counts plus totals, as a JSON-ready dict.

    The counts read ``values / h`` against the integers, as
    :func:`crossings_accumulated` does, so ``U`` and ``D`` equal its counts
    at every spacing; interval ``k`` is labelled by the products ``k * h``
    and ``(k + 1) * h``.  Raises :class:`ContractError` when a scaled value
    reaches ``2**62`` in magnitude, as every level counter does.

    When ``h`` is a dyadic spacing ``2**-n`` the report also carries the
    asymptotic crossing budget ``n^2 2^{2n}`` and the observed ratio as a
    diagnostic; the budget is asymptotic and never asserted.
    """
    h = _scalar(h, "h", 0, open_lo=True)
    vals = _sample_values(path, t)
    t_eff = float(path.horizon) if t is None else float(t)
    with np.errstate(over="ignore"):
        lo, hi = np.floor(vals.min() / h), np.ceil(vals.max() / h)
    if not hi - lo + 3 <= MAX_CROSSING_INTERVALS:  # also rejects an infinite quotient
        raise ContractError(f"spacing {h} gives {hi - lo + 3:.3g} intervals, more than "
                            f"{MAX_CROSSING_INTERVALS}: use a coarser spacing")
    klo, khi = int(lo) - 1, int(hi) + 1
    up, down = K.crossings_interval_batch(vals, klo, khi, h)
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


def _partition_table(partition: LebesguePartition):
    """Header and columns of ``k,tau,level``; the level column is ``(level_indices,
    2**-generation)``, whose products are :attr:`LebesguePartition.levels` bit for bit."""
    idx = partition.level_indices
    level = (idx, 2.0 ** -partition.generation) if idx is not None else np.full(len(partition), "")
    return ["k", "tau", "level"], [np.arange(len(partition)), partition.times, level]
