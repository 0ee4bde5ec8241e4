"""Numerical kernels: one NumPy implementation per kernel.

Dyadic levels are handled as scaled integers ``j`` with level ``j * 2**-n``.
The partition, crossing and Doob kernels rest on one primitive, the integer
play operator ``j_e = clip(j_{e-1}, lo_e, hi_e)`` (Krasnosel'skii &
Pokrovskii, *Systems with Hysteresis*, 1989), computed for integer clamps by
the prefix scan :func:`_play_scan`, written once here.  It has two entries:

- :func:`_play_tracks`, for scaled values ``x``, with the clamps
  ``[floor(x_e), ceil(x_e)]``.  Its switching times from
  ``j_0 = floor(x_0)`` are the Lebesgue partition times
  (``partition_step``), its unit steps are the linear-mode crossings
  (``partition_linear_count`` scans the track and counts them, and
  ``partition_linear_fill`` takes their roots from that track), and the
  positive steps of the track from ``j_0 = ceil(x_0)`` of ``values / h`` are the
  accumulated upcrossings of the grid of spacing ``h``, while the falls of
  the other track are the accumulated downcrossings (``crossings_prefix``,
  every prefix from one scan).  Every grid counter reads these tracks of
  ``values / h``: clipped to a range of intervals they give the greedy
  counts per interval (``crossings_interval_batch``) and the number of
  long intervals, which the Doob aggregate position counts
  (``doob_positions``).  On the halved fine indices, clamps
  ``[floor(J/2), ceil(J/2)]``, the scan derives generation ``n - 1`` from
  generation ``n`` (``partition_coarsen``; the nesting lemma is in
  :mod:`pathcalc.partitions`).
- :func:`_interval_tracks`, for the buy-low/sell-high state of one
  arbitrary interval ``(a, b)`` (``crossings_greedy`` and the step-mode
  interval trades of :mod:`pathcalc.strategies`).

Multiplying a float by ``2**n`` only shifts its exponent, so ``floor`` and
``ceil`` of ``value * 2**n`` are exact.  :func:`_play_tracks` is the only
place where a value becomes an int64 level index; it raises
:class:`ContractError` once a scaled value reaches ``2**62`` in magnitude,
so every index and every difference of two indices is exact.  Linear-mode
roots take the level ``j * 2**-n`` as a float64, which is exact only below
``2**53``, so the linear kernels raise from there on.  Indices are halved by
integer shifts, never through float64.  Counts summed from index differences
(accumulated crossings, linear partition sizes) go through
:func:`_running_total`, which finds where a total passes ``2**63 - 1``, and
the count raises :class:`ContractError` there instead of wrapping.

The scan resolves a prefix as soon as its composed clamp is a single
integer and stops once every prefix is resolved.  On a path that moves
between levels that takes a few doubling passes (a 2**16-event Brownian
path at n = 10 needs 3 of the 17); only a path that stays inside one cell
``(k, k + 1)`` keeps every prefix open and pays the full ``ceil(log2(m))``
passes, O(m log m).

``qv_on_grid`` finds each grid point's last partition point once per
generation, in one O(grid) ``np.repeat`` of the partition indices, and takes
each coordinate's tail from that point once; a pair's curve is then one
cumulative sum and one product of two tails.
The pathwise BDG kernels share one row body, :func:`_bdg_rows`;
``bdg_batch`` takes a list of sequences and stacks each equal-length group.

Each vectorized kernel returns exactly the bits of the per-event loop it
replaced; the test suite keeps those loops as its reference.  The bound at
each event of ``clip_jumps`` depends on the already-clipped prefix, but up
to the first clip that prefix is the input: the rows between clipping
episodes are scanned as arrays, and only an episode runs the loop.  Every
l2 norm of a row in pathcalc is :func:`row_norms`, whose one sum the loop's
bounds read too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

NUMBA_ENABLED = False  # no kernel is compiled (numba is not a dependency)


# ---------------------------------------------------------------------------
# The play operator and the Lebesgue partitions
# ---------------------------------------------------------------------------

def _play_scan(lo, hi):
    """Play-operator tracks through the integer clamps ``[lo[e], hi[e]]``.

    Needs ``lo <= hi`` elementwise.  Returns int64 arrays ``(lo_track,
    hi_track)``: ``j_e = clip(j_{e-1}, lo[e], hi[e])`` started from
    ``j_0 = lo[0]`` and from ``j_0 = hi[0]``.  A composition of clamps is
    again a clamp, ``[a2, b2] o [a1, b1] = [clip(a1, a2, b2), clip(b1, a2,
    b2)]``, so a Hillis-Steele doubling scan composes every prefix of the
    clamp intervals.  The composed prefix map sends the first interval's
    lower (upper) end to the lower (upper) end of the composed interval, so
    the scanned ends are the two tracks.

    Early exit.  Before the pass with offset ``d``, entry ``e >= d`` holds
    the composition of the clamps ``e - d + 1 .. e``; entries ``e < d``
    already hold their whole prefix.  A constant map (``lo == hi``) stays
    the same constant whatever is composed before it, so it is final too.
    Only the other entries, the live ones, are updated, and a live entry
    was live in every earlier pass, so it still covers exactly the last
    ``d`` clamps; composing with a constant partner makes it constant.  The
    scan stops when no entry is live.  Passes stay dense (whole-array)
    while at least half of the entries are live, and then update the live
    indices only.  A path that moves between cells resolves in a few
    passes; the worst case, a path that never leaves one cell, keeps every
    entry live and runs all ``ceil(log2(m))`` dense passes, O(m log m).
    """
    m = lo.shape[0]
    live = None  # the live indices, once passes are sparse
    d = 1
    while d < m:
        if live is None:
            lo, hi = (np.concatenate((lo[:d], np.minimum(np.maximum(lo[:-d], lo[d:]), hi[d:]))),
                      np.concatenate((hi[:d], np.minimum(np.maximum(hi[:-d], lo[d:]), hi[d:]))))
            mask = lo[2 * d:] != hi[2 * d:]
            n_live = np.count_nonzero(mask)
            if 2 * n_live < mask.shape[0]:
                live = np.flatnonzero(mask) + 2 * d
        else:
            a, b = lo[live], hi[live]
            lo[live] = na = np.minimum(np.maximum(lo[live - d], a), b)
            hi[live] = nb = np.minimum(np.maximum(hi[live - d], a), b)
            live = live[(na != nb) & (live >= 2 * d)]
            n_live = live.shape[0]
        if n_live == 0:
            break
        d *= 2
    return lo, hi


def _play_tracks(x, bits=62):
    """Play-operator tracks of the scaled values ``x``.

    The clamps are ``[floor(x_e), ceil(x_e)]``, so ``lo[e]`` is ``j_e``
    started from ``j_0 = floor(x_0)`` and ``hi[e]`` is ``j_e`` started from
    ``j_0 = ceil(x_0)`` (see :func:`_play_scan`).  Raises
    :class:`ContractError` once a scaled value reaches ``2**bits`` in
    magnitude: 62 keeps every int64 index exact, and the linear-mode roots,
    which take the level ``j * 2**-n`` as a float64, need 53.
    """
    if not np.all(np.abs(x) < 2.0 ** bits):
        raise _scaled_value_error(bits)
    return _play_scan(np.floor(x).astype(np.int64), np.ceil(x).astype(np.int64))


def _scaled_value_error(bits):
    return ContractError(f"a scaled value reaches 2**{bits} in magnitude, beyond exact "
                         "level indices: use a coarser generation or spacing")


def _count_error():
    return ContractError("a count exceeds 2**63 - 1, beyond int64: use a coarser "
                         "generation or spacing")


def _switches(j):
    """Indices of the first entry and of every entry where ``j`` changes."""
    return np.concatenate(([0], np.flatnonzero(j[1:] != j[:-1]) + 1))


def _running_total(steps):
    """Running total of the positive ``steps``, and how many of its entries are exact.

    Each step is below ``2**63`` and the total never decreases, so the first
    sum past ``2**63 - 1`` wraps to a negative value; the entries before it
    are the exact totals.
    """
    total = np.cumsum(np.maximum(steps, 0))
    wrapped = np.flatnonzero(total < 0)
    return total, int(wrapped[0]) if wrapped.size else total.shape[0]


def _accumulate(steps):
    """Sum of the positive ``steps``, exact in int64.

    Raises :class:`ContractError` once the sum passes ``2**63 - 1``.
    """
    total, exact = _running_total(steps)
    if exact < total.shape[0]:
        raise _count_error()
    return int(total[-1]) if total.shape[0] else 0


def partition_step(values, scale):
    """Dyadic-crossing events of a 1-d step path.

    ``scale = 2.0**n``.  Returns ``(idx, level_idx)``: the indices of the
    events where the tracked level index changes, ``idx[0] = 0``, and the
    index there, ``level_idx[0]`` the largest index with
    ``j * 2**-n <= values[0]``.  The partition times are ``times[idx]``.
    """
    j, _ = _play_tracks(values * scale)
    idx = _switches(j)
    return idx, j[idx]


def partition_coarsen(level_idx):
    """Generation ``n - 1`` crossings from the generation-n ones, either mode.

    ``level_idx`` are the indices ``J`` of a generation-n partition.  The
    coarse index is the play operator over the integer clamps
    ``[floor(J/2), ceil(J/2)]``, started from ``floor(J_0/2)``; the halving is
    an int64 shift, exact for every index.  Returns ``(sel, coarse_idx)``:
    the generation-n points that are generation-``(n - 1)`` points, and the
    coarse indices there.  The nesting lemma in :mod:`pathcalc.partitions`
    shows that the fine times at ``sel`` are the direct build's bits.
    """
    j, _ = _play_scan(level_idx >> 1, -((-level_idx) >> 1))
    sel = _switches(j)
    return sel, j[sel]


def partition_linear_count(values, scale):
    """Number of crossing times of a 1-d linear-mode path, and its track.

    Returns ``(1 + sum |dj|, j)`` with ``j`` the play-operator track of
    ``values * scale``, which :func:`partition_linear_fill` reads, so the
    path is scanned once and the caller can check the count before the
    crossing times are allocated.
    """
    j, _ = _play_tracks(values * scale, 53)
    return 1 + _accumulate(np.abs(np.diff(j))), j


def partition_linear_fill(times, values, scale, j):
    """Crossing times and level indices of a 1-d linear-mode path (exact segment roots).

    ``j`` is the track from :func:`partition_linear_count`.  On segment ``e``
    the tracked index moves one level at a time from ``j_{e-1}`` to ``j_e``;
    level ``j`` is crossed at ``ta + (j * 2**-n - va) * slope`` with
    ``slope = (tb - ta) / (vb - va)``.  A value step so small that the slope
    overflows float64 takes the root as the fraction
    ``(j * 2**-n - va) / (vb - va)`` of the segment instead.
    """
    inv = 1.0 / scale
    dj = np.diff(j)
    steps = np.abs(dj)
    seg = np.repeat(np.arange(dj.shape[0]), steps)
    # 1, 2, ..., |dj| within each segment
    rank = np.arange(1, seg.shape[0] + 1) - np.repeat(np.cumsum(steps) - steps, steps)
    lev_j = j[seg] + np.sign(dj)[seg] * rank
    ta = times[seg]
    va = values[seg]
    dt = times[seg + 1] - ta
    dv = values[seg + 1] - va
    rise = lev_j * inv - va
    with np.errstate(over="ignore"):
        slope_dt = dt / dv
    roots = np.where(np.isfinite(slope_dt), ta + rise * slope_dt, ta + rise / dv * dt)
    return np.concatenate((times[:1], roots)), np.concatenate((j[:1], lev_j))


# ---------------------------------------------------------------------------
# Discrete quadratic variation along a partition, evaluated on a grid
# ---------------------------------------------------------------------------

def qv_on_grid(x, part_pos):
    """``Q_t = sum_k (S^a increments)(S^b increments)`` with partial tail, every pair.

    ``x`` holds the ``d`` coordinates, shape ``(G, d)``, on a sorted
    evaluation grid that contains every partition time; ``part_pos`` are the
    sorted grid positions of the partition times (``part_pos[0] == 0``).
    Returns shape ``(d (d + 1) / 2, G)``: row ``r`` is the curve of the
    ``r``-th pair ``(a, b)``, ``a <= b``, in the order ``(0, 0), (0, 1), ..,
    (d - 1, d - 1)``.  ``np.cumsum`` adds strictly left to right from the
    leading ``0.0``, so every partial sum rounds as a running accumulator
    would; a repeated position contributes ``+0.0``.  Grid point ``g`` takes
    the sum up to the last partition point at or before it plus the partial
    tail.  That point's rank ``kp`` repeats partition index ``k`` over the
    grid points from ``part_pos[k]`` up to the next position (none for a
    repeated one).  It depends on the partition only, so it is formed once
    per call, as is each coordinate's tail ``S^a - S^a[part_pos[kp]]``; a
    pair then costs one cumulative sum, one gather and one product of two
    tails.  The gathers write into preallocated rows; their indices are in
    range, so ``mode="clip"`` never clips and only keeps ``take`` from
    buffering its output.
    """
    grid_size, d = x.shape
    npart = part_pos.shape[0]
    gaps = np.empty(npart, np.int64)  # grid points from each partition point to the next
    np.subtract(part_pos[1:], part_pos[:-1], out=gaps[:-1])
    gaps[-1] = grid_size - part_pos[-1]
    kp = np.arange(npart).repeat(gaps)
    tails = np.empty((d, grid_size))
    incr = []
    for a in range(d):
        col = x[:, a]
        at = col[part_pos]
        incr.append(at[1:] - at[:-1])
        np.subtract(col, at.take(kp, out=tails[a], mode="clip"), out=tails[a])
    out = np.empty((d * (d + 1) // 2, grid_size))
    prod = np.empty(grid_size)
    acc = np.empty(npart)
    r = 0
    for a in range(d):
        for b in range(a, d):
            acc[0] = 0.0
            np.multiply(incr[a], incr[b], out=acc[1:])
            acc.cumsum(out=acc)
            acc.take(kp, out=out[r], mode="clip")
            out[r] += np.multiply(tails[a], tails[b], out=prod)
            r += 1
    return out


# ---------------------------------------------------------------------------
# Interval states and crossing counters
# ---------------------------------------------------------------------------

def _interval_tracks(values, a, b):
    """Flat and long tracks ``(f, m)`` of the interval ``(a, b)``, ``a < b``.

    The buy-low/sell-high state is long after a value ``<= a``, flat after a
    value ``>= b``, unchanged by a value strictly inside, and neither before
    the first value outside.  A value ``v`` gives the clamp
    ``[v >= b, v > a]``: ``m`` and ``f`` are the play-operator tracks
    through these clamps from their upper and lower ends, so ``m == 0``
    where the state is long and ``f == 1`` where it is flat.  The interval
    completes an upcrossing (long to flat) where ``m`` rises and a
    downcrossing (flat to long) where ``f`` falls.
    """
    return _play_scan((values >= b).astype(np.int64), (values > a).astype(np.int64))


def crossings_greedy(values, a, b):
    """Greedy (optimal) up/down crossing counts of the open interval (a, b)."""
    f, m = _interval_tracks(values, a, b)
    return int(np.count_nonzero(m[1:] > m[:-1])), int(np.count_nonzero(f[1:] < f[:-1]))


@dataclass(frozen=True, eq=False)
class CrossingPrefixes:
    """Accumulated crossings of every prefix of a value sequence, from one scan.

    Made by :func:`crossings_prefix` for the grid of spacing ``h``.  The
    arrays cover the leading values whose scaled value ``values / h`` is
    below ``2**62`` in magnitude.  At entry ``e``, ``up[e]`` and ``down[e]``
    are the accumulated up- and downcrossings of ``values[:e + 1]``, and
    ``f[e]``/``m[e]`` are the play-operator tracks of :func:`_play_tracks`;
    ``up_exact``/``down_exact`` count the leading entries that are exact in
    int64.  ``size`` is the length of the whole sequence.  The scan is
    causal, so every prefix reads its counts from the arrays, and the tracks
    extend a prefix by one more value with one clamp.  The arrays are
    read-only.
    """

    h: float
    size: int
    f: np.ndarray
    m: np.ndarray
    up: np.ndarray
    down: np.ndarray
    up_exact: int
    down_exact: int

    def at(self, upto, tail=None):
        """``crossings_total_up`` of the first ``upto >= 1`` values, then ``tail`` if given.

        Raises the :class:`ContractError` that the direct scan of that
        sequence raises: when a scaled value in it reaches ``2**62`` in
        magnitude, else when one of its counts passes ``2**63 - 1``.
        """
        if tail is not None:
            with np.errstate(over="ignore"):
                tail = np.float64(tail) / self.h
        if upto > self.up.shape[0] or not (tail is None or abs(tail) < 2.0 ** 62):
            raise _scaled_value_error(62)
        if upto > min(self.up_exact, self.down_exact):
            raise _count_error()
        up, down = int(self.up[upto - 1]), int(self.down[upto - 1])
        if tail is not None:
            up += max(math.floor(tail) - int(self.m[upto - 1]), 0)
            down += max(int(self.f[upto - 1]) - math.ceil(tail), 0)
            if max(up, down) > np.iinfo(np.int64).max:
                raise _count_error()
        return up, down

    def ups(self):
        """Accumulated upcrossings of every prefix of the whole sequence, read-only.

        Raises :class:`ContractError` when a scaled value reaches ``2**62``
        in magnitude, else when an upcrossing count passes ``2**63 - 1``.
        """
        if self.up.shape[0] < self.size:
            raise _scaled_value_error(62)
        if self.up_exact < self.size:
            raise _count_error()
        return self.up.view()


def crossings_prefix(values, h):
    """Accumulated crossings of every prefix of ``values`` on the grid of spacing ``h``.

    The intervals ``(kh, (k+1)h)`` armed for an upcrossing are always the
    up-set ``{k >= m_e}``, where ``m`` is the play-operator track of
    ``values / h`` from ``ceil(values[0] / h)``; each upward step of ``m``
    completes one upcrossing per level passed.  The downcrossings are the
    upcrossings of ``-values``.  As ``floor(-x) = -ceil(x)``, the track of
    ``-values / h`` from ``ceil(-values[0] / h)`` is minus the track ``f``
    of ``values / h`` from ``floor(values[0] / h)``, so the downcrossings
    are the falls of ``f``.  One scan of the values in range gives both
    tracks; see :class:`CrossingPrefixes`.  A quotient that overflows is
    out of range, not a warning.
    """
    with np.errstate(over="ignore"):
        x = values / h
    out = np.flatnonzero(~(np.abs(x) < 2.0 ** 62))
    f, m = _play_tracks(x[:out[0]] if out.size else x)
    up, up_exact = _running_total(np.diff(m, prepend=m[:1]))
    down, down_exact = _running_total(-np.diff(f, prepend=f[:1]))
    for arr in (f, m, up, down):
        arr.flags.writeable = False
    return CrossingPrefixes(float(h), values.shape[0], f, m, up, down, up_exact, down_exact)


def crossings_total_up(values, h):
    """Accumulated upcrossings of ``values`` and of ``-values`` (its downcrossings)."""
    return crossings_prefix(values, h).at(values.shape[0])


def _range_counts(start, stop, size):
    """How many of the ranges ``[start[r], stop[r])`` hold each of ``0..size-1``."""
    ends = np.bincount(start, minlength=size + 1) - np.bincount(stop, minlength=size + 1)
    return np.cumsum(ends)[:size]


def _grid_tracks(values, klo, khi, h):
    """Play-operator tracks of ``values / h`` clipped to the intervals ``k = klo..khi``.

    Returns ``(f - klo, m - klo)`` clipped to ``[0, nk]`` and
    ``nk = khi - klo + 1``.  A nondecreasing map preserves the median of
    three, so clipping commutes with the play operator: the clipped tracks
    are those of the interval family, through the clamps
    ``[clip(floor(x) - klo), clip(ceil(x) - klo)]`` that count the
    intervals a value makes flat or long.  The long intervals are the up-set
    ``i >= m_e``, the flat ones the down-set ``i < f_e``; interval ``i``
    completes an upcrossing where ``m_{e-1} <= i < m_e`` and a downcrossing
    where ``f_e <= i < f_{e-1}``.
    """
    nk = max(khi - klo + 1, 0)
    f, m = _play_tracks(values / h)
    return np.clip(f - klo, 0, nk), np.clip(m - klo, 0, nk), nk


def crossings_interval_batch(values, klo, khi, h):
    """Greedy counts per interval (kh, (k+1)h) for k in [klo, khi], from :func:`_grid_tracks`."""
    f, m, nk = _grid_tracks(values, klo, khi, h)
    rise = m[1:] > m[:-1]
    fall = f[1:] < f[:-1]
    return (_range_counts(m[:-1][rise], m[1:][rise], nk),
            _range_counts(f[1:][fall], f[:-1][fall], nk))


# ---------------------------------------------------------------------------
# Doob interval strategies (aggregate position accumulation, step paths)
# ---------------------------------------------------------------------------

def doob_positions(values, klo, khi, spacing, weight, gamma_idx):
    """Aggregate position per event of the weighted dyadic Doob portfolio.

    ``pos[e]`` is the (scalar) position held on ``(t_e, t_{e+1}]``; each
    interval strategy on ``(k * spacing, (k + 1) * spacing)`` buys one unit
    at the first event with value <= a and sells at the next event with
    value >= b, closing out at ``gamma_idx``.  Every long interval adds
    ``weight`` once, so ``pos[e]`` is the running sum of ``weight`` taken
    over as many terms as there are long intervals at ``e``, ``nk - m_e``
    with ``m`` the long track of :func:`_grid_tracks`.
    """
    _, m, nk = _grid_tracks(values[:gamma_idx], klo, khi, spacing)
    partial = np.cumsum(np.concatenate(([0.0], np.full(nk, weight))))
    pos = np.zeros(values.shape[0], np.float64)
    pos[:m.shape[0]] = partial[nk - m]
    return pos


# ---------------------------------------------------------------------------
# Pathwise Burkholder-Davis-Gundy machinery
# ---------------------------------------------------------------------------

def _bdg_rows(x):
    """Running max, quadratic variation, weights and transform of each row.

    Returns ``(xstar, qv, h, hx)``: per row of ``x``, ``x*`` and ``[x]`` of
    the full row, the weights ``h_k = x_k / sqrt([x]_k + (x*_k)^2)`` for
    ``k = 0..m-2`` with the 0/0 := 0 convention, and ``(h.x)``.  ``[x]_k``
    and ``(h.x)_k`` are ``np.cumsum`` (strictly left to right, ``(h.x)``
    from a leading ``0.0``) and ``x*_k`` is ``np.maximum.accumulate``, so
    each value rounds as the running accumulator of a per-element loop
    would.
    """
    dx = x[:, 1:] - x[:, :-1]
    qv = np.cumsum(np.concatenate([x[:, :1] * x[:, :1], dx * dx], axis=1), axis=1)
    xstar = np.maximum.accumulate(np.abs(x), axis=1)
    denom = np.sqrt(qv[:, :-1] + xstar[:, :-1] * xstar[:, :-1])
    h = np.divide(x[:, :-1], denom, out=np.zeros_like(denom), where=denom != 0.0)
    hx = np.cumsum(np.concatenate([np.zeros((x.shape[0], 1)), h * dx], axis=1), axis=1)
    return xstar[:, -1], qv[:, -1], h, hx[:, -1]


def bdg_core(x):
    """``(x*, [x], (h.x))`` of the full sequence ``x`` (see :func:`_bdg_rows`)."""
    xstar, qv, _, hx = _bdg_rows(x[None, :])
    return xstar[0], qv[0], hx[0]


def bdg_weights(x):
    """The transform weights ``h_k`` for ``k = 0..len(x)-2`` (see :func:`_bdg_rows`)."""
    return _bdg_rows(x[None, :])[2][0]


def bdg_batch(seqs):
    """(lhs, rhs) of the pathwise BDG inequality for each 1-d float array in ``seqs``.

    Sequences of equal length are stacked into one matrix for
    :func:`_bdg_rows`; the result is bit-identical to :func:`bdg_core`
    applied to each sequence.
    """
    lengths = np.array([s.shape[0] for s in seqs], np.int64)
    lhs = np.empty(lengths.shape[0], np.float64)
    rhs = np.empty(lengths.shape[0], np.float64)
    for m in np.unique(lengths):
        rows = np.flatnonzero(lengths == m)
        xstar, qv, _, hx = _bdg_rows(np.stack([seqs[r] for r in rows]))
        lhs[rows] = xstar
        rhs[rows] = 6.0 * np.sqrt(qv) + 2.0 * hx
    return lhs, rhs


# ---------------------------------------------------------------------------
# Downward-jump clipping (simulator support)
# ---------------------------------------------------------------------------

_CLIP_BLOCK = 4096  # most rows in one window
_CLIP_CALM = 32  # unclipped rows that end a clipping episode


def clip_jumps(values, psi):
    """Clip downward jumps in-place so every event obeys the psi bound.

    ``values`` has shape (events, dim) and ``psi`` is the jump bound, a
    callable such as :class:`pathcalc.paths.PsiSpec`.  The running supremum
    is taken over the l2 norms of the already-clipped prefix, matching the
    membership rule; the bound at an event is ``psi`` of that supremum, so
    ``psi`` is called again only when the supremum grows.  A clipped value
    starts at ``prev - bound`` and moves up one ulp at a time until
    ``prev - v <= bound``.

    Up to the first clip the rows are the input rows, so they are scanned
    as arrays, a window at a time, up to the first row over its bound
    (:func:`_clean_prefix`).  From there the per-event loop
    (:func:`_clip_rows`) runs until ``_CLIP_CALM`` rows in a row pass
    unclipped, and scanning resumes.  The first window holds
    ``_CLIP_BLOCK`` rows.  An episode starts with ``_CLIP_CALM`` rows of the
    loop, and each stretch of loop or window after that is twice the last,
    up to ``_CLIP_BLOCK``, so under dense clipping a scan reads little past
    the next clip.  Both parts take every bit the single loop would.
    """
    m = values.shape[0]
    runsup = _norm(values[0].tolist())
    bound = float(psi(runsup))
    start, width, last = 1, _CLIP_BLOCK, 0
    while start < m:
        stop = min(start + width, m)
        if start > last:
            start, runsup, bound = _clean_prefix(values, start, stop, runsup, bound, psi)
            if start < stop:  # an episode: the loop takes over
                last, width = start + _CLIP_CALM - 1, _CLIP_CALM
                stop = min(stop, start + width)
        if start < stop:
            start, runsup, bound, last = _clip_rows(values, start, stop, runsup, bound, psi, last)
        width = min(2 * width, _CLIP_BLOCK)
    return values


def _clean_prefix(values, start, stop, runsup, bound, psi):
    """First row of ``start..stop-1`` that the input rows put over the bound.

    Returns ``(first, runsup, bound)``, the running supremum and bound
    before row ``first``, or ``stop`` when no row is over.  The norms are
    :func:`row_norms`, which the loop's :func:`_norm` equals.  The rows are
    checked one stretch of constant bound at a time, and ``psi`` is called
    on a new record of the supremum only once every row before it has
    passed, as the loop calls it.  A window with a norm that is not finite
    returns ``start``: the loop takes it.
    """
    rows = values[start - 1:stop]
    norms = row_norms(rows)
    if not norms.max() < math.inf:
        return start, runsup, bound
    with np.errstate(over="ignore"):
        drop = rows[:-1, 0] - rows[1:, 0]  # the largest fall of each row
        for i in range(1, rows.shape[1]):
            np.maximum(drop, rows[:-1, i] - rows[1:, i], out=drop)
    norms[0] = runsup
    run = np.maximum.accumulate(norms)  # run[k]: the supremum before row start + k
    records = np.flatnonzero(run[1:] > run[:-1]) + 1  # rows whose bound is new
    cuts = records[records < drop.shape[0]]
    tops = np.maximum.reduceat(drop, np.concatenate(([0], cuts))).tolist()
    sups = run[records].tolist()
    for i, top in enumerate(tops):
        if top > bound:
            first = int(cuts[i - 1]) if i else 0
            first += int(np.argmax(drop[first:] > bound))
            return start + first, float(run[first]), bound
        if i < len(sups):
            bound = float(psi(sups[i]))
    return stop, float(run[-1]), bound


def _clip_rows(values, start, stop, runsup, bound, psi, last):
    """The per-event clipping loop on rows ``start..stop-1``.

    The episode ends after row ``last``, which each clip moves to
    ``_CLIP_CALM`` rows past itself.  Runs on Python floats, whose
    arithmetic, ``math.sqrt`` and ``math.nextafter`` round as NumPy's
    float64 does.  Returns ``(next row, runsup, bound, last)``.
    """
    prev_row = values[start - 1].tolist()
    block = values[start:stop].tolist()
    for e, row in enumerate(block, start):
        for i, prev in enumerate(prev_row):
            if prev - row[i] > bound:
                v = prev - bound
                while prev - v > bound:
                    v = math.nextafter(v, math.inf)
                row[i] = v
                last = e + _CLIP_CALM
        nv = _norm(row)
        if nv > runsup:
            runsup = nv
            bound = float(psi(runsup))
        prev_row = row
        if e == last:
            stop = e + 1
            break
    values[start:stop] = block[:stop - start]
    return stop, runsup, bound, last


def row_norms(values):
    """l2 norm of each row of the 2-d ``values``: ``sqrt`` of ``v * v`` added left to right.

    The squares are added a column at a time, so each row's sum rounds as
    :func:`_norm`'s loop along the row does (NumPy's pairwise row sum rounds
    otherwise from 8 columns on).  A row whose sum overflows takes the scaled
    ``math.hypot``.
    """
    with np.errstate(over="ignore"):
        sq = values[:, 0] * values[:, 0]
        for i in range(1, values.shape[1]):
            sq += values[:, i] * values[:, i]
    norms = np.sqrt(sq)
    for k in np.flatnonzero(sq == math.inf).tolist():
        norms[k] = math.hypot(*values[k].tolist())
    return norms


def _norm(row):
    """:func:`row_norms` of one row of Python floats, for the clipping loop."""
    sq = 0.0
    for v in row:
        sq += v * v
    return math.sqrt(sq) if sq != math.inf else math.hypot(*row)
