"""Numerical kernels: one NumPy implementation per kernel.

Dyadic levels are handled as scaled integers ``j`` with level ``j * 2**-n``.
Most kernels are built on one of two primitives, each written once here:

- The integer play operator ``j_e = clip(j_{e-1}, lo_e, hi_e)``
  (Krasnosel'skii & Pokrovskii, *Systems with Hysteresis*, 1989), computed
  for integer clamps by the prefix scan :func:`_play_scan`.
  :func:`_play_tracks` is its entry for scaled values ``x``, with the clamps
  ``[floor(x_e), ceil(x_e)]``.  Its switching times from
  ``j_0 = floor(x_0)`` are the Lebesgue partition times
  (``partition_step``), its unit steps are the linear-mode crossings
  (``partition_linear_count``/``partition_linear_fill``), and the positive
  steps of the track from ``j_0 = ceil(x_0)`` of ``values / h`` are the
  accumulated upcrossings of the grid of spacing ``h``
  (``crossings_up_prefix``, ``crossings_total_up``).  On the halved fine
  indices, clamps ``[floor(J/2), ceil(J/2)]``, it derives generation
  ``n - 1`` from generation ``n`` (``partition_coarsen``; the nesting lemma
  is in :mod:`pathcalc.partitions`).  On the interval ranks that a value
  makes long or flat, it counts the greedy crossings of every interval
  ``(kh, (k+1)h)`` in one pass (``crossings_interval_batch``).
- The state of one interval ``(a, b)``, :func:`_interval_state`: long after a
  value ``<= a``, flat after a value ``>= b``, unchanged by values strictly
  inside.  Greedy crossing counts are its transitions (``crossings_greedy``)
  and the Doob aggregate position counts the intervals that are long
  (``doob_positions``).

Multiplying a float by ``2**n`` only shifts its exponent, so ``floor`` and
``ceil`` of ``value * 2**n`` are exact.  :func:`_play_tracks` is the only
place where a value becomes an int64 level index; it raises
:class:`ContractError` once a scaled value reaches ``2**62`` in magnitude,
so every index and every difference of two indices is exact.  Indices are
halved by integer shifts, never through float64, which is inexact beyond
``2**53``.

``qv_on_grid`` finds each grid point's last partition point as a running
count of ``np.bincount`` of the partition positions, in one O(grid) pass.

Each vectorized kernel returns exactly the bits of the per-event loop it
replaced; the test suite keeps those loops as its reference.  ``clip_jumps``
stays a loop: the bound at each event depends on the already-clipped prefix.
"""

from __future__ import annotations

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
    clamp intervals in ``ceil(log2(m))`` passes.  The composed prefix map
    sends the first interval's lower (upper) end to the lower (upper) end of
    the composed interval, so the scanned ends are the two tracks.
    """
    d = 1
    while d < lo.shape[0]:
        lo, hi = (np.concatenate((lo[:d], np.minimum(np.maximum(lo[:-d], lo[d:]), hi[d:]))),
                  np.concatenate((hi[:d], np.minimum(np.maximum(hi[:-d], lo[d:]), hi[d:]))))
        d *= 2
    return lo, hi


def _play_tracks(x):
    """Play-operator tracks of the scaled values ``x``.

    The clamps are ``[floor(x_e), ceil(x_e)]``, so ``lo[e]`` is ``j_e``
    started from ``j_0 = floor(x_0)`` and ``hi[e]`` is ``j_e`` started from
    ``j_0 = ceil(x_0)`` (see :func:`_play_scan`).
    """
    if not np.all(np.abs(x) < 2.0 ** 62):
        raise ContractError("a scaled value reaches 2**62 in magnitude, beyond exact "
                            "int64 level indices: use a coarser generation or spacing")
    return _play_scan(np.floor(x).astype(np.int64), np.ceil(x).astype(np.int64))


def _switches(times, j):
    """``(times, j, count)`` at the first entry and wherever ``j`` changes."""
    idx = np.concatenate(([0], np.flatnonzero(j[1:] != j[:-1]) + 1))
    return times[idx], j[idx], idx.shape[0]


def partition_step(times, values, scale):
    """Dyadic-crossing times of a 1-d step path.

    ``scale = 2.0**n``.  Returns ``(tau, level_idx, count)``: the events
    where the tracked level index changes, with ``tau[0] = times[0]`` and
    ``level_idx[0]`` the largest index with ``j * 2**-n <= values[0]``.  The
    arrays have exactly ``count`` entries.
    """
    j, _ = _play_tracks(values * scale)
    return _switches(times, j)


def partition_coarsen(tau, level_idx):
    """Generation ``n - 1`` crossings from the generation-n ones, either mode.

    ``tau``/``level_idx`` are a generation-n partition.  The coarse index is
    the play operator over the integer clamps ``[floor(J/2), ceil(J/2)]`` of
    the fine indices ``J``, started from ``floor(J_0/2)``; the halving is an
    int64 shift, exact for every index.  Returns ``(tau, level_idx, count)``
    of generation ``n - 1`` as :func:`partition_step` does; the nesting lemma
    in :mod:`pathcalc.partitions` shows these are the direct build's bits.
    """
    j, _ = _play_scan(level_idx >> 1, -((-level_idx) >> 1))
    return _switches(tau, j)


def partition_linear_count(times, values, scale):
    """Number of crossing times of a 1-d linear-mode path: ``1 + sum |dj|``."""
    j, _ = _play_tracks(values * scale)
    return 1 + int(np.abs(np.diff(j)).sum())


def partition_linear_fill(times, values, scale, out_t, out_j):
    """Fill crossing times for a 1-d linear-mode path (exact segment roots).

    On segment ``e`` the tracked index moves one level at a time from
    ``j_{e-1}`` to ``j_e``; level ``j`` is crossed at
    ``ta + (j * 2**-n - va) * (tb - ta) / (vb - va)``.  ``out_t``/``out_j``
    must hold :func:`partition_linear_count` entries; returns that count.
    """
    inv = 1.0 / scale
    j, _ = _play_tracks(values * scale)
    dj = np.diff(j)
    steps = np.abs(dj)
    seg = np.repeat(np.arange(dj.shape[0]), steps)
    # 1, 2, ..., |dj| within each segment
    rank = np.arange(1, seg.shape[0] + 1) - np.repeat(np.cumsum(steps) - steps, steps)
    lev_j = j[seg] + np.sign(dj)[seg] * rank
    ta = times[seg]
    va = values[seg]
    slope_dt = (times[seg + 1] - ta) / (values[seg + 1] - va)
    cnt = seg.shape[0] + 1
    out_t[0] = times[0]
    out_j[0] = j[0]
    out_t[1:cnt] = ta + (lev_j * inv - va) * slope_dt
    out_j[1:cnt] = lev_j
    return cnt


# ---------------------------------------------------------------------------
# Discrete quadratic variation along a partition, evaluated on a grid
# ---------------------------------------------------------------------------

def qv_on_grid(si, sj, part_pos):
    """``Q_t = sum_k (S^i increments)(S^j increments)`` with partial tail.

    ``si``/``sj`` are coordinate values on a sorted evaluation grid that
    contains every partition time; ``part_pos`` are the grid positions of the
    partition times (``part_pos[0] == 0``).  ``np.cumsum`` adds strictly left
    to right from the leading ``0.0``, so every partial sum rounds as a
    running accumulator would; a repeated position contributes ``+0.0``.
    Grid point ``g`` takes the sum up to the last partition point at or
    before it plus the partial tail.  That point's rank is the number of
    partition positions ``<= g`` minus one, a running count of
    ``np.bincount(part_pos)``, in one O(grid) pass.
    """
    ai = si[part_pos]
    aj = sj[part_pos]
    acc = np.cumsum(np.concatenate(([0.0], (ai[1:] - ai[:-1]) * (aj[1:] - aj[:-1]))))
    kp = np.cumsum(np.bincount(part_pos, minlength=si.shape[0])) - 1
    return acc[kp] + (si - ai[kp]) * (sj - aj[kp])


# ---------------------------------------------------------------------------
# Interval states and crossing counters
# ---------------------------------------------------------------------------

def _interval_state(values, a, b):
    """State of the buy-low/sell-high strategy on ``(a, b)`` after each value.

    ``1`` (long) after a value ``<= a``, ``0`` (flat) after a value ``>= b``,
    the previous state after a value strictly inside, and ``-1`` before the
    first value outside ``(a, b)``.  Needs ``a < b``.
    """
    label = np.where(values <= a, 1, np.where(values >= b, 0, -1))
    last = np.maximum.accumulate(np.where(label >= 0, np.arange(label.shape[0]), -1))
    return np.where(last >= 0, label[last], -1)


def crossings_greedy(values, a, b):
    """Greedy (optimal) up/down crossing counts of the open interval (a, b)."""
    state = _interval_state(values, a, b)
    up = np.count_nonzero((state[:-1] == 1) & (state[1:] == 0))
    down = np.count_nonzero((state[:-1] == 0) & (state[1:] == 1))
    return int(up), int(down)


def crossings_up_prefix(values, h):
    """Accumulated upcrossings over the full grid of intervals (kh, (k+1)h).

    Entry ``e`` counts the upcrossings completed by ``values[:e + 1]``.  The
    intervals armed for an upcrossing are always the up-set ``{k >= m_e}``,
    where ``m`` is the play-operator track of ``values / h`` from
    ``ceil(values[0] / h)``; each upward step of ``m`` completes one
    upcrossing per level passed.
    """
    _, m = _play_tracks(values / h)
    return np.concatenate(([0], np.cumsum(np.maximum(np.diff(m), 0))))


def crossings_total_up(values, h):
    """Accumulated upcrossings of the whole sequence (last prefix count)."""
    return crossings_up_prefix(values, h)[-1]


def _range_counts(start, stop, size):
    """How many of the ranges ``[start[r], stop[r])`` hold each of ``0..size-1``."""
    ends = np.bincount(start, minlength=size + 1) - np.bincount(stop, minlength=size + 1)
    return np.cumsum(ends)[:size]


def crossings_interval_batch(values, klo, khi, h):
    """Greedy counts per interval (kh, (k+1)h) for k in [klo, khi], in one scan.

    Interval ``i`` (``k = klo + i``) has the ends ``a_i = k*h`` and
    ``b_i = a_i + h`` of :func:`crossings_greedy`, both nondecreasing in
    ``i``.  A value ``v`` makes long the intervals
    ``i >= long_from = #{a_i < v}`` and flat those
    ``i < flat_below = min(#{b_i <= v}, long_from)``, so after each value the
    long intervals are an up-set ``i >= m_e`` and the flat ones a down-set
    ``i < f_e``: ``m`` and ``f`` are the play-operator tracks through the
    clamps ``[flat_below, long_from]`` from their upper and lower ends.
    Interval ``i`` completes an upcrossing at ``e`` when
    ``m_{e-1} <= i < m_e`` and a downcrossing when ``f_e <= i < f_{e-1}``.
    """
    nk = khi - klo + 1
    a = (klo + np.arange(nk)) * h
    b = a + h
    long_from = np.searchsorted(a, values, side="left")
    flat_below = np.minimum(np.searchsorted(b, values, side="right"), long_from)
    f, m = _play_scan(flat_below, long_from)
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
    over as many terms as there are long intervals at ``e``.
    """
    head = values[:gamma_idx]
    n_long = np.zeros(head.shape[0], np.int64)
    for k in range(klo, khi + 1):
        a = k * spacing
        n_long += _interval_state(head, a, a + spacing) == 1
    partial = np.cumsum(np.concatenate(([0.0], np.full(max(khi - klo + 1, 0), weight))))
    pos = np.zeros(values.shape[0], np.float64)
    pos[:head.shape[0]] = partial[n_long]
    return pos


# ---------------------------------------------------------------------------
# Pathwise Burkholder-Davis-Gundy machinery
# ---------------------------------------------------------------------------

def bdg_core(x):
    """Running max, quadratic variation and weighted transform of a sequence.

    Returns ``(xstar, qv, hx)`` for the full sequence, with weights
    ``h_k = x_k / sqrt([x]_k + (x*_k)^2)`` and the 0/0 := 0 convention.
    """
    qv = x[0] * x[0]
    xstar = abs(x[0])
    hx = 0.0
    for k in range(x.shape[0] - 1):
        denom = np.sqrt(qv + xstar * xstar)
        if denom == 0.0:
            hk = 0.0
        else:
            hk = x[k] / denom
        dx = x[k + 1] - x[k]
        hx += hk * dx
        qv += dx * dx
        ax = abs(x[k + 1])
        if ax > xstar:
            xstar = ax
    return xstar, qv, hx


def bdg_weights(x, out_h):
    """Fill the transform weights h_k for k = 0..len(x)-2."""
    qv = x[0] * x[0]
    xstar = abs(x[0])
    for k in range(x.shape[0] - 1):
        denom = np.sqrt(qv + xstar * xstar)
        if denom == 0.0:
            out_h[k] = 0.0
        else:
            out_h[k] = x[k] / denom
        dx = x[k + 1] - x[k]
        qv += dx * dx
        ax = abs(x[k + 1])
        if ax > xstar:
            xstar = ax
    return x.shape[0] - 1


def bdg_batch(flat, offsets):
    """(lhs, rhs) of the pathwise BDG inequality for concatenated sequences.

    Sequences of equal length are stacked into one matrix, and each running
    quantity of :func:`bdg_core` becomes a row-wise accumulation: ``[x]_k``
    and ``(h.x)_k`` by ``np.cumsum`` (strictly left to right, ``(h.x)`` from a
    leading ``0.0``), ``x*_k`` by ``np.maximum.accumulate``.  The result is
    bit-identical to :func:`bdg_core` applied to each sequence.
    """
    lengths = np.diff(offsets)
    lhs = np.empty(lengths.shape[0], np.float64)
    rhs = np.empty(lengths.shape[0], np.float64)
    for m in np.unique(lengths):
        rows = np.flatnonzero(lengths == m)
        x = flat[offsets[rows][:, None] + np.arange(m)]
        dx = x[:, 1:] - x[:, :-1]
        qv = np.cumsum(np.concatenate([x[:, :1] * x[:, :1], dx * dx], axis=1), axis=1)
        xstar = np.maximum.accumulate(np.abs(x), axis=1)
        denom = np.sqrt(qv[:, :-1] + xstar[:, :-1] * xstar[:, :-1])
        h = np.divide(x[:, :-1], denom, out=np.zeros_like(denom), where=denom != 0.0)
        hx = np.cumsum(np.concatenate([np.zeros((rows.shape[0], 1)), h * dx], axis=1),
                       axis=1)[:, -1]
        lhs[rows] = xstar[:, -1]
        rhs[rows] = 6.0 * np.sqrt(qv[:, -1]) + 2.0 * hx
    return lhs, rhs


# ---------------------------------------------------------------------------
# psi evaluation and downward-jump clipping (simulator support)
# ---------------------------------------------------------------------------

PSI_CONSTANT = 0
PSI_AFFINE = 1
PSI_POWER = 2
PSI_TABLE = 3


def psi_eval(code, p0, p1, xs, ys, x):
    if code == PSI_CONSTANT:
        return p0
    if code == PSI_AFFINE:
        return p0 + p1 * x
    if code == PSI_POWER:
        if x <= 0.0:
            return 0.0
        return p0 * x ** p1
    nt = xs.shape[0]
    if x <= xs[0]:
        return ys[0]
    if x >= xs[nt - 1]:
        return ys[nt - 1]
    lo = 0
    hi = nt - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xs[mid] <= x:
            lo = mid
        else:
            hi = mid
    w = (x - xs[lo]) / (xs[hi] - xs[lo])
    return ys[lo] + w * (ys[hi] - ys[lo])


def clip_jumps(values, code, p0, p1, xs, ys):
    """Clip downward jumps in-place so every event obeys the psi bound.

    ``values`` has shape (events, dim).  The running supremum is taken over
    the l2 norms of the already-clipped prefix, matching the membership rule.
    """
    m = values.shape[0]
    d = values.shape[1]
    sq = 0.0
    for i in range(d):
        sq += values[0, i] * values[0, i]
    runsup = np.sqrt(sq)
    for e in range(1, m):
        bound = psi_eval(code, p0, p1, xs, ys, runsup)
        for i in range(d):
            prev = values[e - 1, i]
            if prev - values[e, i] > bound:
                v = prev - bound
                while prev - v > bound:
                    v = np.nextafter(v, np.inf)
                values[e, i] = v
        sq = 0.0
        for i in range(d):
            sq += values[e, i] * values[e, i]
        nv = np.sqrt(sq)
        if nv > runsup:
            runsup = nv
    return values
