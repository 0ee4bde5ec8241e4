"""Per-event reference loops of the kernels in ``pathcalc._kernels``.

Each kernel must return exactly the bits of its loop here (the kernel's name
plus ``_py``); ``tests/test_kernels.py`` compares them.  The loops are the
direct statements of the constructions, kept unvectorized on purpose.
"""

import numpy as np

PSI_CONSTANT = 0
PSI_AFFINE = 1
PSI_POWER = 2
PSI_TABLE = 3
_PSI_CODES = {"constant": PSI_CONSTANT, "affine": PSI_AFFINE, "power": PSI_POWER,
              "table": PSI_TABLE}


def play_scan_py(lo, hi):
    """Play-operator tracks ``j_e = clip(j_{e-1}, lo[e], hi[e])`` from both ends of clamp 0."""
    lo_track = np.empty(lo.shape[0], np.int64)
    hi_track = np.empty(lo.shape[0], np.int64)
    a, b = lo[0], hi[0]
    for e in range(lo.shape[0]):
        a = min(max(a, lo[e]), hi[e])
        b = min(max(b, lo[e]), hi[e])
        lo_track[e] = a
        hi_track[e] = b
    return lo_track, hi_track


def partition_step_py(times, values, scale):
    """Dyadic-crossing times of a 1-d step path.

    ``scale = 2.0**n``.  Returns ``(tau, level_idx, count)`` where the first
    ``count`` entries are valid; ``tau[0] = 0`` and ``level_idx[0]`` is the
    largest level index with ``j * 2**-n <= values[0]``.
    """
    m = times.shape[0]
    out_t = np.empty(m, np.float64)
    out_j = np.empty(m, np.int64)
    anchor = values[0]
    j = np.int64(np.floor(values[0] * scale))
    out_t[0] = times[0]
    out_j[0] = j
    cnt = 1
    for e in range(1, m):
        v = values[e]
        if anchor < v:
            lo = anchor
            hi = v
        else:
            lo = v
            hi = anchor
        jlo = np.int64(np.ceil(lo * scale))
        jhi = np.int64(np.floor(hi * scale))
        if jhi < jlo:
            continue
        if jlo == jhi and jlo == j:
            continue
        # qualifying level closest to the landing value v; the excluded
        # tracked level is never the candidate adjacent to v, so no ties.
        if v >= anchor:
            cand = jhi
            if cand == j:
                cand -= 1
        else:
            cand = jlo
            if cand == j:
                cand += 1
        out_t[cnt] = times[e]
        out_j[cnt] = cand
        cnt += 1
        anchor = v
        j = cand
    return out_t, out_j, cnt


def partition_linear_count_py(times, values, scale):
    """Number of crossing times the linear-mode construction will emit."""
    m = times.shape[0]
    j = np.int64(np.floor(values[0] * scale))
    cnt = 1
    for e in range(1, m):
        vb = values[e]
        up = np.int64(np.floor(vb * scale))
        if up > j:
            cnt += up - j
            j = up
        else:
            dn = np.int64(np.ceil(vb * scale))
            if dn < j:
                cnt += j - dn
                j = dn
    return cnt


def _crossing_time(ta, tb, va, vb, lev):
    """Time at which the segment from ``(ta, va)`` to ``(tb, vb)`` reaches ``lev``.

    ``ta + (lev - va) * slope`` with ``slope = (tb - ta) / (vb - va)``; when
    the value step is so small that the slope overflows, the fraction
    ``(lev - va) / (vb - va)`` of the segment.
    """
    with np.errstate(over="ignore"):
        slope_dt = (tb - ta) / (vb - va)
    if np.isfinite(slope_dt):
        return ta + (lev - va) * slope_dt
    return ta + (lev - va) / (vb - va) * (tb - ta)


def partition_linear_fill_py(times, values, scale, out_t, out_j):
    """Fill crossing times for a 1-d linear-mode path (exact segment roots)."""
    m = times.shape[0]
    inv = 1.0 / scale
    j = np.int64(np.floor(values[0] * scale))
    out_t[0] = times[0]
    out_j[0] = j
    cnt = 1
    for e in range(1, m):
        ta = times[e - 1]
        tb = times[e]
        va = values[e - 1]
        vb = values[e]
        if vb == va:
            continue
        if vb > va:
            top = np.int64(np.floor(vb * scale))
            while j < top:
                j += 1
                lev = j * inv
                out_t[cnt] = _crossing_time(ta, tb, va, vb, lev)
                out_j[cnt] = j
                cnt += 1
        else:
            bot = np.int64(np.ceil(vb * scale))
            while j > bot:
                j -= 1
                lev = j * inv
                out_t[cnt] = _crossing_time(ta, tb, va, vb, lev)
                out_j[cnt] = j
                cnt += 1
    return cnt


def qv_on_grid_py(si, sj, part_pos):
    """``Q_t = sum_k (S^i increments)(S^j increments)`` with partial tail.

    ``si``/``sj`` are coordinate values on a sorted evaluation grid that
    contains every partition time; ``part_pos`` are the grid positions of the
    partition times (``part_pos[0] == 0``).
    """
    n = si.shape[0]
    q = np.empty(n, np.float64)
    npart = part_pos.shape[0]
    acc = 0.0
    kp = 0
    ai = si[part_pos[0]]
    aj = sj[part_pos[0]]
    for g in range(n):
        while kp + 1 < npart and part_pos[kp + 1] <= g:
            kp += 1
            bi = si[part_pos[kp]]
            bj = sj[part_pos[kp]]
            acc += (bi - ai) * (bj - aj)
            ai = bi
            aj = bj
        q[g] = acc + (si[g] - ai) * (sj[g] - aj)
    return q


def crossings_greedy_py(values, a, b):
    """Greedy (optimal) up/down crossing counts of the open interval (a, b)."""
    up = 0
    down = 0
    armed_up = False
    armed_down = False
    for k in range(values.shape[0]):
        v = values[k]
        if armed_up:
            if v >= b:
                up += 1
                armed_up = False
        if not armed_up and v <= a:
            armed_up = True
        if armed_down:
            if v <= a:
                down += 1
                armed_down = False
        if not armed_down and v >= b:
            armed_down = True
    return up, down


def crossings_total_up_py(values, h):
    """Accumulated upcrossings over the full grid of intervals (kh, (k+1)h).

    Single pass: the set of "armed" intervals is always an up-set {k >= m}.
    Levels and the count are Python ints, so the count never wraps.
    """
    m = int(np.ceil(values[0] / h))
    count = 0
    for idx in range(1, values.shape[0]):
        v = values[idx]
        q = v / h
        qc = int(np.ceil(q))
        if qc < m:
            m = qc
        qf = int(np.floor(q))
        if qf > m:
            count += qf - m
            m = qf
    return count


def crossings_interval_batch_py(values, klo, khi, h):
    """Greedy counts per interval (kh, (k+1)h) for k in [klo, khi]."""
    nk = khi - klo + 1
    up = np.zeros(nk, np.int64)
    down = np.zeros(nk, np.int64)
    for ki in range(nk):
        a = (klo + ki) * h
        b = a + h
        armed_up = False
        armed_down = False
        u = 0
        d = 0
        for idx in range(values.shape[0]):
            v = values[idx]
            if armed_up and v >= b:
                u += 1
                armed_up = False
            if not armed_up and v <= a:
                armed_up = True
            if armed_down and v <= a:
                d += 1
                armed_down = False
            if not armed_down and v >= b:
                armed_down = True
        up[ki] = u
        down[ki] = d
    return up, down


def bdg_core_py(x):
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


def bdg_weights_py(x, out_h):
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


def bdg_batch_py(flat, offsets):
    """(lhs, rhs) of the pathwise BDG inequality for concatenated sequences."""
    ns = offsets.shape[0] - 1
    lhs = np.empty(ns, np.float64)
    rhs = np.empty(ns, np.float64)
    for s in range(ns):
        x = flat[offsets[s]:offsets[s + 1]]
        xstar, qv, hx = bdg_core_py(x)
        lhs[s] = xstar
        rhs[s] = 6.0 * np.sqrt(qv) + 2.0 * hx
    return lhs, rhs


def psi_args(psi):
    """``(code, p0, p1, xs, ys)`` of a :class:`pathcalc.paths.PsiSpec` for :func:`psi_eval_py`."""
    code = _PSI_CODES[psi.family]
    if psi.family == "table":
        xs, ys = psi.table_arrays()
        return code, 0.0, 0.0, xs, ys
    p0 = psi.params[0]
    p1 = psi.params[1] if len(psi.params) > 1 else 0.0
    empty = np.empty(0, np.float64)
    return code, p0, p1, empty, empty


def psi_eval_py(code, p0, p1, xs, ys, x):
    """The jump bound psi at the scalar ``x``, one branch per family code."""
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


def clip_jumps_py(values, code, p0, p1, xs, ys):
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
        bound = psi_eval_py(code, p0, p1, xs, ys, runsup)
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


def doob_positions_py(values, klo, khi, spacing, weight, gamma_idx):
    """Aggregate position per event of the weighted dyadic Doob portfolio.

    ``pos[e]`` is the (scalar) position held on ``(t_e, t_{e+1}]``; each
    interval strategy buys one unit at the first event with value <= a and
    sells at the next event with value >= b, closing out at ``gamma_idx``.
    """
    m = values.shape[0]
    pos = np.zeros(m, np.float64)
    for k in range(klo, khi + 1):
        a = k * spacing
        b = a + spacing
        long = False
        for e in range(m):
            if e >= gamma_idx:
                break
            v = values[e]
            if long:
                if v >= b:
                    long = False
            if not long:
                if v <= a:
                    long = True
            if long:
                pos[e] += weight
    return pos
