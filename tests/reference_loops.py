"""Per-time and per-event reference loops of library functions.

``approximate_caglad_py`` calls the rule once per partition time, with the
time as a Python float; ``ito_integral_py`` integrates each generation of it.
``jump_identity_worst_py`` is the event-by-event discrepancy of
``qv.jump_identity_check``.  ``interval_trades_py`` runs the buy-low/sell-high
state machine of ``strategies._interval_trades`` event by event, and in
linear mode root by root along each segment.  The library computes each of
them on whole arrays and must return exactly these bits.
"""

import numpy as np

from pathcalc import _kernels as K
from pathcalc.integration import ItoIntegralReport, StepIntegrand, integral_curve
from pathcalc.partitions import lebesgue_partition_nd
from pathcalc.paths import MODE_STEP
from pathcalc.qv import QVReport
from pathcalc.strategies import CapitalCurve, gamma_K


def approximate_caglad_py(rule, path, n):
    """Hold ``rule(path, tau_k)`` on ``(tau_k, tau_{k+1}]``, one call per time."""
    part = lebesgue_partition_nd(path, n)
    vals = [np.atleast_1d(np.asarray(rule(path, float(t)), dtype=np.float64))
            for t in part.times]
    return StepIntegrand(times=part.times, values=np.vstack(vals),
                         value_at_zero=vals[0])


def ito_integral_py(rule, path, n_max, tol=1e-6):
    """Integral curves of generations 1..n_max on the common grid, with gaps."""
    parts = {n: lebesgue_partition_nd(path, n) for n in range(1, n_max + 1)}
    grid = np.unique(np.concatenate([path.times]
                                    + [parts[n].times for n in parts]))
    prev_vals = None
    gaps = []
    for n in range(1, n_max + 1):
        F = approximate_caglad_py(rule, path, n)
        vals = integral_curve(F, path).values_at(grid)
        if prev_vals is not None:
            gaps.append(float(np.max(np.abs(vals - prev_vals))))
        prev_vals = vals
    gaps = np.asarray(gaps)
    converged = bool(gaps.size and gaps[-1] < tol)
    return ItoIntegralReport(curve=CapitalCurve(times=grid, values=prev_vals,
                                                mode=path.mode),
                             generation_gaps=gaps, converged=converged, tol=tol)


def jump_identity_worst_py(path, report: QVReport):
    """``max |jump of Q^{a,b} - (jump of S^a)(jump of S^b)|`` over events and pairs."""
    grid = np.unique(np.concatenate([path.times, report.limit_times]))
    vals = path.eval(grid)
    pos = np.searchsorted(grid, report.limit_times).astype(np.int64)
    d = path.dim
    worst = 0.0
    curves = {}
    for a in range(d):
        for b in range(a, d):
            va = np.ascontiguousarray(vals[:, a])
            vb = np.ascontiguousarray(vals[:, b])
            curves[(a, b)] = K.qv_on_grid(va, vb, pos)
    event_idx = np.searchsorted(grid, path.times[1:])
    dv = np.diff(path.values, axis=0)
    for e, g in enumerate(event_idx):
        for (a, b), q in curves.items():
            lhs = q[g] - q[g - 1]
            rhs = dv[e, a] * dv[e, b]
            worst = max(worst, abs(lhs - rhs))
    return worst


def interval_trades_py(path, a, b, K_bound):
    """(time, new_position) changes of the one-interval strategy on a 1-d path."""
    gamma = gamma_K(path, K_bound)
    trades = []
    long = False
    if path.mode == MODE_STEP:
        for e in range(path.n_events):
            t = float(path.times[e])
            if t >= gamma:
                break
            v = float(path.values[e, 0])
            if not long and v <= a:
                trades.append((t, 1.0))
                long = True
            elif long and v >= b:
                trades.append((t, 0.0))
                long = False
    else:
        t_cursor = 0.0
        v = float(path.values[0, 0])
        if v <= a and 0.0 < gamma:
            trades.append((0.0, 1.0))
            long = True
        for e in range(path.n_events - 1):
            ta, tb = float(path.times[e]), float(path.times[e + 1])
            va, vb = float(path.values[e, 0]), float(path.values[e + 1, 0])
            while True:
                target = a if not long else b
                hit = None
                if va != vb:
                    s = (target - va) / (vb - va)
                    lo = max(0.0, (t_cursor - ta) / (tb - ta))
                    if lo <= s <= 1.0 and ((not long and vb <= va) or (long and vb >= va)):
                        hit = ta + s * (tb - ta)
                if hit is None or hit >= gamma:
                    break
                trades.append((hit, 0.0 if long else 1.0))
                long = not long
                t_cursor = hit
            t_cursor = tb
    if long and np.isfinite(gamma) and gamma <= path.horizon:
        trades.append((gamma, 0.0))
    return trades
