"""Per-time and per-event reference loops of library functions.

``approximate_caglad_py`` calls the rule once per partition time, with the
time as a Python float; ``ito_integral_py`` integrates each generation of it.
``jump_identity_worst_py`` is the event-by-event discrepancy of
``qv.jump_identity_check``.  The library computes each of them on whole
arrays and must return exactly these bits.
"""

import numpy as np

from pathcalc import _kernels as K
from pathcalc.integration import ItoIntegralReport, StepIntegrand, integral_curve
from pathcalc.partitions import lebesgue_partition_nd
from pathcalc.qv import QVReport
from pathcalc.strategies import CapitalCurve


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
