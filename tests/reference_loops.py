"""Per-time and per-event reference loops of library functions.

``approximate_caglad_py`` calls the rule once per partition time, with the
time as a Python float; ``ito_integral_py`` integrates each generation of it.
``qv_limit_py`` builds every generation directly, takes the grid as the
union of the events and every generation, locates each generation on it by
search and runs ``qv_on_grid_py`` once per coordinate pair and generation.
``jump_identity_worst_py`` is the event-by-event discrepancy of
``qv.jump_identity_check``.  ``gamma_K_py`` solves for the first time a
linear path's norm reaches K segment by segment.  ``interval_trades_py`` runs the buy-low/sell-high
state machine of ``strategies._interval_trades`` event by event, and in
linear mode root by root along each segment.  ``z_data_py`` builds Z on the
union of the events, generation n and the extra times, by ``path.eval`` and
searches, in either mode; ``z_process_py``, ``k_process_py``, ``sigma_py``
and ``l_strategy_py`` read Z, K, sigma and the compensated-Z strategy from
it time by time; ``l_strategy_deviation_py`` compares K, held at the cut by
a gather of clamped grid indices, with the budget plus a realized
strategy's capital.  ``position_after_py`` compares each time with the ends
of every gap.  ``capital_curve_py`` merges the events, the decision times
and the horizon by ``np.unique``, evaluates the path there, whatever the
decision times are, and holds ``position_after_py`` on each grid gap.
``doob_aggregate_linear_py`` merges the interval trades of the linear Doob
aggregate time by time, ``admissibility_lift_py`` sets the lifted position
time by time, and ``hoeffding_positions_py`` carries the wealth of the
supermartingale strategy step by step.  The library
computes each of them on whole arrays and must return exactly these bits.

The ``*_csv_py`` writers format every file cell by cell with
``repr(float(x))``, as the writers of ``pathcalc.paths``, ``partitions``,
``qv`` and the ``integrate`` and ``continuity`` commands did before they
shared one table writer; each new writer must produce exactly these bytes.
"""

import csv
import json
import math

import numpy as np

from pathcalc.integration import ItoIntegralReport, StepIntegrand, integral_curve
from pathcalc.partitions import SENTINEL, lebesgue_partition_1d, lebesgue_partition_nd
from pathcalc.paths import MODE_STEP
from pathcalc.qv import QVReport, k_constant
from pathcalc.strategies import (CapitalCurve, _interval_trades, gamma_K, hoeffding_beta,
                                 rho_lambda)

from reference_kernels import qv_on_grid_py


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


def qv_limit_py(path, n_max, tol=1e-8, keep_generations=True):
    """``qv.qv_limit`` with one reference curve per coordinate pair and generation."""
    partitions = [lebesgue_partition_nd(path, n) for n in range(1, n_max + 1)]
    grid = np.unique(np.concatenate([path.times] + [part.times for part in partitions]))
    positions = [np.searchsorted(grid, part.times) for part in partitions]
    d = path.dim
    vals = path.eval(grid)

    cols = [np.ascontiguousarray(vals[:, a]) for a in range(d)]
    pairs = [(a, b) for a in range(d) for b in range(a, d)]
    prev = {pair: np.zeros(len(grid)) for pair in pairs}
    z_sup = np.empty(n_max)
    qv_terminal = np.empty((n_max, d, d))
    qv_paths = {}

    for n, (part, pos) in enumerate(zip(partitions, positions), start=1):
        cur = {}
        worst = 0.0
        for (a, b) in pairs:
            q = qv_on_grid_py(cols[a], cols[b], pos)
            cur[(a, b)] = q
            worst = max(worst, float(np.max(np.abs(q - prev[(a, b)]))))
            qv_terminal[n - 1, a, b] = qv_terminal[n - 1, b, a] = q[-1]
        z_sup[n - 1] = worst
        if keep_generations or n == n_max:
            qp = np.empty((len(pos), d, d))
            for (a, b), q in cur.items():
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
            curves[(a, b)] = qv_on_grid_py(va, vb, pos)
    event_idx = np.searchsorted(grid, path.times[1:])
    dv = np.diff(path.values, axis=0)
    for e, g in enumerate(event_idx):
        for (a, b), q in curves.items():
            lhs = q[g] - q[g - 1]
            rhs = dv[e, a] * dv[e, b]
            worst = max(worst, abs(lhs - rhs))
    return worst


def gamma_K_py(path, K_bound):
    """``strategies.gamma_K`` of a linear path: the first segment root of ``|S|^2 = K^2``."""
    if np.linalg.norm(path.values[0]) >= K_bound:
        return 0.0
    k2 = K_bound * K_bound
    for e in range(path.n_events - 1):
        a = path.values[e]
        b = path.values[e + 1]
        dv = b - a
        c2 = float(dv @ dv)
        c1 = 2.0 * float(a @ dv)
        c0 = float(a @ a) - k2
        dt = path.times[e + 1] - path.times[e]
        if c2 == 0.0:
            if c1 > 0 and c0 + c1 >= 0:
                s = -c0 / c1
                if 0.0 <= s <= 1.0:
                    return float(path.times[e] + s * dt)
            continue
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            continue
        s = (-c1 + math.sqrt(disc)) / (2.0 * c2)
        if 0.0 <= s <= 1.0:
            return float(path.times[e] + s * dt)
    return SENTINEL


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


def z_data_py(path, n, extra_times=()):
    """Grid, path values, Z on the grid and generations n and n - 1 (``None`` at n = 1)."""
    pn = lebesgue_partition_1d(path, n)
    pn1 = lebesgue_partition_1d(path, n - 1) if n >= 2 else None
    grid = np.unique(np.concatenate([path.times, pn.times,
                                     np.asarray(extra_times, dtype=np.float64)]))
    v = np.ascontiguousarray(path.eval(grid)[:, 0])
    qn = qv_on_grid_py(v, v, np.searchsorted(grid, pn.times))
    qn1 = qv_on_grid_py(v, v, np.searchsorted(grid, pn1.times)) if pn1 is not None else 0.0
    return grid, v, qn - qn1, pn, pn1


def z_process_py(path, n, t):
    grid, _, z, _, _ = z_data_py(path, n, [t])
    return float(z[np.searchsorted(grid, t)])


def k_process_py(path, n, K_bound, psi, t):
    grid, _, z, pn, _ = z_data_py(path, n, [t])
    sumsq = qv_on_grid_py(z, z, np.searchsorted(grid, pn.times))
    it = np.searchsorted(grid, t)
    return k_constant(n, K_bound, psi) + float(z[it]) ** 2 - float(sumsq[it])


def sigma_py(z_tau, times, n, K_bound):
    """First partition time past the Z-increment budget or with Z above K."""
    acc = 0.0
    for k in range(1, len(times)):
        step = z_tau[k] - z_tau[k - 1]
        acc += step * step
        if acc > float(n) ** 4 * 2.0 ** (-2 * n) or z_tau[k] > K_bound:
            return float(times[k])
    return SENTINEL


def l_strategy_py(path, n, K_bound):
    """``(times, positions, sigma)`` of ``strategies.l_strategy``, one partition time at a time."""
    gamma = gamma_K(path, float(K_bound))
    grid, _, z, fine, coarse = z_data_py(path, n, [gamma] if np.isfinite(gamma) else [])
    z_tau = z[np.searchsorted(grid, fine.times)]
    sigma = sigma_py(z_tau, fine.times, n, K_bound)
    cut = min(gamma, sigma)
    times, positions = [], []
    for k, t in enumerate(fine.times):
        if t >= cut:
            break
        chi = coarse.times[np.searchsorted(coarse.times, t, side="right") - 1]
        times.append(t)
        positions.append(-4.0 * z_tau[k] * (path.eval(t)[0] - path.eval(chi)[0]))
    if not times:
        return np.array([0.0]), np.zeros(0), sigma
    if np.isfinite(cut):
        times.append(cut)
        positions.append(0.0)
    return np.array(times + [np.inf]), np.array(positions), sigma


def l_strategy_deviation_py(path, n, K_bound, psi, realized):
    """``max_deviation`` of ``strategies.l_strategy`` given its ``realized`` strategy.

    K is held at its value at the cut by a gather of the grid indices
    clamped at the cut's index, and compared with the budget plus the
    capital of ``realized`` on the grid.
    """
    gamma = gamma_K(path, float(K_bound))
    grid, _, z, fine, _ = z_data_py(path, n, [gamma] if np.isfinite(gamma) else [])
    fine_idx = np.searchsorted(grid, fine.times)
    cut = min(gamma, sigma_py(z[fine_idx], fine.times, n, K_bound))
    budget = k_constant(n, K_bound, psi)
    k_vals = budget + z * z - qv_on_grid_py(z, z, fine_idx)
    cap_grid = capital_curve_py(realized, path).values_at(grid)
    if np.isfinite(cut):
        cut_idx = int(np.searchsorted(grid, cut))
        k_vals = k_vals[np.minimum(np.arange(len(grid)), cut_idx)]
    return float(np.max(np.abs(k_vals - (budget + cap_grid))))


def position_after_py(realized, ts):
    """Position held on ``(t, next decision time]``: the gap ``times[k] <= t < times[k + 1]``.

    Zero when no gap holds t: before time 0 and from the last decision time on.
    """
    held = np.zeros((len(ts), realized.dim))
    for i, t in enumerate(ts):
        gap = np.flatnonzero((realized.times[:-1] <= t) & (t < realized.times[1:]))
        if gap.size:
            held[i] = realized.positions[gap[0]]
    return held


def capital_curve_py(realized, path):
    """``strategies.capital_curve`` on the merged grid, built by ``np.unique`` and ``path.eval``."""
    decided = realized.times[realized.times <= path.horizon]  # drops a last time of inf
    grid = np.unique(np.concatenate([path.times, decided, [path.horizon]]))
    svals = path.eval(grid)
    held = position_after_py(realized, grid[:-1])
    incr = np.diff(svals, axis=0)
    values = np.concatenate([[0.0], np.cumsum(np.sum(held * incr, axis=1))])
    return CapitalCurve(times=grid, values=values, mode=path.mode)


def doob_aggregate_linear_py(path, n, K_bound, psi):
    """``(times, positions)`` of ``strategies.doob_aggregate`` on a linear path.

    Each interval's trades are replayed at every merged time, and the
    weighted positions are added interval by interval.
    """
    spacing = 2.0 ** (-n)
    weight = 1.0 / (K_bound * 2.0 ** (n + 1) * (2.0 * K_bound + float(psi(float(K_bound)))))
    klo = int(np.floor(-K_bound / spacing)) + 1
    khi = int(np.ceil(K_bound / spacing)) - 2
    if khi < klo:
        return np.array([0.0]), np.zeros(0)
    gamma = gamma_K(path, K_bound)
    per_interval = [_interval_trades(path, k * spacing, (k + 1) * spacing, gamma)
                    for k in range(klo, khi + 1)]
    times = sorted({0.0} | {t for trades in per_interval for t, _ in trades})
    pos = np.zeros(len(times))
    for trades in per_interval:
        cur = 0.0
        ptr = 0
        for gi, t in enumerate(times):
            while ptr < len(trades) and trades[ptr][0] <= t:
                cur = trades[ptr][1]
                ptr += 1
            pos[gi] += cur * weight
    return np.append(times, np.inf), pos


def position_at_py(realized, t):
    """Position held at t, on the gap whose left end is < t <= right end."""
    k = int(np.searchsorted(realized.times, t, side="left")) - 1
    if t <= 0 or not 0 <= k < realized.positions.shape[0]:
        return np.zeros(realized.dim)
    return realized.positions[k]


def admissibility_lift_py(g_real, path, lam, K_bound):
    """``(times, positions)`` of ``strategies.admissibility_lift`` applied to ``g_real``."""
    gamma = gamma_K(path, K_bound)
    cut = min(rho_lambda(g_real, path, lam), gamma)
    breaks = {0.0}
    for t in list(g_real.times) + [cut, gamma]:
        if np.isfinite(t) and t <= path.horizon:
            breaks.add(float(t))
    times = np.array(sorted(breaks))
    pos = np.zeros((len(times), path.dim))
    for gi, t in enumerate(times):
        p = np.zeros(path.dim)
        if t < gamma:
            p = p + position_at_py(g_real, np.nextafter(t, np.inf))
        if t < cut:
            p = p + lam
        pos[gi] = p
    return np.append(times, np.inf), pos


def hoeffding_positions_py(path, decision_times, c, lam):
    """Positions of ``strategies.hoeffding_strategy``: capital times beta, step by step."""
    dt = np.asarray(decision_times, dtype=np.float64)
    c_arr = np.broadcast_to(np.asarray(c, dtype=np.float64), dt.shape)
    s = path.eval(np.minimum(dt, path.horizon))[:, 0]
    v = 1.0
    positions = np.empty(len(dt))
    for k in range(len(dt)):
        beta = hoeffding_beta(lam, float(c_arr[k]))
        positions[k] = v * beta
        if k + 1 < len(dt):
            v = v * (1.0 + beta * (s[k + 1] - s[k]))
    return positions


def write_path_csv_py(path, csv_file, sidecar=None):
    """``paths.write_path_csv`` through ``csv.writer``, row by row, and its JSON sidecar."""
    with open(csv_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(path.dim)])
        for k in range(path.n_events):
            writer.writerow([repr(float(path.times[k]))]
                            + [repr(float(v)) for v in path.values[k]])
    meta = {"dim": path.dim, "horizon": path.horizon, "mode": path.mode}
    if sidecar:
        meta.update(sidecar)
    with open(str(csv_file)[:-len(".csv")] + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_partition_csv_py(partition, file):
    """The ``partition_n<N>.csv`` part of ``qv.write_qv_report``, point by point."""
    levels = partition.levels
    with open(file, "w") as fh:
        fh.write("k,tau,level\n")
        for k in range(len(partition)):
            lev = repr(float(levels[k])) if levels is not None else ""
            fh.write(f"{k},{repr(float(partition.times[k]))},{lev}\n")


def write_qv_csv_py(report, csv_file):
    """The ``qv_limit.csv`` part of ``qv.write_qv_report``, time by time."""
    d = report.dim
    header = "t," + ",".join(f"qv_{a + 1}{b + 1}" for a in range(d) for b in range(d))
    with open(csv_file, "w") as fh:
        fh.write(header + "\n")
        for k in range(len(report.limit_times)):
            row = [repr(float(report.limit_times[k]))]
            row += [repr(float(report.limit_values[k, a, b]))
                    for a in range(d) for b in range(d)]
            fh.write(",".join(row) + "\n")


def write_integral_csv_py(times, values, file):
    """``integral.csv`` of the ``integrate`` command, grid time by grid time."""
    with open(file, "w") as fh:
        fh.write("t,integral\n")
        for t, v in zip(times, values):
            fh.write(f"{repr(float(t))},{repr(float(v))}\n")


def write_continuity_csv_py(rows, file):
    """``continuity.csv`` of the ``continuity`` command, one integrand pair per line."""
    with open(file, "w") as fh:
        fh.write("scale,integrand_distance,integral_distance\n")
        for label, x, y in rows:
            fh.write(f"{label},{repr(float(x))},{repr(float(y))}\n")
