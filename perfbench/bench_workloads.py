"""The benchmark's workloads: set-up, one operation, and the check of its output.

Each workload is a closed loop over a pool of inputs generated in set-up from
``--seed``; one operation handles one path.  The output checks compare with a
computation made here, apart from the program, or test a property the method
must have.  They are pure functions of values so the self-tests can feed them
deliberately wrong ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from pathcalc import cli, integration, partitions, qv, simulate, strategies
from pathcalc.paths import PsiSpec

# ---------------------------------------------------------------------------
# Output checks (pure functions; each returns None or the reason it failed)
# ---------------------------------------------------------------------------

QV_REL_TOL = 1e-2
TELESCOPING_TOL = 1e-9
K_PROCESS_TOL = 1e-9
CROSSING_SLACK_TOL = -1e-12
MISMATCH_TOL = 1e-9


def check_qv_terminal(terminal: np.ndarray, values: np.ndarray) -> str | None:
    """``Q^n_T`` against the sum of products of the event increments.

    Diagonal terms are compared relatively; a cross term relative to the
    square root of the product of the two reference diagonals.
    """
    dv = np.diff(values, axis=0)
    ref = dv.T @ dv
    d = ref.shape[0]
    for a in range(d):
        for b in range(a, d):
            scale = math.sqrt(ref[a, a] * ref[b, b])
            err = abs(terminal[a, b] - ref[a, b]) / scale
            if not err <= QV_REL_TOL:
                return f"Q_T[{a},{b}] = {terminal[a, b]!r}, event sum {ref[a, b]!r}, error {err:.3e}"
    return None


def check_telescoping(i_t: float, q_t: float, s: np.ndarray) -> str | None:
    """``2 I_T + Q_T = S_T^2 - S_0^2`` for the integrand ``S_-``."""
    target = s[-1] ** 2 - s[0] ** 2
    resid = abs(2.0 * i_t + q_t - target)
    if not resid <= TELESCOPING_TOL * max(1.0, abs(target)):
        return f"telescoping residual {resid:.3e}"
    return None


def accumulated_upcrossings(values: np.ndarray, h: float) -> np.ndarray:
    """Greedy up-crossings of every interval ``(kh, (k+1)h)`` summed over k,
    after each prefix of ``values``.

    Interval k is armed once the path is at or below ``kh`` and counts one
    up-crossing when it then reaches ``(k+1)h``.
    """
    klo = math.floor(float(values.min()) / h) - 1
    khi = math.ceil(float(values.max()) / h) + 1
    lower = np.arange(klo, khi + 1) * h
    upper = lower + h
    armed = np.zeros(len(lower), dtype=bool)
    total = 0
    out = np.empty(len(values), dtype=np.int64)
    for idx, v in enumerate(values):
        done = armed & (v >= upper)
        total += int(np.count_nonzero(done))
        armed &= ~done
        armed |= v <= lower
        out[idx] = total
    return out


def check_crossing_counts(values: np.ndarray, h: float, program_ups) -> str | None:
    """The program's accumulated up-crossing count after each prefix."""
    own = accumulated_upcrossings(values, h)
    bad = np.flatnonzero(own != np.asarray(program_ups))
    if bad.size:
        k = int(bad[0])
        return f"up-crossings after event {k}: program {program_ups[k]}, recount {own[k]}"
    return None


def step_capital(times: np.ndarray, positions: np.ndarray, path_times: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """Capital at each event of a step path.

    The price moves only at events, and the move at event time ``t`` is
    earned by the position held on the decision gap ``(tau_k, tau_{k+1}]``
    that contains ``t``.
    """
    gap = np.searchsorted(times, path_times[1:], side="left") - 1
    held = np.zeros(len(gap))
    valid = (gap >= 0) & (gap < len(positions))
    held[valid] = positions[gap[valid], 0]
    return np.concatenate([[0.0], np.cumsum(held * np.diff(values))])


def check_doob(capital: np.ndarray, program_worst: float, ups: np.ndarray,
               factor: float) -> str | None:
    """Strong 1-admissibility and the crossing bound ``1 + C_t >= factor U_t``."""
    worst = float(capital.min())
    if worst < -1.0:
        return f"capital {worst!r} below -1"
    if abs(worst - program_worst) > 1e-12 * max(1.0, abs(worst)):
        return f"program minimum capital {program_worst!r}, recomputed {worst!r}"
    slack = float(np.min(1.0 + capital - factor * ups))
    if slack < CROSSING_SLACK_TOL:
        return f"crossing bound slack {slack:.3e}"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Item:
    """One input path of a workload's pool."""

    stream: int
    label: str
    path: object = None
    psi: PsiSpec | None = None
    spec: simulate.SimSpec | None = None
    csv: FsPath | None = None


class QvStepLong:
    """``qv_limit`` at n_max = 10 on one long step path per operation."""

    name = "qv-step-long"
    EVENTS = 2 ** 16
    N_MAX = 10

    def __init__(self):
        self.z_decreasing = []

    def specs(self, seed: int):
        """(stream, label, spec) of the pool: a third of the paths are 2-d."""
        jd = dict(kind="jump-diffusion", steps=self.EVENTS, seed=seed, mode="step",
                  volatility=1.0, jump_intensity=50.0, jump_mean=-0.02, jump_std=0.1)
        const = PsiSpec("constant", (0.05,))
        affine = PsiSpec("affine", (0.05, 0.05))
        brown = dict(kind="brownian", steps=self.EVENTS, seed=seed, mode="step")
        return [
            (0, "brownian-1d", simulate.SimSpec(**brown)),
            (1, "brownian-1d", simulate.SimSpec(**brown)),
            (2, "jump-constant-psi-1d", simulate.SimSpec(**jd, psi=const)),
            (3, "jump-affine-psi-1d", simulate.SimSpec(**jd, psi=affine)),
            (4, "brownian-2d", simulate.SimSpec(**brown, dim=2)),
            (5, "jump-affine-psi-2d", simulate.SimSpec(**jd, dim=2, psi=affine)),
        ]

    def setup(self, seed: int, workdir: FsPath) -> list[Item]:
        return [Item(stream, label, simulate.simulate(spec, stream))
                for stream, label, spec in self.specs(seed)]

    def run(self, item: Item):
        return qv.qv_limit(item.path, n_max=self.N_MAX, keep_generations=False)

    def check(self, item: Item, report) -> str | None:
        self.z_decreasing.append(bool(report.z_sup[self.N_MAX - 1] < report.z_sup[4]))
        return check_qv_terminal(report.terminal, item.path.values)

    def verdict(self) -> str | None:
        share = float(np.mean(self.z_decreasing)) if self.z_decreasing else 0.0
        if share < 0.95:
            return f"z_sup[10] < z_sup[5] on {share:.1%} of paths"
        return None


class CliIntegrateLinear:
    """``pathcalc qv`` then ``pathcalc integrate`` on one linear Brownian path."""

    name = "cli-integrate-linear"
    STEPS = 4096

    def spec(self, seed: int):
        return simulate.SimSpec(kind="brownian", steps=self.STEPS, seed=seed, mode="linear")

    def setup(self, seed: int, workdir: FsPath) -> list[Item]:
        out = workdir / "sim"
        argv = ["simulate", "--kind", "brownian", "--steps", str(self.STEPS), "--count", "1",
                "--seed", str(seed), "--mode", "linear", "--output-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"pathcalc simulate exited with {code}")
        self.workdir = workdir
        return [Item(0, "brownian-linear", spec=self.spec(seed), csv=out / "path_0000.csv")]

    def run(self, item: Item):
        qv_dir, int_dir = self.workdir / "qv", self.workdir / "integrate"
        with contextlib.redirect_stdout(io.StringIO()) as text:
            c_qv = cli.main(["qv", "--input", str(item.csv), "--n-max", "10",
                             "--output-dir", str(qv_dir)])
            c_int = cli.main(["integrate", "--input", str(item.csv), "--rule", "prev-price",
                              "--n-max", "10", "--output-dir", str(int_dir)])
        return c_qv, c_int, text.getvalue()

    def check(self, item: Item, out) -> str | None:
        c_qv, c_int, text = out
        if c_qv != 0 or c_int != 0:
            return f"exit codes qv={c_qv} integrate={c_int}: {text.strip()}"
        q_t = json.loads((self.workdir / "qv" / "qv_report.json").read_text())["terminal"][0][0]
        i_t = json.loads((self.workdir / "integrate" / "integral_report.json").read_text())["terminal"]
        lines = item.csv.read_text().splitlines()
        table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        expected = simulate.simulate(item.spec, 0)
        if not (np.array_equal(table[:, 0], expected.times)
                and np.array_equal(table[:, 1:], expected.values)):
            return "path CSV does not read back bit-identical to simulate(spec, 0)"
        return check_telescoping(i_t, q_t, table[:, 1])

    def verdict(self) -> str | None:
        return None


class ChecksShortPaths:
    """The superhedging checks on one short psi-clipped jump-diffusion path."""

    name = "checks-short-paths"
    STEPS = 128
    PATHS = 80
    K_VALUES = (1, 2, 4)

    def specs(self, seed: int):
        """Two families: constant psi (as in acceptance 02/03), affine psi (as in 09)."""
        const = simulate.SimSpec(kind="jump-diffusion", steps=self.STEPS, seed=seed,
                                 volatility=0.4, jump_intensity=6.0, jump_mean=-0.05,
                                 jump_std=0.25, psi=PsiSpec("constant", (0.5,)))
        affine = simulate.SimSpec(kind="jump-diffusion", steps=self.STEPS, seed=seed,
                                  volatility=0.3, jump_intensity=5.0, jump_mean=-0.02,
                                  jump_std=0.1, x0=0.2, psi=PsiSpec("affine", (0.1, 0.1)))
        return const, affine

    def setup(self, seed: int, workdir: FsPath) -> list[Item]:
        families = self.specs(seed)
        pool = []
        for stream in range(self.PATHS):
            spec = families[(stream // 4) % 2]
            pool.append(Item(stream, spec.psi.family, simulate.simulate(spec, stream),
                             psi=spec.psi))
        return pool

    def run(self, item: Item):
        path, psi = item.path, item.psi
        deviations = []
        for n in range(2, 9):
            for k in self.K_VALUES:
                _, report = strategies.l_strategy(path, n, k, psi, tolerance=K_PROCESS_TOL)
                deviations.append(report.max_deviation)
        n = item.stream % 4
        k_bound = float(math.floor(path.sup_norm())) + 1.0
        realized = strategies.doob_aggregate(n, k_bound, psi).realize(path)
        verdict = strategies.check_strong_admissibility(realized, [path], 1.0)[0]
        factor = strategies.doob_aggregate_bound_factor(n, k_bound, psi)
        curve = strategies.capital_curve(realized, path)
        ups = np.array([partitions.crossings_accumulated(path, 2.0 ** -n, float(t))[0]
                        for t in curve.times])
        bdg = integration.bdg_bound_check_cadlag(
            lambda p: integration.constant_integrand(1.0, p.dim), [path],
            a=3.0, b=1.5, c=1.0, M=1.0, psi=psi, n=10, n_max=6)
        return {"deviation": max(deviations), "realized": realized, "verdict": verdict,
                "factor": factor, "curve": curve, "ups": ups, "n": n, "bdg": bdg}

    def check(self, item: Item, out) -> str | None:
        if not out["deviation"] <= K_PROCESS_TOL:
            return f"K-process deviation {out['deviation']:.3e}"
        if not out["verdict"].ok:
            return "doob aggregate not strongly 1-admissible"
        path = item.path
        if not np.array_equal(out["curve"].times, path.times):
            return "capital grid differs from the event times"
        values = path.values[:, 0]
        reason = check_crossing_counts(values, 2.0 ** -out["n"], out["ups"])
        if reason:
            return reason
        realized = out["realized"]
        capital = step_capital(realized.times, realized.positions, path.times, values)
        reason = check_doob(capital, out["verdict"].worst_capital, out["ups"], out["factor"])
        if reason:
            return reason
        bdg = out["bdg"]
        if not bdg.worst_slack >= 0.0:
            return f"pathwise transform slack {bdg.worst_slack:.3e}"
        if not bdg.transform_mismatch <= MISMATCH_TOL:
            return f"transform mismatch {bdg.transform_mismatch:.3e}"
        return None

    def verdict(self) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (QvStepLong, CliIntegrateLinear, ChecksShortPaths)}
