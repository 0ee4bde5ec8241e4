"""Acceptance suite: one test per criterion, at the stated size and tolerance.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output).  Deterministic pathwise identities allow zero violations;
Monte-Carlo bound checks allow three binomial standard errors.
"""

import itertools
import time
from dataclasses import replace

import numpy as np

from pathcalc import Path, PsiSpec, checks
from pathcalc.cli import EXIT_OK, main
from pathcalc.integration import (bdg_bound_check_cadlag, concentration_check_continuous,
                                  ito_integral)
from pathcalc.partitions import crossings
from pathcalc.qv import jump_identity_check, qv_limit
from pathcalc.simulate import SimSpec, simulate

from conftest import random_step_path


def _pass(num, name, detail):
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS - {detail}")


def test_01_pathwise_bdg_inequality():
    # degenerate prefixes exercising the 0/0 := 0 convention
    seqs = checks.bdg_sequences(20240801, 100_000, degenerate=(
        (0.0,) * 7, (0.0, 1.0), (0.0, 0.0, 3.0), (5.0,), (0.0,)))
    t0 = time.perf_counter()
    rep = checks.bdg(seqs, 20240801)  # drawn as checked; raises on a violation
    elapsed = time.perf_counter() - t0
    assert rep.checked == 100_005 and rep.worst >= 0.0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _pass(1, "pathwise-bdg", f"{rep.checked} sequences, 0 violations, {elapsed:.2f}s")


def test_02_compensated_z_capital_identity():
    rep = checks.l_identity(31, 1000, PsiSpec("constant", (0.5,)))
    assert rep.worst <= 1e-9
    _pass(2, "z-capital-identity", f"{rep.checked} runs, max deviation {rep.worst:.2e} <= 1e-9")


def test_03_dyadic_doob_bound():
    # one generation per path, n = stream % 4, and K = floor(sup) + 1 > sup
    spec = replace(checks.JUMP_SPEC, volatility=0.35, jump_intensity=5.0, jump_std=0.2)
    rep = checks.doob(57, 1000, PsiSpec("constant", (0.5,)), spec=spec, every_generation=False)
    assert len(rep.per_path) == 1000 and rep.worst >= -1e-12
    _pass(3, "dyadic-doob-bound",
          f"1000 paths, {rep.checked} grid checks, worst slack {rep.worst:.3e}")


def test_04_exponential_supermartingale():
    rep = checks.hoeffding(4, 1000, min_steps=10)  # raises below the envelope
    assert rep.checked == 6000 and rep.worst >= -1e-10
    _pass(4, "exponential-supermartingale",
          f"1000 walks x 6 lambdas, worst margin {rep.worst:.3e} >= 0")


def test_05_qv_convergence_on_martingale_paths():
    t0 = time.perf_counter()
    spec = SimSpec(kind="brownian", steps=2 ** 16, seed=505, volatility=1.0,
                   drift=0.0, mode="step")
    rel_errs = []
    z_improved = 0
    for stream in range(100):
        p = simulate(spec, stream=stream)
        report = qv_limit(p, n_max=10, tol=1e-4, keep_generations=False)
        grid_var = float(np.sum(np.diff(p.values[:, 0]) ** 2))
        rel_errs.append(abs(report.terminal[0, 0] - grid_var) / grid_var)
        if report.z_sup[9] < report.z_sup[4]:
            z_improved += 1
    elapsed = time.perf_counter() - t0
    assert max(rel_errs) <= 1e-2, f"worst relative error {max(rel_errs):.4f}"
    assert z_improved >= 95, f"only {z_improved}/100 paths had z10 < z5"
    assert elapsed < 120.0, f"took {elapsed:.0f}s"
    _pass(5, "qv-convergence",
          f"100 paths, worst rel err {max(rel_errs):.2e}, "
          f"z10<z5 on {z_improved}/100, {elapsed:.0f}s")


def test_06_pure_jump_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    worst_jump = 0.0
    for trial in range(1000):
        dim = 2 if trial % 5 == 0 else 1
        p = random_step_path(rng, n_events=int(rng.integers(4, 16)), dim=dim,
                             min_jump=0.05, max_jump=0.8)
        report = qv_limit(p, n_max=12, tol=1e-12, keep_generations=False)
        assert report.cauchy_tol_met
        dv = np.diff(p.values, axis=0)
        oracle = dv.T @ dv
        worst = max(worst, float(np.max(np.abs(report.terminal - oracle))))
        jrep = jump_identity_check(p, report, tolerance=1e-12)
        worst_jump = max(worst_jump, jrep.max_discrepancy)
        assert jrep.ok
    assert worst <= 1e-12
    _pass(6, "pure-jump-oracle",
          f"1000 paths (incl. cross terms), max |error| {worst:.2e}, "
          f"jump identity max {worst_jump:.2e}")


def test_07_ito_telescoping_identity():
    sampler = lambda p, t: p.eval(t)  # noqa: E731

    rng = np.random.default_rng(707)
    worst_step = 0.0
    for _ in range(300):
        p = random_step_path(rng, n_events=12, min_jump=0.05)
        rep = ito_integral(sampler, p, n_max=12)
        qv_term = qv_limit(p, n_max=12, tol=1e-9, keep_generations=False).terminal[0, 0]
        s = p.values[:, 0]
        resid = abs(2 * rep.terminal + qv_term - (s[-1] ** 2 - s[0] ** 2))
        worst_step = max(worst_step, resid)
    assert worst_step <= 1e-12

    spec = SimSpec(kind="brownian", steps=2 ** 12, seed=77)  # linear mode default
    worst_brown = 0.0
    for stream in range(10):
        p = simulate(spec, stream=stream)
        rep = ito_integral(sampler, p, n_max=10)
        qv_term = qv_limit(p, n_max=10, tol=1e-4, keep_generations=False).terminal[0, 0]
        s0, sT = p.values[0, 0], p.values[-1, 0]
        scale = max(1.0, abs(sT ** 2 - s0 ** 2))
        worst_brown = max(worst_brown,
                          abs(2 * rep.terminal + qv_term - (sT ** 2 - s0 ** 2)) / scale)
    assert worst_brown <= 1e-2
    _pass(7, "ito-identity",
          f"step residual {worst_step:.2e} <= 1e-12, "
          f"brownian rel residual {worst_brown:.2e} <= 1e-2")


def test_08_exponential_concentration_bound():
    paths = checks.paths(checks.BROWNIAN_SPEC, 10_000, steps=2 ** 10, seed=808)
    rep = concentration_check_continuous(checks.integrand(1.0), paths, a=3.0, b=1.5, n_max=6)
    assert rep.count == 10_000
    assert rep.ok, rep
    _pass(8, "exponential-concentration",
          f"freq {rep.frequency:.5f} <= {rep.bound:.5f} + 3*{rep.stderr:.5f}")


def test_09_weighted_transform_bound_cadlag():
    psi = PsiSpec("affine", (0.1, 0.1))
    paths = checks.paths(checks.BDG_BOUND_SPEC, 10_000, seed=909, psi=psi)
    rep = bdg_bound_check_cadlag(checks.integrand(1.0), paths, a=100.0, b=1.0, c=1.0, M=1.0,
                                 psi=psi, n=10, n_max=6)
    assert rep.count == 10_000
    assert rep.ok_pathwise and rep.worst_slack >= 0.0
    assert rep.ok_frequency, rep
    assert rep.transform_mismatch <= 1e-9
    _pass(9, "weighted-transform-bound",
          f"10k paths, worst pathwise slack {rep.worst_slack:.3e}, "
          f"freq {rep.frequency:.5f} <= {rep.bound:.4f} + 3se")


def test_10_continuity_exponents():
    rep_c = checks.continuity("continuous", 1010, 200, epsilon=0.25, n_max=6)
    assert rep_c.ok, (rep_c.slope, rep_c.floor)
    rep_j = checks.continuity("cadlag", 1011, 200, epsilon=0.25, n_max=6,
                              psi=PsiSpec("affine", (0.1, 0.1)))
    assert rep_j.ok, (rep_j.slope, rep_j.floor)
    _pass(10, "continuity-exponents",
          f"continuous slope {rep_c.slope:.3f} >= {rep_c.floor:.3f}, "
          f"cadlag slope {rep_j.slope:.3f} >= {rep_j.floor:.3f}")


def _brute_force_upcrossings(values, a, b):
    m = len(values)
    best = 0
    for r in range(1, m // 2 + 1):
        for combo in itertools.combinations(range(m), 2 * r):
            if all(values[combo[2 * i]] <= a and values[combo[2 * i + 1]] >= b
                   for i in range(r)):
                best = r
                break
    return best


def test_11_crossing_counter_oracle():
    rng = np.random.default_rng(1111)
    mismatches = 0
    for _ in range(10_000):
        m = int(rng.integers(2, 9))
        vals = rng.uniform(-1, 1, m)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, m - 1))])
        p = Path(times=times, values=vals, horizon=1.0)
        a, b = np.sort(rng.uniform(-1, 1, 2))
        if a == b:
            continue
        up, down = crossings(p, a, b)
        if up != _brute_force_upcrossings(vals, a, b):
            mismatches += 1
        if down != _brute_force_upcrossings([-v for v in vals], -b, -a):
            mismatches += 1
    assert mismatches == 0
    _pass(11, "crossing-oracle", "10000 instances, greedy == exhaustive supremum")


def test_12_byte_identical_reruns(tmp_path):
    for sub in ("run1", "run2"):
        sim_out = tmp_path / sub / "sim"
        qv_out = tmp_path / sub / "qv"
        assert main(["simulate", "--kind", "jump-diffusion", "--steps", "128",
                     "--count", "2", "--seed", "1212", "--jump-intensity", "6",
                     "--psi", "constant:0.4", "--output-dir", str(sim_out)]) == EXIT_OK
        assert main(["qv", "--input", str(sim_out / "path_0000.csv"),
                     "--n-max", "8", "--output-dir", str(qv_out)]) == EXIT_OK
    for rel in ("sim/path_0000.csv", "sim/path_0001.csv", "sim/simspec.json",
                "qv/qv_limit.csv", "qv/qv_report.json"):
        b1 = (tmp_path / "run1" / rel).read_bytes()
        b2 = (tmp_path / "run2" / rel).read_bytes()
        assert b1 == b2, f"{rel} differs between reruns"
    _pass(12, "reproducibility", "simulate+qv reruns byte-identical across 5 artifacts")
