"""Batch front end: simulate ensembles and run experiments from flags or JSON.

Every run writes a ``manifest.json``: its ``config`` is the parsed flags but
``--config`` and ``--output-dir``, under the keys a ``--config`` file takes
(``n_max``, ``lam`` for ``--lambda``), with their sha256, the tool version
and one pass/fail entry per check.  All other outputs are deterministic
functions of the config, so that object, passed back as ``--config``, reruns
the command byte for byte.  Only ``simulate``, ``verify`` and ``continuity``
draw random numbers, so only they take ``--seed``.

Exit codes: 0 success; 2 configuration error; 3 I/O error; 4 an exact
pathwise identity failed (implementation bug, never bad luck); 5 an
empirical bound check failed (statistical).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .errors import CheckFailedError, ContractError, InternalConsistencyError
from .integration import (
    bdg_bound_check_cadlag,
    concentration_check_continuous,
    constant_integrand,
    continuity_experiment,
    ito_integral,
    prepare_ensemble,
)
from .partitions import (
    crossing_report,
    upcrossings_at_events,
    write_partition_csv,
)
from .paths import (Path, PsiSpec, _read_json_object, _write_json, _write_table, read_path_csv,
                    write_path_csv)
from .qv import discrete_qv, qv_limit, write_qv_report
from .simulate import SimSpec, ensemble, write_simspec
from .strategies import (
    RealizedStrategy,
    bdg_check_batch,
    check_strong_admissibility,
    check_weak_admissibility,
    doob_aggregate,
    doob_aggregate_bound_factor,
    hoeffding_check,
    l_strategy,
    lift_budget,
    rho_lambda,
    StrategyRule,
    capital_curve,
    admissibility_lift,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
EXIT_CHECK_FAILED = 5


def _parse_psi(text: str | None) -> PsiSpec | None:
    if not text:
        return None
    try:
        family, _, params = text.partition(":")
        values = tuple(float(x) for x in params.split(",")) if params else ()
        return PsiSpec(family, values)
    except (ValueError, ContractError) as exc:
        raise ContractError(f"bad --psi {text!r}: {exc}") from exc


def _positive(kind):
    """An argparse type: ``kind(text)``, rejected unless finite and > 0."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < float("inf"):  # also rejects nan, and compares any int
            raise argparse.ArgumentTypeError(f"expected a finite {kind.__name__} > 0, "
                                             f"got {text!r}")
        return value
    parse.__name__ = f"positive {kind.__name__}"  # argparse names it on a ValueError
    return parse


def _seed(text: str) -> int:
    """An argparse type: a seed, an integer in [0, 2**64) (simulate's key holds 64 bits)."""
    if not 0 <= (value := int(text)) < 2 ** 64:
        raise argparse.ArgumentTypeError(f"expected a seed in [0, 2**64), got {text!r}")
    return value


def _parse_rule(text: str):
    """The integrand rule of ``--rule``: ``unit``, ``prev-price`` or ``const:VALUE``."""
    if text == "unit":
        return lambda p, t: np.ones(p.dim)
    if text == "prev-price":
        return lambda p, t: p.eval(t)
    family, _, value = text.partition(":")
    try:
        c = float(value)
    except ValueError:
        c = np.nan
    if family != "const" or not np.isfinite(c):
        raise ContractError(f"unknown --rule {text!r}: use unit, prev-price or const:VALUE "
                            "with a finite VALUE")
    return lambda p, t: np.full(p.dim, c)


def _outdir(args) -> FsPath:
    out = FsPath(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: FsPath, command: str, config: dict, checks: list, exit_code: int):
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config,
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "checks": checks,
        "exit_code": exit_code,
    }
    _write_json(out / "manifest.json", manifest)


def cmd_simulate(args) -> tuple[int, list]:
    spec = SimSpec(**{f.name: getattr(args, f.name) for f in fields(SimSpec)}
                   | {"psi": _parse_psi(args.psi)})
    out = _outdir(args)
    for i, p in enumerate(ensemble(spec, args.count)):
        write_path_csv(p, out / f"path_{i:04d}.csv",
                       sidecar={"psi": spec.psi.to_json() if spec.psi else None})
    write_simspec(spec, out / "simspec.json")
    checks = [{"name": "simulate", "passed": True,
               "detail": f"{args.count} path(s), kind={spec.kind}"}]
    return EXIT_OK, checks


def cmd_qv(args) -> tuple[int, list]:
    path = read_path_csv(args.input)
    out = _outdir(args)
    report = qv_limit(path, n_max=args.n_max, tol=args.tol)
    write_qv_report(report, out / "qv_report.json", out / "qv_limit.csv")
    if path.dim == 1:
        write_partition_csv(report.partition, out / f"partition_n{args.n_max}.csv")
    checks = [{"name": "qv-cauchy", "passed": bool(report.cauchy_tol_met),
               "detail": f"z_sup[{args.n_max}]={report.z_sup[-1]:.3e} tol={args.tol}"}]
    return EXIT_OK, checks  # non-convergence is reported data


def cmd_crossings(args) -> tuple[int, list]:
    path = read_path_csv(args.input)
    out = _outdir(args)
    rep = crossing_report(path, h=args.h, t=args.t)
    _write_json(out / "crossings.json", rep)
    return EXIT_OK, [{"name": "crossings", "passed": True,
                      "detail": f"U={rep['U']} D={rep['D']}"}]


def cmd_integrate(args) -> tuple[int, list]:
    path = read_path_csv(args.input)
    out = _outdir(args)
    rep = ito_integral(_parse_rule(args.rule), path, n_max=args.n_max, tol=args.tol)
    with (out / "integral.csv").open("w") as fh:
        _write_table(fh, ["t", "integral"], [rep.curve.times, rep.curve.values])
    checks = [{"name": "ito-cauchy", "passed": bool(rep.converged),
               "detail": f"last gap {rep.generation_gaps[-1]:.3e}" if rep.generation_gaps.size else "single generation"}]
    code = EXIT_OK
    if args.rule == "prev-price" and path.dim == 1:
        qv_term = discrete_qv(path, rep.partition, path.horizon)
        s = path.values[:, 0]
        resid = abs(2 * rep.terminal + qv_term - (s[-1] ** 2 - s[0] ** 2))
        scale = max(1.0, abs(s[-1] ** 2 - s[0] ** 2))
        passed = bool(resid <= (1e-12 if path.mode == "step" else 1e-2) * scale)
        checks.append({"name": "telescoping-identity", "passed": passed,
                       "detail": f"residual {resid:.3e}"})
        if not passed and path.mode == "step":
            code = EXIT_INTERNAL
    summary = {"terminal": rep.terminal, "converged": rep.converged,
               "generation_gaps": rep.generation_gaps.tolist(), "note": rep.note}
    _write_json(out / "integral_report.json", summary)
    return code, checks


# ---------------------------------------------------------------------------
# verify subcommand: deterministic theorem checks and empirical bounds
# ---------------------------------------------------------------------------

def _random_step_paths(seed: int, count: int, events: int, psi: PsiSpec) -> list[Path]:
    spec = SimSpec(kind="jump-diffusion", steps=events, seed=seed, volatility=0.4,
                   jump_intensity=6.0, jump_mean=-0.05, jump_std=0.25,
                   horizon=1.0, psi=psi)
    return ensemble(spec, count)


def _verify_bdg(args) -> dict:
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    seqs = []
    for _ in range(args.count):
        m = int(rng.integers(1, 201))
        scale = 10.0 ** rng.uniform(-3, 3)
        seqs.append(rng.normal(0.0, scale, m))
    # degenerate shapes that exercise the 0/0 convention
    seqs += [np.zeros(5), np.array([0.0, 1.0]), np.array([0.0] * 3 + [2.0])]
    lhs, rhs = bdg_check_batch(seqs)
    bad = int(np.sum(lhs > rhs + 1e-9 * np.maximum(1.0, np.abs(rhs))))
    if bad:
        raise InternalConsistencyError(f"{bad} transform-bound violations")
    return {"name": "bdg", "passed": True,
            "detail": f"{len(seqs)} sequences, 0 violations"}


def _verify_l_identity(args) -> dict:
    psi = _parse_psi(args.psi) or PsiSpec("constant", (0.5,))
    paths = _random_step_paths(args.seed, args.count, events=48, psi=psi)
    k_values = (int(args.K),) if args.K else (1, 2, 4)
    runs = 0
    for p in paths:
        for n in range(2, 9):
            for K in k_values:
                l_strategy(p, n, K, psi, tolerance=1e-9)  # raises on violation
                runs += 1
    return {"name": "l-identity", "passed": True,
            "detail": f"{runs} path/generation/K combinations, max dev <= 1e-9"}


def _verify_doob(args) -> dict:
    psi = _parse_psi(args.psi) or PsiSpec("constant", (0.5,))
    paths = _random_step_paths(args.seed, args.count, events=64, psi=psi)
    if args.K:  # the crossing bound is claimed on paths below K only
        paths = [p for p in paths if p.sup_norm() < args.K]
    worst = np.inf
    per_path = []
    for idx, p in enumerate(paths):
        K = float(args.K) if args.K else float(np.floor(p.sup_norm())) + 1.0
        path_worst = np.inf
        for n in (0, 1, 2, 3):
            rule = doob_aggregate(n, K, psi)
            realized = rule.realize(p)
            if not check_strong_admissibility(realized, [p], 1.0)[0].ok:
                raise InternalConsistencyError("aggregate not strongly 1-admissible")
            factor = doob_aggregate_bound_factor(n, K, psi)
            curve = capital_curve(realized, p)
            ups = upcrossings_at_events(p, 2.0 ** -n)
            slack = 1.0 + curve.values_at(p.times) - factor * ups
            path_worst = min(path_worst, float(slack.min()))
            violated = np.flatnonzero(slack < -1e-12)
            if violated.size:
                raise InternalConsistencyError(
                    f"crossing bound violated by {-slack[violated[0]]:.3e}")
        worst = min(worst, path_worst)
        per_path.append({"path": idx, "K": K, "passed": True,
                         "worst_slack": path_worst})
    return {"name": "doob", "passed": True,
            "detail": f"{len(paths)} paths x 4 generations, worst slack {worst:.3e}",
            "per_path": per_path}


def _verify_hoeffding(args) -> dict:
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    for _ in range(args.count):
        steps = int(rng.integers(5, 120))
        c = float(rng.uniform(0.05, 0.5))
        vals = np.concatenate([[0.0], np.cumsum(rng.uniform(-c, c, steps))])
        p = Path(times=np.arange(steps + 1, dtype=float), values=vals, mode="step")
        for lam in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            rep = hoeffding_check(p, p.times, c, lam)
            if not rep.ok:
                raise InternalConsistencyError(
                    f"wealth fell below the exponential envelope: {rep}")
    return {"name": "hoeffding", "passed": True,
            "detail": f"{args.count} walks x 6 lambdas, 0 violations"}


def _verify_lift(args) -> dict:
    psi = _parse_psi(args.psi) or PsiSpec("constant", (0.5,))
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    paths = _random_step_paths(args.seed + 1, args.count, events=32, psi=psi)
    lam = float(args.lam)
    tested = 0
    per_path = []
    for idx, p in enumerate(paths):
        K = float(np.floor(p.sup_norm())) + 1.0
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.9, 3)), [np.inf]])
        pos = rng.uniform(-lam, lam, 4)
        cand = RealizedStrategy(times=times, positions=pos)
        rho = rho_lambda(cand, p, lam)
        if np.isfinite(rho):
            keep = [t for t in times[:-1] if t < rho] + [rho]
            cand = RealizedStrategy(times=np.array(keep + [np.inf]),
                                    positions=np.append(pos[:len(keep) - 1], 0.0))
        if not check_weak_admissibility(cand, [p], lam)[0].ok:
            continue
        tested += 1
        rule = StrategyRule(kind="fixed", params={}, _evaluate=lambda _p, c=cand: c)
        lifted = admissibility_lift(rule, lam, K, psi).realize(p)
        budget = lift_budget(lam, 1, K, psi)
        verdict = check_strong_admissibility(lifted, [p], budget)[0]
        per_path.append({"path": idx, "K": K, "budget": budget,
                         "passed": verdict.ok,
                         "worst_slack": verdict.worst_capital + budget})
        if not verdict.ok:
            raise InternalConsistencyError("lifted strategy broke its strong budget")
    return {"name": "lift", "passed": True,
            "detail": f"{tested} weakly admissible candidates lifted, 0 violations",
            "per_path": per_path}


def _verify_concentration(args) -> dict:
    spec = SimSpec(kind="brownian", steps=2 ** 12, seed=args.seed, mode="step")
    rep = concentration_check_continuous(lambda p: constant_integrand(1.0, p.dim),
                                         ensemble(spec, args.count), a=args.a, b=args.b,
                                         n_max=args.n_max)
    if not rep.ok:
        raise CheckFailedError(
            f"frequency {rep.frequency:.4f} > bound {rep.bound:.4f} + 3se")
    return {"name": "concentration", "passed": True,
            "detail": f"freq {rep.frequency:.5f} <= {rep.bound:.5f} + 3*{rep.stderr:.5f}"}


def _verify_bdg_bound(args) -> dict:
    psi = _parse_psi(args.psi) or PsiSpec("affine", (0.1, 0.1))
    spec = SimSpec(kind="jump-diffusion", steps=128, seed=args.seed, volatility=0.3,
                   jump_intensity=5.0, jump_mean=-0.02, jump_std=0.1,
                   x0=0.2, psi=psi)
    rep = bdg_bound_check_cadlag(lambda p: constant_integrand(1.0, p.dim),
                                 ensemble(spec, args.count),
                                 a=args.a, b=args.b, c=args.c, M=args.M,
                                 psi=psi, n=10, n_max=args.n_max)
    if not (rep.ok_frequency and rep.ok_frequency_compensator):
        raise CheckFailedError(f"frequency {rep.frequency:.4f} > {rep.bound:.4f} + 3se")
    return {"name": "bdg-bound", "passed": True,
            "detail": (f"worst pathwise slack {rep.worst_slack:.3e}, "
                       f"freq {rep.frequency:.5f} <= {rep.bound:.5f}, "
                       f"compensator freq {rep.frequency_compensator:.5f} "
                       f"<= {rep.bound_compensator:.5f}")}


VERIFY_CHECKS = {
    "bdg": _verify_bdg,
    "l-identity": _verify_l_identity,
    "doob": _verify_doob,
    "hoeffding": _verify_hoeffding,
    "lift": _verify_lift,
    "concentration": _verify_concentration,
    "bdg-bound": _verify_bdg_bound,
}


def cmd_verify(args) -> tuple[int, list]:
    names = list(VERIFY_CHECKS) if args.check == "all" else [args.check]
    checks = []
    code = EXIT_OK
    for name in names:
        try:
            checks.append(VERIFY_CHECKS[name](args))
        except InternalConsistencyError as exc:
            checks.append({"name": name, "passed": False, "detail": str(exc)})
            code = EXIT_INTERNAL
        except CheckFailedError as exc:
            checks.append({"name": name, "passed": False, "detail": str(exc)})
            code = EXIT_CHECK_FAILED if code == EXIT_OK else code
    _write_json(_outdir(args) / "verification_report.json", {"checks": checks})
    checks = [{k: v for k, v in chk.items() if k != "per_path"} for chk in checks]
    return code, checks


def cmd_continuity(args) -> tuple[int, list]:
    out = _outdir(args)
    if args.ensemble == "continuous":
        spec = SimSpec(kind="brownian", steps=256, seed=args.seed, mode="step")
        psi = None
    else:
        psi = _parse_psi(args.psi) or PsiSpec("affine", (0.1, 0.1))
        spec = SimSpec(kind="jump-diffusion", steps=128, seed=args.seed,
                       volatility=0.3, jump_intensity=5.0, jump_std=0.15, psi=psi)
    stats = prepare_ensemble(ensemble(spec, args.count), n_max=args.n_max)

    def factory(c):
        return lambda p: constant_integrand(c, p.dim)

    pairs = [(k, factory(1.0 + 2.0 ** -k), factory(1.0)) for k in range(1, 9)]
    rep = continuity_experiment(pairs, stats, epsilon=args.epsilon, kind=args.ensemble, psi=psi)
    with (out / "continuity.csv").open("w") as fh:
        _write_table(fh, ["scale", "integrand_distance", "integral_distance"],
                     [np.asarray(col) for col in zip(*rep.rows)])
    # the one JSON artifact in insertion order: sorting its keys would change its bytes
    with (out / "continuity_summary.json").open("w") as fh:
        json.dump({"slope": rep.slope, "floor": rep.floor, "ok": rep.ok,
                   "kind": rep.kind, "epsilon": rep.epsilon}, fh, indent=2)
        fh.write("\n")
    checks = [{"name": "continuity-slope", "passed": rep.ok,
               "detail": f"slope {rep.slope:.3f} floor {rep.floor:.3f}"}]
    return (EXIT_OK if rep.ok else EXIT_CHECK_FAILED), checks


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathcalc",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON file of defaults for this command")
        sp.add_argument("--output-dir", default="out")

    sp = sub.add_parser("simulate", help="generate a path ensemble")
    common(sp)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--kind", default="brownian")
    sp.add_argument("--steps", type=_positive(int), default=256)
    sp.add_argument("--count", type=_positive(int), default=1)
    sp.add_argument("--horizon", type=_positive(float), default=1.0)
    sp.add_argument("--dim", type=_positive(int), default=1)
    sp.add_argument("--drift", type=float, default=0.0)
    sp.add_argument("--volatility", type=float, default=1.0)
    sp.add_argument("--jump-intensity", type=float, default=0.0)
    sp.add_argument("--jump-mean", type=float, default=0.0)
    sp.add_argument("--jump-std", type=float, default=0.1)
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--amplitude", type=float, default=1.0)
    sp.add_argument("--value", type=float, default=0.0)
    sp.add_argument("--psi", help="family:p1,p2 e.g. constant:0.5 or affine:0.1,0.2")
    sp.add_argument("--mode", choices=["step", "linear"])
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("qv", help="quadratic variation report for a path file")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--n-max", type=_positive(int), default=12)
    sp.add_argument("--tol", type=_positive(float), default=1e-8)
    sp.set_defaults(fn=cmd_qv)

    sp = sub.add_parser("crossings", help="level-crossing report for a path file")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--h", type=_positive(float), required=True)
    sp.add_argument("--t", type=float, default=None)
    sp.set_defaults(fn=cmd_crossings)

    sp = sub.add_parser("integrate", help="pathwise integral of a sampled rule")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--rule", default="prev-price",
                    help="unit | prev-price | const:VALUE")
    sp.add_argument("--n-max", type=_positive(int), default=10)
    sp.add_argument("--tol", type=_positive(float), default=1e-6)
    sp.set_defaults(fn=cmd_integrate)

    sp = sub.add_parser("verify", help="run theorem and bound checks")
    common(sp)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--check", default="all",
                    choices=["all"] + sorted(VERIFY_CHECKS))
    sp.add_argument("--count", type=_positive(int), default=200)
    sp.add_argument("--K", type=_positive(float), default=None,
                    help="fix the wealth bound K instead of the per-path default")
    sp.add_argument("--lambda", dest="lam", type=_positive(float), default=0.5)
    sp.add_argument("--psi", help="family:p1,p2")
    sp.add_argument("--a", type=float, default=3.0,
                    help="deviation level for the bound checks")
    sp.add_argument("--b", type=float, default=1.5,
                    help="quadratic-variation budget for the bound checks")
    sp.add_argument("--c", type=float, default=1.0,
                    help="integrand sup bound (transform check)")
    sp.add_argument("--M", type=float, default=1.0,
                    help="path sup bound (transform check)")
    sp.add_argument("--n-max", type=_positive(int), default=6,
                    help="quadratic-variation generations for ensemble stats")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("continuity", help="integrand-vs-integral distance table")
    common(sp)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--ensemble", choices=["continuous", "cadlag"],
                    default="continuous")
    sp.add_argument("--count", type=_positive(int), default=50)
    sp.add_argument("--epsilon", type=float, default=0.25)
    sp.add_argument("--n-max", type=_positive(int), default=6)
    sp.add_argument("--psi", help="family:p1,p2 (cadlag ensemble)")
    sp.set_defaults(fn=cmd_continuity)

    return parser


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Override ``args`` from the ``--config`` JSON object.

    Each value is read as if it had been given on the command line: through
    its flag's argparse ``type`` and ``choices``.  ``null`` is accepted for
    optional flags whose default is ``None``.
    """
    if not getattr(args, "config", None):
        return
    overrides = _read_json_object(args.config)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in commands.choices[args.command]._actions}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None or action.dest == "help":
            raise ContractError(f"unknown config key {key!r}")
        if value is None:
            if action.default is not None or action.required:
                raise ContractError(f"config key {key!r} cannot be null")
        elif isinstance(value, (bool, list, dict)):
            raise ContractError(f"config key {key!r}: expected a number or a string")
        else:
            try:
                value = (action.type or str)(str(value))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ContractError(f"config key {key!r}: {exc}") from exc
            if action.choices is not None and value not in action.choices:
                raise ContractError(f"config key {key!r}: {value!r} is not one of "
                                    f"{sorted(action.choices)}")
        setattr(args, action.dest, value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a malformed flag exits 2, --help and --version 0
        return exc.code
    try:
        _apply_config_file(args, parser)
        code, checks = args.fn(args)
    except ContractError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CheckFailedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for chk in checks:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[{status}] {chk['name']}: {chk.get('detail', '')}")
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "fn", "config", "output_dir")}
    _write_manifest(_outdir(args), args.command, config, checks, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
