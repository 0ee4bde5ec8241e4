"""Batch front end: simulate ensembles and run experiments from flags or JSON.

Every run writes a ``manifest.json``: its ``config`` is the parsed flags but
``--config`` and ``--output-dir``, under the keys a ``--config`` file takes
(``n_max``, ``lam`` for ``--lambda``), with their sha256, the tool version
and one pass/fail entry per check.  All other outputs are deterministic
functions of the config, so that object, passed back as ``--config``, reruns
the command byte for byte.  Only ``simulate``, ``verify`` and ``continuity``
draw random numbers, so only they take ``--seed``.  Every numeric flag is
checked as it is parsed, by the library's one scalar rule (``paths._scalar``).

Exit codes: 0 success; 2 configuration error; 3 I/O error; 4 an exact
pathwise identity failed (implementation bug, never bad luck); 5 an
empirical bound check failed (statistical).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path as FsPath

import numpy as np

from . import __version__, checks
from .errors import CheckFailedError, ContractError, InternalConsistencyError
from .integration import ito_integral
from .partitions import crossing_report
from .paths import (PsiSpec, _create, _read_json_object, _scalar, _write_json, _write_table,
                    read_path_csv, write_path_csv)
from .qv import discrete_qv, qv_limit, write_qv_report
from .simulate import _FIELD_RULES, SimSpec, simulate, write_simspec

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


def _flag(name: str, integer: bool = False, **domain):
    """An argparse type: ``int(text)`` or ``float(text)``, checked by :func:`paths._scalar` as
    ``name`` in ``domain``; every numeric flag has one.  By default the domain is the finite
    numbers, so that the manifest records every flag, read or not, as JSON."""
    kind = int if integer else float

    def parse(text: str):
        try:
            return _scalar(kind(text), name, integer=integer, **domain)
        except ContractError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    parse.__name__ = kind.__name__  # argparse names it on a ValueError
    return parse


_POSITIVE = {"lo": 0, "open_lo": True}  # the domain of a finite number > 0


def _parse_rule(text: str):
    """The integrand rule of ``--rule``: ``unit``, ``prev-price`` or ``const:VALUE``."""
    if text == "unit":
        return lambda p, t: np.ones(p.dim)
    if text == "prev-price":
        return lambda p, t: p.eval(t)
    family, _, value = text.partition(":")
    with contextlib.suppress(ValueError, ContractError):
        if family == "const":
            c = _scalar(float(value), "VALUE")
            return lambda p, t: np.full(p.dim, c)
    raise ContractError(f"unknown --rule {text!r}: use unit, prev-price or const:VALUE "
                        "with a finite VALUE")


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
    for i in range(args.count):  # one path in memory at a time
        write_path_csv(simulate(spec, i), out / f"path_{i:04d}.csv",
                       sidecar={"psi": spec.psi.to_json() if spec.psi else None})
    write_simspec(spec, out / "simspec.json")
    checks = [{"name": "simulate", "passed": True,
               "detail": f"{args.count} path(s), kind={spec.kind}"}]
    return EXIT_OK, checks


def cmd_qv(args) -> tuple[int, list]:
    path = read_path_csv(args.input)
    out = _outdir(args)
    report = qv_limit(path, n_max=args.n_max, tol=args.tol, keep_generations=False)
    write_qv_report(report, out / "qv_report.json", out / "qv_limit.csv",
                    out / f"partition_n{args.n_max}.csv" if path.dim == 1 else None)
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
    with _create(out / "integral.csv") as fh:
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
# verify subcommand: each check returns the detail (and per-path records) it passed with
# ---------------------------------------------------------------------------

def _verify_bdg(args) -> dict:
    rep = checks.bdg(checks.bdg_sequences(args.seed, args.count), args.seed)
    return {"detail": f"{rep.checked} sequences, 0 violations"}


def _verify_l_identity(args) -> dict:
    rep = checks.l_identity(args.seed, args.count, _parse_psi(args.psi) or checks.CONSTANT_PSI,
                            K=args.K)
    return {"detail": f"{rep.checked} path/generation/K combinations, max dev <= 1e-9"}


def _verify_doob(args) -> dict:
    rep = checks.doob(args.seed, args.count, _parse_psi(args.psi) or checks.CONSTANT_PSI,
                      K=args.K)
    return {"detail": f"{len(rep.per_path)} paths x 4 generations, worst slack {rep.worst:.3e}",
            "per_path": rep.per_path}


def _verify_hoeffding(args) -> dict:
    checks.hoeffding(args.seed, args.count)
    return {"detail": f"{args.count} walks x 6 lambdas, 0 violations"}


def _verify_lift(args) -> dict:
    rep = checks.lift(args.seed, args.count, _parse_psi(args.psi) or checks.CONSTANT_PSI,
                      float(args.lam))
    return {"detail": f"{rep.checked} weakly admissible candidates lifted, 0 violations",
            "per_path": rep.per_path}


def _verify_concentration(args) -> dict:
    rep = checks.concentration(args.seed, args.count, a=args.a, b=args.b, n_max=args.n_max)
    return {"detail": f"freq {rep.frequency:.5f} <= {rep.bound:.5f} + 3*{rep.stderr:.5f}"}


def _verify_bdg_bound(args) -> dict:
    rep = checks.bdg_bound(args.seed, args.count, _parse_psi(args.psi) or checks.AFFINE_PSI,
                           a=args.a, b=args.b, c=args.c, M=args.M, n_max=args.n_max)
    return {"detail": (f"worst pathwise slack {rep.worst_slack:.3e}, "
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
            checks.append({"name": name, "passed": True} | VERIFY_CHECKS[name](args))
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
    rep = checks.continuity(args.ensemble, args.seed, args.count, epsilon=args.epsilon,
                            n_max=args.n_max, psi=_parse_psi(args.psi) or checks.AFFINE_PSI)
    with _create(out / "continuity.csv") as fh:
        _write_table(fh, ["scale", "integrand_distance", "integral_distance"],
                     [np.asarray(col) for col in zip(*rep.rows)])
    # the one JSON artifact in insertion order: sorting its keys would change its bytes
    summary = {"slope": rep.slope, "floor": rep.floor, "ok": rep.ok, "kind": rep.kind,
               "epsilon": rep.epsilon}
    _write_json(out / "continuity_summary.json", summary, sort_keys=False)
    return (EXIT_OK if rep.ok else EXIT_CHECK_FAILED), [
        {"name": "continuity-slope", "passed": rep.ok,
         "detail": f"slope {rep.slope:.3f} floor {rep.floor:.3f}"}]


# ---------------------------------------------------------------------------

@functools.cache
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
    sp.add_argument("--count", type=_flag("count", True, lo=1), default=1)
    defaults = {"kind": "brownian", "steps": 256}  # the CLI's own; the others are SimSpec's
    helps = {"psi": "family:p1,p2 e.g. constant:0.5 or affine:0.1,0.2"}
    for f in fields(SimSpec):  # a numeric field's flag is checked by the field's own rule
        sp.add_argument(f"--{f.name.replace('_', '-')}", default=defaults.get(f.name, f.default),
                        type=_flag(f.name, f.type == "int", **_FIELD_RULES.get(f.name, {}))
                        if f.type in ("int", "float") else None, help=helps.get(f.name))

    sp = sub.add_parser("qv", help="quadratic variation report for a path file")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--n-max", type=_flag("n_max", True, lo=1), default=12)
    sp.add_argument("--tol", type=_flag("tol", **_POSITIVE), default=1e-8)

    sp = sub.add_parser("crossings", help="level-crossing report for a path file")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--h", type=_flag("h", **_POSITIVE), required=True)
    sp.add_argument("--t", type=_flag("t"), default=None)

    sp = sub.add_parser("integrate", help="pathwise integral of a sampled rule")
    common(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--rule", default="prev-price",
                    help="unit | prev-price | const:VALUE")
    sp.add_argument("--n-max", type=_flag("n_max", True, lo=1), default=10)
    sp.add_argument("--tol", type=_flag("tol", **_POSITIVE), default=1e-6)

    sp = sub.add_parser("verify", help="run theorem and bound checks")
    common(sp)
    sp.add_argument("--seed", type=_flag("seed", True, **_FIELD_RULES["seed"]), default=0)
    sp.add_argument("--check", default="all",
                    choices=["all"] + sorted(VERIFY_CHECKS))
    sp.add_argument("--count", type=_flag("count", True, lo=1), default=200)
    sp.add_argument("--K", type=_flag("K", **_POSITIVE), default=None,
                    help="fix the wealth bound K instead of the per-path default")
    sp.add_argument("--lambda", dest="lam", type=_flag("lambda", **_POSITIVE), default=0.5)
    sp.add_argument("--psi", help="family:p1,p2")
    sp.add_argument("--a", type=_flag("a"), default=3.0,
                    help="deviation level for the bound checks")
    sp.add_argument("--b", type=_flag("b"), default=1.5,
                    help="quadratic-variation budget for the bound checks")
    sp.add_argument("--c", type=_flag("c"), default=1.0,
                    help="integrand sup bound (transform check)")
    sp.add_argument("--M", type=_flag("M"), default=1.0,
                    help="path sup bound (transform check)")
    sp.add_argument("--n-max", type=_flag("n_max", True, lo=1), default=6,
                    help="quadratic-variation generations for ensemble stats")

    sp = sub.add_parser("continuity", help="integrand-vs-integral distance table")
    common(sp)
    sp.add_argument("--seed", type=_flag("seed", True, **_FIELD_RULES["seed"]), default=0)
    sp.add_argument("--ensemble", choices=["continuous", "cadlag"],
                    default="continuous")
    sp.add_argument("--count", type=_flag("count", True, lo=1), default=50)
    sp.add_argument("--epsilon", type=_flag("epsilon"), default=0.25)
    sp.add_argument("--n-max", type=_flag("n_max", True, lo=1), default=6)
    sp.add_argument("--psi", help="family:p1,p2 (cadlag ensemble)")

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
        # looked up by name at each call: the cached parser pins no command function
        code, checks = globals()[f"cmd_{args.command}"](args)
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
              if k not in ("command", "config", "output_dir")}
    _write_manifest(_outdir(args), args.command, config, checks, code)
    return code
