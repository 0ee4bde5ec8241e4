"""Paired A/B runs of the benchmark: a base revision against this checkout.

Run from anywhere inside a pathcalc checkout::

    python3 tools/ab.py --base HEAD~1 --workload checks-short-paths --pairs 6 --seconds 10 \
        --out BENCH.json

The base revision is extracted with ``git archive`` into a temporary
directory; the head side is this checkout's working tree, recorded as its
``HEAD`` and whether it has uncommitted changes.  Each side runs its own
``perfbench/run.py`` unchanged, in its own tree, with ``--trace 0``.  Pair i uses seed ``11 + i``
on both sides, and the side that runs first alternates, base first in pair 0.
A run that reports ``failed`` > 0 or ``correct`` false stops the tool with
exit code 1.  The record holds the machine, the revisions, and per workload
the seeds, every run's end-to-end metrics, each side's median and quartiles,
the pairs the head side won, by each metric's direction in ``BENCHMARK.json``,
and a verdict (see :func:`verdict`).  With ``--out`` an existing record of the
same revisions keeps its other workloads' rows.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 11


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> Path:
    """The tree of ``rev``, written under ``into`` by ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result object and machine record."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2 or not lines[-2].startswith("machine: "):
        raise SystemExit(f"ab: run.py in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["machine"] = json.loads(lines[-2].removeprefix("machine: "))
    return result


def quartiles(xs: list[float]) -> dict:
    """Lower quartile, median and upper quartile of ``xs`` (one value is all three)."""
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"q1": q1, "median": median, "q3": q3}


def verdict(base: dict, head: dict, won: int, pairs: int, better: str, bound: float) -> str:
    """``beyond_bound`` if the head median is worse than the base median by more than the
    relative ``bound``; else ``resolved`` if the head won at least 9 of every 10 pairs and its
    median is better by more than the base interquartile range; else ``unresolved`` if that
    range is wider than the bound, so the runs cannot tell a shift of the bound from noise;
    else ``within_bound``."""
    worse = (1.0 if better == "lower" else -1.0) * (head["median"] - base["median"])
    allowed, spread = bound * abs(base["median"]), base["q3"] - base["q1"]
    if worse > allowed:
        return "beyond_bound"
    if 10 * won >= 9 * pairs and -worse > spread:
        return "resolved"
    return "unresolved" if spread > allowed else "within_bound"


def compare(workload: str, pairs: int, seconds: int, trees: dict, metrics: dict,
            runner=run_bench) -> dict:
    """``pairs`` alternating base/head runs of ``workload``; the row of the record.

    ``metrics`` maps each end-to-end metric to its ``BENCHMARK.json`` entry, which gives its
    direction (``better``) and its relative ``bound``.
    """
    runs = {"base": [], "head": []}
    seeds = [FIRST_SEED + i for i in range(pairs)]
    machine = None
    for i, seed in enumerate(seeds):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            result = runner(trees[side], workload, seed, seconds)
            if result["failed"] or not result["correct"]:
                raise SystemExit(f"ab: {side} {workload} seed {seed}: failed {result['failed']} "
                                 f"of {result['attempted']}, correct {result['correct']}")
            machine = machine or result["machine"]
            runs[side].append({"seed": seed, "first": side == ("base", "head")[i % 2],
                               "attempted": result["attempted"],
                               "metrics": {m: v["value"] for m, v in result["metrics"].items()}})
    summary = {}
    for metric, spec in metrics.items():
        values = {side: [r["metrics"][metric] for r in runs[side]] for side in runs}
        sign = 1.0 if spec["better"] == "lower" else -1.0
        won = sum(sign * (h - b) < 0 for b, h in zip(values["base"], values["head"]))
        base, head = quartiles(values["base"]), quartiles(values["head"])
        summary[metric] = {"better": spec["better"], "base": base, "head": head,
                           "head_won": f"{won}/{pairs}",
                           "verdict": verdict(base, head, won, pairs, spec["better"],
                                              spec["bound"])}
    return {"workload": workload, "seconds": seconds, "seeds": seeds, "machine": machine,
            "summary": summary, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, help="record file (default: standard output)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    revisions = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD"),
                 "head_uncommitted_changes": bool(git("status", "--porcelain"))}
    with tempfile.TemporaryDirectory(prefix="pathcalc-ab-") as tmp:
        trees = {"base": extract(revisions["base"], Path(tmp, "base")), "head": ROOT}
        row = compare(args.workload, args.pairs, args.seconds, trees, metrics)

    record = {"revisions": revisions, "rows": []}
    if args.out and args.out.exists():
        old = json.loads(args.out.read_text())
        if old["revisions"] == revisions:
            record = old
    record["rows"] = [r for r in record["rows"] if r["workload"] != args.workload] + [row]
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
