"""Benchmark of pathcalc: closed-loop workloads through its public API.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload qv-step-long --seed 1 --seconds 20 --trace 0

One process, one thread of work: the next operation starts when the previous
one and its output check have finished.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones.  The last line
of standard output is the result as one JSON object; the line before it is
the machine record.  Run records and traces go to ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread of work: keep BLAS from starting worker threads that compete
# with the measured one on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
SETUPS = 5
WORKLOADS = ("qv-step-long", "cli-integrate-linear", "checks-short-paths")

END_TO_END = {
    "setup_s": "s",
    "paths_per_s": "paths/s",
    "path_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

# name -> unit.  Values are per operation, plus per set-up for work done in
# set-up; "self_s" is the time in a layer's functions minus its child spans.
PER_LAYER = {
    "kernels.partition_step.self_s": "s",
    "kernels.partition_step.events": "count",
    "kernels.qv_on_grid.self_s": "s",
    "kernels.qv_on_grid.grid_points": "count",
    "qv.self_s": "s",
    "qv.qv_limit.calls": "count",
    "kernels.partition_linear.self_s": "s",
    "kernels.partition_linear.events": "count",
    "paths.eval.calls": "count",
    "paths.eval.self_s": "s",
    "integration.self_s": "s",
    "integration.rule_calls": "count",
    "partitions.calls": "count",
    "partitions.points": "count",
    "partitions.self_s": "s",
    "partitions.distinct_ratio": "ratio",
    "kernels.crossings.self_s": "s",
    "kernels.crossings.calls": "count",
    "kernels.doob_positions.self_s": "s",
    "kernels.bdg.self_s": "s",
    "strategies.self_s": "s",
    "strategies.capital_curve.calls": "count",
    "simulate.self_s": "s",
    "kernels.clip_jumps.self_s": "s",
    "paths.io.self_s": "s",
    "paths.io.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.unaccounted_s": "s",
}

# count metrics that are the number of calls of one function
SPAN_CALLS = {
    "qv.qv_limit.calls": "qv.qv_limit",
    "partitions.calls": "partitions.lebesgue_partition_1d",
    "strategies.capital_curve.calls": "strategies.capital_curve",
}


def import_pathcalc():
    """Import pathcalc from this checkout's ``src/`` and the workloads using it."""
    src = ROOT / "src"
    if not (src / "pathcalc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'pathcalc'} not found; run from a pathcalc checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pathcalc
    import pathcalc.cli  # noqa: F401 - imports every module

    if Path(pathcalc.__file__).resolve().parent != (src / "pathcalc").resolve():
        raise SystemExit(f"perfbench: imported pathcalc from {pathcalc.__file__}, not {src}")
    import bench_workloads

    return pathcalc, bench_workloads


def import_seconds() -> float:
    """Time to import pathcalc in a fresh interpreter, measured inside it."""
    code = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import pathcalc.cli; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout)


def machine_record(pathcalc) -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "numba_enabled": bool(pathcalc._kernels.NUMBA_ENABLED),
            "platform": platform.platform()}


def set_up(workload, seed, workdir, setups, tracer=None, pathcalc=None):
    """Generate the workload's inputs ``setups`` times; (last pool, durations)."""
    from bench_trace import installed

    durations = []
    for _ in range(setups):
        with installed(tracer, pathcalc) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            pool = workload.setup(seed, workdir)
            durations.append(time.perf_counter() - t0)
    return pool, durations


def measure(workload, pool, seconds, tracer=None, pathcalc=None) -> dict:
    """Whole rounds over the pool until ``seconds`` have passed.

    With a tracer, rounds alternate untraced and traced, at least one of each.
    Failed operations (an exception, a non-zero exit code or a failed check)
    are counted and left out of the timings.
    """
    from bench_trace import installed

    # Warm-up, not counted: the first operation of a process pays one-time
    # costs (first allocations, caches).  A fault shows in the rounds below.
    try:
        workload.run(pool[0])
    except Exception:
        pass
    times = {False: [], True: []}
    streams = {False: [], True: []}
    attempted = failed = 0
    reasons = []
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for item in pool:
            attempted += 1
            try:
                if traced:
                    tracer.begin_op()
                with installed(tracer, pathcalc) if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    out = workload.run(item)
                    dt = time.perf_counter() - t0
                reason = workload.check(item, out)
            except Exception:  # a failing operation is counted, not fatal
                reason = traceback.format_exc(limit=-4)
            if reason:
                failed += 1
                reasons.append(f"stream {item.stream} ({item.label}): {reason}")
            else:
                times[traced].append(dt)
                streams[traced].append(item.stream)
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds >= 2):
            break
    return {"attempted": attempted, "failed": failed, "reasons": reasons,
            "untraced": times[False], "traced": times[True], "rounds": rounds,
            "streams": streams}


def _total(summary: dict, metric: str) -> float:
    layer = metric.rpartition(".")[0]
    if metric.endswith(".self_s"):
        return summary["self_s"].get(layer, 0.0)
    if metric in SPAN_CALLS:
        return summary["span_calls"].get(SPAN_CALLS[metric], 0)
    if metric.endswith(".calls"):
        return summary["layer_calls"].get(layer, 0)
    return summary["counts"].get(metric, 0)


def layer_metrics(setup: dict, setups: int, loop: dict, run: dict) -> dict:
    """Per-layer values: per set-up plus per traced operation."""
    ops = len(run["traced"])
    values = {}
    for metric in PER_LAYER:
        if metric.startswith("trace."):
            continue
        values[metric] = _total(setup, metric) / setups + _total(loop, metric) / ops
    builds = loop["span_calls"].get(SPAN_CALLS["partitions.calls"], 0)
    values["partitions.distinct_ratio"] = loop["counts"].get("partitions.distinct", 0) / max(builds, 1)
    ratio = statistics.median(run["traced"]) / statistics.median(run["untraced"])
    values["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
    values["trace.unaccounted_s"] = (sum(run["traced"]) - loop["root_s"]) / ops
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setups: int = SETUPS) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the run record."""
    pathcalc, bench_workloads = import_pathcalc()
    from bench_trace import Tracer

    imports = [] if trace else [import_seconds() for _ in range(setups)]
    workload = bench_workloads.WORKLOADS[name]()
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_tracer = Tracer() if trace else None
        pool, setup_durations = set_up(workload, seed, workdir, setups, setup_tracer, pathcalc)
        loop_tracer = Tracer() if trace else None
        run = measure(workload, pool, seconds, loop_tracer, pathcalc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = workload.verdict()
    ok_times = run["traced"] if trace else run["untraced"]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_record(pathcalc), "import_s": imports,
              "setup_durations_s": setup_durations, "rounds": run["rounds"],
              "reasons": run["reasons"][:10], "verdict": verdict,
              "op_seconds": [[s, t] for s, t in zip(run["streams"][trace], ok_times)]}
    if not ok_times:
        metrics = {m: 0.0 for m in (PER_LAYER if trace else END_TO_END)}
    elif trace:
        setup_sum, loop_sum = setup_tracer.summary(), loop_tracer.summary()
        metrics = layer_metrics(setup_sum, setups, loop_sum, run)
        record["trace_summary"] = {"setup": setup_sum, "loop": loop_sum}
        record["traced_ops"] = len(run["traced"])
        record["untraced_ops"] = len(run["untraced"])
        stem = OUT / f"trace-{name}-seed{seed}-{os.getpid()}"
        setup_tracer.save(f"{stem}-setup.npz", "setup")
        loop_tracer.save(f"{stem}-loop.npz", "loop")
    else:
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setup_durations),
            "paths_per_s": len(ok_times) / sum(ok_times),
            "path_p50_ms": 1e3 * statistics.median(ok_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": verdict is None and bool(ok_times),
              "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {m: {"value": float(metrics[m]), "unit": units[m]} for m in units}}
    record["result"] = result
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    import_pathcalc()
    OUT.mkdir(exist_ok=True)
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    file = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    file.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    for reason in record["reasons"][:3]:
        print(f"failed: {reason}", file=sys.stderr)
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
