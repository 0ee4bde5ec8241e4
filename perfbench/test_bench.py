"""Self-tests of the benchmark: span arithmetic, output checks, repeatable counts.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import run

run.import_pathcalc()

import bench_trace  # noqa: E402
import bench_workloads as W  # noqa: E402
from pathcalc import integration, partitions, qv, simulate  # noqa: E402
from pathcalc.paths import PsiSpec  # noqa: E402


def test_self_time_of_nested_calls():
    # qv.qv_limit [0, 20] > qv.k_process [2, 12] > kernel [5, 9], then kernel [14, 17]
    ticks = iter([0.0, 2.0, 5.0, 9.0, 12.0, 14.0, 17.0, 20.0])
    tracer = bench_trace.Tracer(clock=lambda: next(ticks))
    kernel = tracer.wrap("_kernels.qv_on_grid", lambda: None)
    middle = tracer.wrap("qv.k_process", kernel)

    def body():
        middle()
        kernel()

    tracer.wrap("qv.qv_limit", body)()
    assert tracer.self_times().tolist() == [20.0 - 10.0 - 3.0, 10.0 - 4.0, 4.0, 3.0]
    summary = tracer.summary()
    assert summary["self_s"] == {"kernels.qv_on_grid": 7.0, "qv": 13.0}
    assert summary["root_s"] == 20.0
    assert summary["span_calls"]["_kernels.qv_on_grid"] == 2
    assert sum(summary["self_s"].values()) == summary["root_s"]


def test_span_is_closed_when_the_call_raises():
    tracer = bench_trace.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("qv.qv_limit", fail)()
    assert tracer._stack == [] and tracer.end[0] >= tracer.start[0]


def test_installed_wraps_every_namespace_and_restores_it():
    import pathcalc

    original = qv.qv_limit
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer, pathcalc):
        assert integration.qv_limit is qv.qv_limit is not original
        assert pathcalc.cli.qv_limit is qv.qv_limit
        path = simulate.simulate(simulate.SimSpec("brownian", steps=64, mode="step"))
        integration.qv_limit(path, 3)
    assert qv.qv_limit is original and integration.qv_limit is original
    assert tracer.summary()["span_calls"]["qv.qv_limit"] == 1
    assert tracer.counts["partitions.distinct"] == 3


def test_qv_check_rejects_two_percent_error():
    for dim in (1, 2):
        path = simulate.simulate(simulate.SimSpec("brownian", steps=2 ** 12, dim=dim, seed=4,
                                                  mode="step"))
        terminal = qv.qv_limit(path, 10, keep_generations=False).terminal
        assert W.check_qv_terminal(terminal, path.values) is None
        wrong = terminal.copy()
        wrong[dim - 1, dim - 1] *= 1.02
        assert W.check_qv_terminal(wrong, path.values) is not None
    # a cross term is off by 2 % of the scale set by the diagonals
    wrong = terminal.copy()
    wrong[0, 1] += 0.02 * np.sqrt(terminal[0, 0] * terminal[1, 1])
    assert W.check_qv_terminal(wrong, path.values) is not None


def test_telescoping_check_rejects_residual_of_1e6():
    path = simulate.simulate(simulate.SimSpec("brownian", steps=256, seed=2, mode="linear"))
    i_t = integration.ito_integral(lambda p, t: p.eval(t), path, n_max=6).terminal
    q_t = qv.qv_limit(path, 6).terminal[0, 0]
    s = path.values[:, 0]
    assert W.check_telescoping(i_t, q_t, s) is None
    assert W.check_telescoping(i_t + 0.5e-6, q_t, s) is not None


def test_crossing_check_rejects_swapped_count():
    spec = simulate.SimSpec("jump-diffusion", steps=128, seed=8, volatility=0.4,
                            jump_intensity=6.0, jump_mean=-0.05, jump_std=0.25,
                            psi=PsiSpec("constant", (0.5,)))
    path = simulate.simulate(spec, 3)
    h = 2.0 ** -2
    counts = np.array([partitions.crossings_accumulated(path, h, float(t)) for t in path.times])
    ups, downs = counts[:, 0], counts[:, 1]
    values = path.values[:, 0]
    assert W.check_crossing_counts(values, h, ups) is None
    k = int(np.flatnonzero(ups != downs)[0])
    swapped = ups.copy()
    swapped[k] = downs[k]
    assert W.check_crossing_counts(values, h, swapped) is not None


def test_doob_check_rejects_low_capital_and_negative_slack():
    capital = np.array([0.0, -0.5, 0.25])
    ups = np.array([0, 0, 1])
    assert W.check_doob(capital, -0.5, ups, 1.0) is None
    assert W.check_doob(capital - 0.6, -1.1, ups, 1.0) is not None
    assert W.check_doob(capital, -0.5, ups, 1.3) is not None
    assert W.check_doob(capital, -0.4, ups, 1.0) is not None


COUNT_UNITS = ("count", "bytes", "ratio")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counts_repeat_between_traced_runs(name):
    first, _ = run.run_workload(name, seed=3, seconds=0, trace=True, setups=1)
    second, _ = run.run_workload(name, seed=3, seconds=0, trace=True, setups=1)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["partitions.calls"] > 0


def test_metric_table_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
