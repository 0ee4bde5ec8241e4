"""The benchmark's workloads run on the library as it stands.

``perfbench/run.py`` times each workload of ``perfbench/bench_workloads.py``
on a pool of paths and counts an operation that raises or fails its check.
Here every workload sets up a pool from seed 1, runs and checks each of its
items once and gives no verdict, and one operation of each runs under the
span tracer of ``perfbench/bench_trace.py``, which wraps the library's
functions and kernels by name: an edit to a name or signature they use fails
here instead of in a benchmark run.  ``conftest.py`` loads both modules.
"""

import pytest

import pathcalc

from conftest import bench_trace, bench_workloads


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_each_operation_passes_its_check(tmp_path, name):
    workload = bench_workloads.WORKLOADS[name]()
    pool = workload.setup(1, tmp_path)
    assert pool
    for item in pool:
        assert workload.check(item, workload.run(item)) is None, item.label
    assert workload.verdict() is None
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer, pathcalc):
        out = workload.run(pool[0])
    assert workload.check(pool[0], out) is None
    assert tracer.summary()["spans"] > 0
