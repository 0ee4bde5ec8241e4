"""``tools/ab.py`` pairs base and head runs of the benchmark and summarises them.

A fake runner stands in for ``perfbench/run.py``: it returns the metrics it is
given per (side, seed) and records the order of the calls.
"""

import pytest

from conftest import ab

BETTER = {"path_p50_ms": "lower", "paths_per_s": "higher"}


def _runner(values, calls, failed=0, correct=True):
    def run(tree, workload, seed, seconds):
        calls.append((tree, seed))
        p50 = values[tree][seed - ab.FIRST_SEED]
        return {"failed": failed, "correct": correct, "attempted": 5,
                "machine": {"nproc": 2},
                "metrics": {"path_p50_ms": {"value": p50, "unit": "ms"},
                            "paths_per_s": {"value": 1e3 / p50, "unit": "paths/s"}}}
    return run


def test_pairs_alternate_and_are_counted():
    calls = []
    values = {"base": [2.0, 2.0, 1.0, 2.0], "head": [1.5, 1.0, 1.5, 1.0]}
    row = ab.compare("w", 4, 3, {"base": "base", "head": "head"}, BETTER,
                     runner=_runner(values, calls))
    assert calls == [("base", 11), ("head", 11), ("head", 12), ("base", 12),
                     ("base", 13), ("head", 13), ("head", 14), ("base", 14)]
    assert row["seeds"] == [11, 12, 13, 14] and row["machine"] == {"nproc": 2}
    assert [r["first"] for r in row["runs"]["base"]] == [True, False, True, False]
    summary = row["summary"]
    assert summary["path_p50_ms"]["head_won"] == summary["paths_per_s"]["head_won"] == "3/4"
    assert summary["path_p50_ms"]["base"]["median"] == 2.0
    assert summary["path_p50_ms"]["head"] == {"q1": 1.0, "median": 1.25, "q3": 1.5}


@pytest.mark.parametrize("failed, correct", [(1, True), (0, False)])
def test_a_failed_run_stops_the_comparison(failed, correct):
    calls = []
    runner = _runner({"base": [1.0], "head": [1.0]}, calls, failed, correct)
    with pytest.raises(SystemExit, match="base w seed 11"):
        ab.compare("w", 1, 3, {"base": "base", "head": "head"}, BETTER, runner=runner)
    assert len(calls) == 1


def test_one_run_is_its_own_quartiles():
    assert ab.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}
