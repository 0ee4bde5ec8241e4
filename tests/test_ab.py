"""``tools/ab.py`` pairs base and head runs of the benchmark and summarises them.

A fake runner stands in for ``perfbench/run.py``: it returns the metrics it is
given per (side, seed) and records the order of the calls.  Each metric of the
summary gets a verdict: ``resolved``, ``beyond_bound``, ``within_bound`` or
``unresolved``.
"""

import pytest

from conftest import ab

METRICS = {"path_p50_ms": {"better": "lower", "bound": 0.25},
           "paths_per_s": {"better": "higher", "bound": 0.25}}


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
    row = ab.compare("w", 4, 3, {"base": "base", "head": "head"}, METRICS,
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
        ab.compare("w", 1, 3, {"base": "base", "head": "head"}, METRICS, runner=runner)
    assert len(calls) == 1


def test_one_run_is_its_own_quartiles():
    assert ab.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}


SPREAD = [2.0, 2.1, 1.9, 2.05, 1.95, 2.0, 2.1, 1.9, 2.05, 1.95]  # base p50: median 2.0, IQR 0.1
WIDE = [2.0, 2.8, 1.2, 2.6, 1.4, 2.0, 2.8, 1.2, 2.6, 1.4]  # median 2.0, IQR 1.2 > 25 % of it


@pytest.mark.parametrize("base, head, expected", [
    (SPREAD, [1.5] * 10, "resolved"),                    # won 10/10, better by 0.5 > IQR
    (SPREAD, [1.5] * 9 + [2.2], "resolved"),             # won 9/10
    (SPREAD, [1.5] * 8 + [2.2] * 2, "within_bound"),     # won 8/10
    (SPREAD, [x - 0.01 for x in SPREAD], "within_bound"),  # won 10/10, better by 0.01 < IQR
    (SPREAD, [2.4] * 10, "within_bound"),                # worse by 20 %, inside the 25 % bound
    (SPREAD, [2.6] * 10, "beyond_bound"),                # worse by 30 %
    (WIDE, [2.4] * 10, "unresolved"),                    # worse by 20 %, but the IQR is 60 %
    (WIDE, [x - 0.01 for x in WIDE], "unresolved"),      # won 10/10, better by 0.01 < IQR
    (WIDE, [2.6] * 10, "beyond_bound"),                  # a wide spread still has its bound
])
def test_each_metric_gets_a_verdict(base, head, expected):
    row = ab.compare("w", 10, 3, {"base": "base", "head": "head"}, METRICS,
                     runner=_runner({"base": base, "head": head}, []))
    assert row["summary"]["path_p50_ms"]["verdict"] == expected


def test_a_higher_is_better_metric_is_judged_by_its_direction():
    row = ab.compare("w", 10, 3, {"base": "base", "head": "head"}, METRICS,
                     runner=_runner({"base": SPREAD, "head": [1.5] * 10}, []))
    assert row["summary"]["paths_per_s"]["head_won"] == "10/10"
    assert row["summary"]["paths_per_s"]["verdict"] == "resolved"
    row = ab.compare("w", 10, 3, {"base": "base", "head": "head"}, METRICS,
                     runner=_runner({"base": SPREAD, "head": [2.8] * 10}, []))
    assert row["summary"]["paths_per_s"]["verdict"] == "beyond_bound"  # 500 -> 357 paths/s
