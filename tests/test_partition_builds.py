"""How many 1-d partitions each operation builds.

A path's ladder of generations is built once and shared: ``ito_integral``
and ``qv_limit`` build each generation once, ``prepare_ensemble`` takes the
finest generation from its QV report, ``l_strategy`` builds its fine and
coarse generations once, and ``integrate`` rebuilds only the finest
generation for its telescoping check.  Every 1-d build runs exactly one of
the two kernels counted here.
"""

import json

import numpy as np
import pytest

from pathcalc import Path, PsiSpec
from pathcalc import _kernels as K
from pathcalc.cli import EXIT_OK, main
from pathcalc.integration import ito_integral, prepare_ensemble
from pathcalc.partitions import lebesgue_partition_nd
from pathcalc.paths import write_path_csv
from pathcalc.strategies import l_strategy


@pytest.fixture
def builds(monkeypatch):
    count = {"n": 0}
    for name in ("partition_step", "partition_linear_count"):
        kernel = getattr(K, name)

        def counted(*args, kernel=kernel):
            count["n"] += 1
            return kernel(*args)

        monkeypatch.setattr(K, name, counted)
    return count


@pytest.fixture
def linear_p1(p1):
    return Path(p1.times, p1.values, mode="linear")


@pytest.mark.parametrize("path_name", ["p1", "linear_p1"])
def test_ito_integral_builds_each_generation_once(request, builds, path_name):
    path = request.getfixturevalue(path_name)
    ito_integral(lambda p, t: p.eval(t), path, n_max=6)
    assert builds["n"] == 6


def test_prepare_ensemble_reuses_the_qv_ladder(builds, p1):
    (stats,) = prepare_ensemble([p1], 6)
    assert builds["n"] == 6
    np.testing.assert_array_equal(stats.partition_times, lebesgue_partition_nd(p1, 6).times)


def test_l_strategy_builds_fine_and_coarse_once(builds, p1):
    l_strategy(p1, 3, 2, PsiSpec("constant", (0.5,)))
    assert builds["n"] == 2


def test_integrate_command(builds, tmp_path, p1):
    write_path_csv(p1, tmp_path / "p1.csv")
    code = main(["integrate", "--input", str(tmp_path / "p1.csv"), "--rule", "prev-price",
                 "--n-max", "6", "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert builds["n"] == 7  # six generations plus the finest for the telescoping check
    checks = json.loads((tmp_path / "out" / "manifest.json").read_text())["checks"]
    assert {c["name"]: c["passed"] for c in checks}["telescoping-identity"]
