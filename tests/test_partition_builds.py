"""How many 1-d partitions each operation scans from the events.

A path's ladder of generations is built once and shared: ``ito_integral``
and ``qv_limit`` scan only the finest generation and derive each coarser
one from the next finer one, ``prepare_ensemble`` takes the finest
generation from its QV report, ``l_strategy`` scans its fine generation and
derives the coarse one, and the ``qv`` and ``integrate`` commands take the
finest generation they write or check from the ladder they built.  Every
scan from the events runs exactly one of ``partition_step`` and
``partition_linear_count``; every derivation runs ``partition_coarsen``.
"""

import json

import numpy as np
import pytest

from pathcalc import Path, PsiSpec
from pathcalc import _kernels as K
from pathcalc.cli import EXIT_OK, main
from pathcalc.integration import ito_integral, prepare_ensemble
from pathcalc.partitions import (lebesgue_partition_1d, lebesgue_partition_nd,
                                 write_partition_csv)
from pathcalc.paths import write_path_csv
from pathcalc.strategies import l_strategy

KERNELS = {"partition_step": "n", "partition_linear_count": "n", "partition_coarsen": "coarsen"}


@pytest.fixture
def builds(monkeypatch):
    """Calls of the scan kernels (``n``) and of the derivation (``coarsen``)."""
    count = {"n": 0, "coarsen": 0}
    for name, key in KERNELS.items():
        kernel = getattr(K, name)

        def counted(*args, kernel=kernel, key=key):
            count[key] += 1
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
    assert builds == {"n": 1, "coarsen": 5}


def test_prepare_ensemble_reuses_the_qv_ladder(builds, p1):
    (stats,) = prepare_ensemble([p1], 6)
    assert builds == {"n": 1, "coarsen": 5}
    np.testing.assert_array_equal(stats.partition_times, lebesgue_partition_nd(p1, 6).times)


def test_l_strategy_builds_fine_and_coarse_once(builds, p1):
    l_strategy(p1, 3, 2, PsiSpec("constant", (0.5,)))
    assert builds == {"n": 1, "coarsen": 1}


def test_qv_command(builds, tmp_path, p1):
    write_path_csv(p1, tmp_path / "p1.csv")
    code = main(["qv", "--input", str(tmp_path / "p1.csv"), "--n-max", "6",
                 "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_OK
    # partition_n6.csv is the finest generation of the QV ladder
    assert builds == {"n": 1, "coarsen": 5}
    write_partition_csv(lebesgue_partition_1d(p1, 6), tmp_path / "direct.csv")
    assert ((tmp_path / "out" / "partition_n6.csv").read_bytes()
            == (tmp_path / "direct.csv").read_bytes())


def test_integrate_command(builds, tmp_path, p1):
    write_path_csv(p1, tmp_path / "p1.csv")
    code = main(["integrate", "--input", str(tmp_path / "p1.csv"), "--rule", "prev-price",
                 "--n-max", "6", "--output-dir", str(tmp_path / "out")])
    assert code == EXIT_OK
    # the finest generation, coarsened five times; the telescoping check
    # reuses the finest
    assert builds == {"n": 1, "coarsen": 5}
    checks = json.loads((tmp_path / "out" / "manifest.json").read_text())["checks"]
    assert {c["name"]: c["passed"] for c in checks}["telescoping-identity"]
