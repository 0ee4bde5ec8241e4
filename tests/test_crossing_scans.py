"""How many crossing scans the accumulated-crossing queries make.

A path keeps one scan of its events per spacing h: ``crossings_accumulated``
at any t and ``upcrossings_at_events`` read it.  Every scan runs
``crossings_prefix`` once.
"""

import numpy as np
import pytest

from pathcalc import Path
from pathcalc import _kernels as K
from pathcalc.partitions import crossings_accumulated, upcrossings_at_events

from conftest import random_step_path


@pytest.fixture
def scans(monkeypatch):
    """Calls of ``crossings_prefix``."""
    count = {"scans": 0}
    kernel = K.crossings_prefix

    def counted(*args):
        count["scans"] += 1
        return kernel(*args)

    monkeypatch.setattr(K, "crossings_prefix", counted)
    return count


@pytest.fixture
def path():
    return random_step_path(np.random.default_rng(3), n_events=40)


def test_one_scan_per_path_and_spacing(scans, path):
    counts = [crossings_accumulated(path, 0.25, float(t)) for t in path.times]
    ups = upcrossings_at_events(path, 0.25)
    assert scans["scans"] == 1
    assert ups.tolist() == [up for up, _ in counts]
    assert crossings_accumulated(path, 0.25) == counts[-1]
    crossings_accumulated(path, 0.125, 0.5)
    upcrossings_at_events(path, 0.125)
    assert scans["scans"] == 2
    crossings_accumulated(path, 0.25, 0.5)
    assert scans["scans"] == 2


def test_linear_values_between_events_reuse_the_scan(scans, path):
    linear = Path(path.times, path.values, mode="linear", horizon=path.horizon + 1.0)
    mids = (linear.times[1:] + linear.times[:-1]) / 2
    for t in np.append(mids, linear.horizon):
        crossings_accumulated(linear, 0.25, float(t))
    assert scans["scans"] == 1


def test_each_path_has_its_own_memo(scans, path):
    crossings_accumulated(path, 0.25)
    twin = Path(path.times, path.values, mode=path.mode, horizon=path.horizon)
    crossings_accumulated(twin, 0.25)
    assert scans["scans"] == 2
    crossings_accumulated(path.coordinate(1), 0.25)
    assert scans["scans"] == 3


def test_returned_counts_cannot_change_the_memo(path):
    ups = upcrossings_at_events(path, 0.25)
    before = ups.tolist()
    with pytest.raises(ValueError):
        ups[0] = 99
    with pytest.raises(ValueError):
        ups.flags.writeable = True
    assert upcrossings_at_events(path, 0.25).tolist() == before
    assert [crossings_accumulated(path, 0.25, float(t))[0] for t in path.times] == before


def test_equality_and_repr_ignore_the_memo(path):
    twin = Path(path.times, path.values, mode=path.mode, horizon=path.horizon)
    text = repr(path)
    crossings_accumulated(path, 0.25)
    assert repr(path) == text == repr(twin)
    assert path == twin
    assert "_scans" not in text
