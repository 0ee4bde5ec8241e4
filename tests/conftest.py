import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import pathcalc
from pathcalc import Path

# property tests replay the same examples on every run, however long each takes
settings.register_profile("pathcalc", deadline=None, derandomize=True)
settings.load_profile("pathcalc")

ROOT = FsPath(__file__).resolve().parents[1]


def _load(name, folder="perfbench"):
    """``<folder>/<name>.py`` as the module ``name``; its dataclasses look it up in
    ``sys.modules`` while they are created."""
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Hypothesis adds the numeric constants of every local module it finds loaded to the
# examples it draws.  Every local module a test imports is loaded here, before any test
# runs, so that a property test draws the same examples alone as in the whole suite.
for _module in pkgutil.iter_modules(pathcalc.__path__):
    importlib.import_module(f"pathcalc.{_module.name}")
import reference_kernels  # noqa: E402,F401
import reference_loops  # noqa: E402,F401

bench_trace = _load("bench_trace")
bench_workloads = _load("bench_workloads")
ab = _load("ab", "tools")


@pytest.fixture
def p1() -> Path:
    """4-event step path used throughout: jumps +0.6, -0.2, +0.9."""
    return Path(times=[0.0, 1.0, 2.0, 3.0], values=[0.0, 0.6, 0.4, 1.3], mode="step")


@pytest.fixture
def p2() -> Path:
    """Oscillator 0,1,0,1,0 on integer times."""
    return Path(times=[0.0, 1.0, 2.0, 3.0, 4.0], values=[0.0, 1.0, 0.0, 1.0, 0.0], mode="step")


def random_step_path(rng: np.random.Generator, n_events=12, dim=1, min_jump=0.05,
                     max_jump=0.6, horizon=None) -> Path:
    """Step path whose per-coordinate jumps all have magnitude >= min_jump."""
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 1.0, n_events - 1))])
    horizon = horizon if horizon is not None else float(times[-1])
    jumps = rng.uniform(min_jump, max_jump, (n_events, dim)) * rng.choice([-1.0, 1.0], (n_events, dim))
    values = np.cumsum(jumps, axis=0)
    values[0] = rng.uniform(-0.5, 0.5, dim)
    values[1:] = values[0] + np.cumsum(jumps[1:], axis=0)
    return Path(times=times, values=values, mode="step", horizon=horizon)


@st.composite
def ladder_paths(draw):
    """``(path, n_max)``: step or linear, d = 1..3, values often on dyadic levels.

    Level values are multiples of ``2**-k`` for some ``k <= n_max``, so they
    sit on the levels of generation k and of every finer one.  Linear
    partitions hold one point per level crossed, so their values stay small.
    """
    mode = draw(st.sampled_from(["step", "linear"]))
    n_max = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 30))
    if draw(st.booleans()):
        k = draw(st.integers(max(0, n_max - 4) if mode == "linear" else 0, n_max))
        ints = draw(st.lists(st.integers(-64, 64), min_size=m * d, max_size=m * d))
        values = np.array(ints, dtype=np.float64) * 2.0 ** -k
    else:
        bound = min(2.0, 2.0 ** (8 - n_max)) if mode == "linear" else 512.0
        values = np.array(draw(st.lists(st.floats(-bound, bound), min_size=m * d,
                                        max_size=m * d)))
    gaps = draw(st.lists(st.floats(0.001, 1.0), min_size=m - 1, max_size=m - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return Path(times, values.reshape(m, d), mode=mode, horizon=times[-1] + 1.0), n_max
