"""What a path keeps in its ``_scans`` memo, and that reading it changes no result.

On a step or linear path ``qv._z_data`` computes generation n's Z record
once and keeps it under ``("z", n)``: Z, its compensator, the fine
partition's times and grid positions, on a linear path ``Q^n`` at the fine
points and ``Q^{n-1}`` at the coarse ones with their grid positions, and the
compensated-Z strategy's positions h, on the grid of the events and the
partition.  Next to it ``l_strategy`` keeps the capital of the uncut
compensated-Z strategy (h on every generation-n gap) on that grid under
``("z-capital", n)``, and each call holds that curve at its own cut.
``gamma_K`` keeps its stopping time per level under ``("gamma", K)``.
``l_strategy``, ``sigma_n_K``, ``k_process`` and ``z_process`` read the
entries, so on a path that already holds them they must return the bits a
fresh path gives, whatever the order of the calls that filled them; at a
linear time between grid times those are the bits of a grid that holds the
time.  Once the record exists, a Z or K query at such a time and an
``l_strategy`` cut there (a linear γ_K an ulp off the partition's crossing
of level K) are a search and a tail: they scan, coarsen, sum and build no
capital curve, and the cut's capital is the uncut one at the last grid time
plus one price step, bit for bit.
"""

from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathcalc
from pathcalc import ContractError, Path, PsiSpec, checks
from pathcalc.qv import _z_data, k_process, sigma_n_K, z_process
from pathcalc.strategies import (RealizedStrategy, _z_capital, capital_curve, gamma_K,
                                 l_strategy)

import reference_loops as R
from conftest import random_step_path

PSI = PsiSpec("constant", (0.5,))
GENERATIONS = range(2, 9)
LEVELS = (1, 2, 4)
FUNCTIONS = ("l_strategy", "sigma_n_K", "k_process", "z_process")


def _fresh(path):
    return Path(path.times, path.values, path.mode, path.horizon)


def _bits(path, name, n, K, t):
    """The output of one call, as bytes."""
    if name == "l_strategy":
        realized, report = l_strategy(path, n, K, PSI, tolerance=np.inf)
        out = [realized.times, realized.positions,
               [report.max_deviation, report.budget, report.gamma, report.sigma]]
    elif name == "sigma_n_K":
        out = [sigma_n_K(path, n, K)]
    elif name == "k_process":
        out = [k_process(path, n, K, PSI, t)]
    else:
        out = [z_process(path, n, t)]
    return b"|".join(np.asarray(x, dtype=np.float64).tobytes() for x in out)


@st.composite
def step_paths(draw):
    """1-d step paths with values on a dyadic grid or drawn freely."""
    m = draw(st.integers(1, 30))
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.integers(-40, 40), min_size=m, max_size=m))) * 0.125
    else:
        values = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m)))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=m - 1, max_size=m - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return Path(times, values, mode="step", horizon=times[-1] + 1.0)


@st.composite
def walks(draw):
    """1-d step paths that start near 0 and move by small steps, on a dyadic lattice or
    drawn freely, so that gamma_K and sigma fall anywhere or nowhere; the horizon is at the
    last event or beyond it."""
    m = draw(st.integers(1, 40))
    if draw(st.booleans()):
        steps = np.array(draw(st.lists(st.integers(-24, 24), min_size=m, max_size=m))) / 64.0
    else:
        steps = np.array(draw(st.lists(st.floats(-0.4, 0.4), min_size=m, max_size=m)))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    values = np.concatenate([[draw(st.floats(-1.25, 1.25))], steps]).cumsum()
    return Path(times, values, mode="step",
                horizon=draw(st.sampled_from([None, times[-1] + 0.5])))


@st.composite
def queries(draw):
    """A path of :func:`step_paths` or :func:`walks` in step or linear mode, and a time in
    [0, horizon]."""
    path = draw(st.one_of(step_paths(), walks()))
    mode = draw(st.sampled_from(["step", "linear"]))
    path = Path(path.times, path.values, mode=mode, horizon=path.horizon)
    return path, draw(st.floats(0.0, path.horizon))


@settings(max_examples=40)
@given(drawn=queries(), order=st.permutations(
    [(name, n, K) for name in FUNCTIONS for n in GENERATIONS for K in LEVELS]))
def test_a_warm_path_gives_the_bits_of_a_fresh_one(drawn, order):
    path, t = drawn
    for name, n, K in order:
        assert _bits(path, name, n, K, t) == _bits(_fresh(path), name, n, K, t), (name, n, K)
    for kind in ("z", "z-capital"):
        assert {key for key in path._scans if key[0] == kind} == {(kind, n) for n in GENERATIONS}
    for n in GENERATIONS:  # the reference builds a grid that holds t
        assert z_process(path, n, t) == R.z_process_py(path, n, t), n
        assert k_process(path, n, 2, PSI, t) == R.k_process_py(path, n, 2, PSI, t), n


def _held_capital(path, n, cut):
    """Generation n's uncut capital on the event table, held at ``cut`` after it."""
    zd = _z_data(path, n)
    uncut = RealizedStrategy(times=np.append(zd.fine_times, np.inf), positions=zd.h)
    held = capital_curve(uncut, path).values_at(zd.grid).copy()
    if np.isfinite(cut):
        i = int(zd.grid.searchsorted(cut))
        held[i + 1:] = held[i]
    return zd.grid, held


def _cuts_hold_the_uncut_capital(path):
    """Assert the capital of every returned strategy is its held uncut capital, and the report
    on the warming path is a fresh path's; the kinds of cut seen."""
    seen = set()
    for n in GENERATIONS:
        for K in LEVELS:
            realized, report = l_strategy(path, n, K, PSI, tolerance=np.inf)
            assert report == l_strategy(_fresh(path), n, K, PSI, tolerance=np.inf)[1], (n, K)
            cut = min(report.gamma, report.sigma)
            grid, held = _held_capital(path, n, cut)
            got = capital_curve(realized, path).values_at(grid)
            assert got.tobytes() == held.tobytes(), (n, K)
            seen.add("n_live = 0" if realized.positions.shape[0] == 0 else
                     "no cut" if cut == np.inf else "gamma" if cut == report.gamma else "sigma")
    return seen


@settings(max_examples=60)
@given(path=walks())
def test_a_cut_strategy_has_the_uncut_capital_held_at_its_cut(path):
    _cuts_hold_the_uncut_capital(path)


# linear paths whose gamma_K, a quadratic root, falls one ulp before (the first three) or
# after (the last) the crossing of level K by the generation-n partition, so the cut is off
# the Z record's grid: ((path, n), K)
OFF_GRID_CUTS = [
    ((Path([0.0, 0.3, 0.6], [-0.42, 0.86, 1.51], mode="linear"), 2), 1),
    ((Path([0.0, 0.8, 1.0, 1.9], [-0.27, -1.26, 0.86, 1.51], mode="linear"), 3), 1),
    ((Path([0.0, 0.9, 1.1, 2.0], [0.46, 1.15, -0.35, 1.25], mode="linear"), 4), 1),
    ((Path([0.0, 0.2], [0.58, 2.01], mode="linear"), 2), 2),
]


def _off_grid(zd, cut):
    i = int(zd.grid.searchsorted(cut))
    return bool(np.isfinite(cut)) and (i == zd.grid.shape[0] or zd.grid[i] != cut)


@settings(max_examples=30)
@given(case=st.tuples(walks().map(lambda p: Path(p.times, p.values, "linear", p.horizon)),
                      st.integers(2, 4)), K=st.sampled_from(LEVELS))
@example(*OFF_GRID_CUTS[0])
@example(*OFF_GRID_CUTS[1])
@example(*OFF_GRID_CUTS[2])
@example(*OFF_GRID_CUTS[3])
def test_an_off_grid_cut_is_one_price_step_past_the_uncut_capital(case, K):
    """The capital of the cut strategy at its cut is the uncut capital at the last grid time
    before it plus the last position times the price step, bit for bit; ``max_deviation`` is
    the reference K process against the reference capital at every grid time before the cut
    and at the cut, bit for bit."""
    path, n = case
    realized, report = l_strategy(path, n, K, PSI, tolerance=np.inf)
    zd, cut = _z_data(path, n), min(report.gamma, report.sigma)
    i = int(zd.grid.searchsorted(cut))
    if _off_grid(zd, cut):
        s_prev, s_cut = path.eval([zd.grid[i - 1], cut])[:, 0]
        tail = _z_capital(path, n, zd)[i - 1] + realized.positions[-2, 0] * (s_cut - s_prev)
        assert capital_curve(realized, path).value_at(cut).hex() == tail.hex()
    times = zd.grid if not np.isfinite(cut) else np.append(zd.grid[:i], cut)
    curve = R.capital_curve_py(realized, path)
    deviation = max(abs(R.k_process_py(path, n, K, PSI, t) - (report.budget + curve.value_at(t)))
                    for t in times)
    assert report.max_deviation.hex() == deviation.hex()


def test_a_warm_record_answers_off_grid_queries_without_a_scan(path, monkeypatch):
    """Once the record exists, Z and K at a linear time between grid times and an l_strategy
    cut off the grid are a search and a tail: no partition scan, coarsening, QV sum or
    capital curve."""
    import pathcalc._kernels as Kern
    import pathcalc.strategies as S
    for (p, n), K in OFF_GRID_CUTS:  # each pinned gamma_K is the cut, an ulp off the crossing
        report, zd = l_strategy(p, n, K, PSI)[1], _z_data(p, n)
        assert report.gamma < report.sigma and _off_grid(zd, report.gamma)
        assert np.min(np.abs(zd.fine_times - report.gamma)) <= np.spacing(report.gamma)
    assert _z_data(path, 2)[5:8] == (None, None, None)  # a step path, flat, needs no sums
    linear = _linear(path)
    (cut_path, cut_n), cut_K = OFF_GRID_CUTS[0]
    t = 0.5 * (path.times[3] + path.times[4])
    expected = {}
    for n in (1, 2, 4):
        assert _off_grid(_z_data(linear, n), t)
        expected[n] = [z_process(_fresh(linear), n, t)] + [
            k_process(_fresh(linear), n, K, PSI, t) for K in LEVELS]
    expected["l"] = _bits(_fresh(cut_path), "l_strategy", cut_n, cut_K, 0.0)
    _bits(cut_path, "l_strategy", cut_n, cut_K, 0.0)  # fills the record and the capital
    calls = []
    for name in ("partition_linear_count", "partition_coarsen", "qv_on_grid"):
        real = getattr(Kern, name)
        monkeypatch.setattr(Kern, name, lambda *a, _n=name, _r=real: calls.append(_n) or _r(*a))
    real_curve = S.capital_curve
    monkeypatch.setattr(S, "capital_curve", lambda *a: calls.append("capital_curve")
                        or real_curve(*a))
    for n in (1, 2, 4):
        assert [z_process(linear, n, t)] + [k_process(linear, n, K, PSI, t)
                                            for K in LEVELS] == expected[n], n
    assert _bits(cut_path, "l_strategy", cut_n, cut_K, 0.0) == expected["l"]
    assert calls == []


def test_the_held_capital_covers_every_kind_of_cut(path):
    seen = set()
    for p in (path, Path([0.0, 1.0, 2.0], [1.0, 0.0, 0.5])):
        seen |= _cuts_hold_the_uncut_capital(p)
    assert seen == {"n_live = 0", "gamma", "sigma", "no cut"}


@pytest.fixture
def path():
    return random_step_path(np.random.default_rng(11), n_events=60)


def _linear(path):
    return Path(path.times, path.values, mode="linear", horizon=path.horizon + 1.0)


def test_a_path_keeps_one_capital_per_generation(path):
    linear = _linear(path)
    for p in (path, linear):
        for n in GENERATIONS:
            for K in LEVELS:
                l_strategy(p, n, K, PSI)
        assert {key for key in p._scans if key[0] == "z-capital"} == {
            ("z-capital", n) for n in GENERATIONS}
        for n in GENERATIONS:
            capital = p._scans[("z-capital", n)]
            assert capital.shape == p._scans[("z", n)].grid.shape
            with pytest.raises(ValueError):
                capital[0] = 99


def test_l_identity_builds_one_capital_per_path_and_generation(monkeypatch):
    """3 paths x 7 generations: 21 curves, one per (path, n) rather than per K; none on reuse."""
    import pathcalc.strategies as S
    calls, drawn, real = [], [], checks.paths

    def reused(*args, **kwargs):  # the paths of the first pass, again on the second
        if not drawn:
            drawn.extend(real(*args, **kwargs))
        return iter(drawn)

    monkeypatch.setattr(checks, "paths", reused)
    monkeypatch.setattr(S, "capital_curve", lambda *args: calls.append(args) or capital_curve(*args))
    first = checks.l_identity(1, 3)
    assert len(calls) == 21 and len(drawn) == 3
    second = checks.l_identity(1, 3)
    assert len(calls) == 21
    assert (second.worst, second.checked) == (first.worst, first.checked)


def test_each_generation_is_computed_once(path):
    l_strategy(path, 4, 1, PSI)
    entry = path._scans[("z", 4)]
    for K in LEVELS:
        l_strategy(path, 4, K, PSI)
        sigma_n_K(path, 4, K)
        k_process(path, 4, K, PSI, 0.5)
        z_process(path, 4, 0.5)
        assert path._scans[("z", 4)] is entry
    assert entry.grid is path.times  # the event table itself, not a copy


def test_stored_arrays_are_read_only(path):
    for n in (1, 2, 5):
        sigma_n_K(path, n, 1)
    l_strategy(path, 3, 2, PSI)
    entries = [v for key, v in path._scans.items() if key[0] == "z"]
    assert len(entries) == 4
    for entry in entries:
        assert isinstance(entry.t_acc, float)  # the one field that is not an array
        for arr in (a for a in entry if isinstance(a, np.ndarray)):
            with pytest.raises(ValueError):
                arr[0] = 99


def test_a_linear_path_keeps_one_z_record_per_generation(path):
    """Every query reads the generation's one record, and a warm path answers as a fresh one."""
    linear = _linear(path)
    t = 0.5 * (path.times[3] + path.times[4])  # between two events
    for n in (2, 4):
        for K in LEVELS:
            got = _bits(linear, "l_strategy", n, K, t), _bits(linear, "k_process", n, K, t)
            assert got == (_bits(_fresh(linear), "l_strategy", n, K, t),
                           _bits(_fresh(linear), "k_process", n, K, t)), (n, K)
            assert sigma_n_K(linear, n, K) == sigma_n_K(_fresh(linear), n, K)
        entry = linear._scans[("z", n)]
        for s in (0.3, t, linear.horizon):
            assert z_process(linear, n, s) == z_process(_fresh(linear), n, s)
            assert linear._scans[("z", n)] is entry
    assert {key for key in linear._scans if key[0] in ("z", "z-capital")} == {
        (kind, n) for kind in ("z", "z-capital") for n in (2, 4)}


def test_gamma_is_kept_per_level(path):
    linear = Path(path.times, path.values, mode="linear")
    for p in (path, linear):
        gammas = [gamma_K(p, K) for K in (0.25, 0.5, 1.0)]
        assert [gamma_K(_fresh(p), K) for K in (0.25, 0.5, 1.0)] == gammas
        assert [p._scans[("gamma", K)] for K in (0.25, 0.5, 1.0)] == gammas
        assert gamma_K(p, 1) == gammas[-1]
    with pytest.raises(ContractError, match="K must be > 0"):
        gamma_K(path, float("nan"))


def test_equality_and_repr_ignore_the_z_memo(path):
    twin = _fresh(path)
    text = repr(path)
    l_strategy(path, 3, 2, PSI)
    assert path._scans
    assert repr(path) == text == repr(twin)
    assert path == twin
    assert "_scans" not in text


def test_a_stored_zero_is_read_back(monkeypatch):
    """The memo tells a stored 0.0 from a missing entry: gamma_K is 0.0 at a start on K."""
    import pathcalc.strategies as S
    calls, real = [], S._gamma_K
    monkeypatch.setattr(S, "_gamma_K", lambda *args: calls.append(args) or real(*args))
    path = Path([0.0, 1.0], [2.0, 0.0])
    assert gamma_K(path, 1.0) == gamma_K(path, 1.0) == 0.0
    assert len(calls) == 1


def test_only_paths_touches_the_memo_dict():
    """Every module other than ``paths`` goes through ``Path._memo``."""
    package = FsPath(pathcalc.__file__).parent
    touching = sorted(f.name for f in package.glob("*.py")
                      if f.name != "paths.py" and "._scans" in f.read_text())
    assert touching == []
