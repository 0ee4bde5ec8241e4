"""Every kernel agrees bit-for-bit with its per-event reference loop.

The loops live in ``reference_kernels``.  The property tests pin down the
equivalences the vectorized kernels rest on: the play-operator scan
reproduces the partition, linear-crossing and accumulated-upcrossing loops;
its interval tracks reproduce the greedy-crossing and Doob-position loops;
the BDG row body reproduces the transform loops; and ``PsiSpec`` is the
jump bound of the clipping loop.
"""

import importlib.util
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcalc import _kernels as K
from pathcalc.errors import ContractError
from pathcalc.paths import PsiSpec
from pathcalc.simulate import SimSpec, simulate

import reference_kernels as R

PROPERTY = settings(max_examples=300)
INT64_MAX = int(np.iinfo(np.int64).max)
# Accumulated upcrossings of 2**63 at spacing 2**-52, with every level index
# below 2**62: the counts used to wrap to -2**63.
COUNT_PAST_INT64 = np.array([0.0, 2.0, 0.0, 512.0, 0.0, 512.0, -510.0, 512.0])
PSI_FAMILIES = (PsiSpec("constant", (0.3,)), PsiSpec("affine", (0.05, 0.1)),
                PsiSpec("power", (0.2, 0.5)), PsiSpec("power", (0.1, 0.7)),
                PsiSpec("table", (0.0, 0.1, 1.0, 0.2, 3.0, 0.6)))


def _random_step(rng, m):
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 1.0, m - 1))])
    values = np.cumsum(rng.normal(0, 0.3, m))
    return times, values


class TestBackendEquivalence:
    def test_partition_step(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            times, values = _random_step(rng, int(rng.integers(2, 40)))
            for n in (1, 3, 7):
                _assert_partition_matches(times, values, n)

    def test_partition_linear(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            times, values = _random_step(rng, int(rng.integers(2, 20)))
            for n in (1, 4):
                _assert_linear_matches(times, values, n)

    def test_qv_on_grid(self):
        rng = np.random.default_rng(3)
        v = np.cumsum(rng.normal(size=50))
        pos = np.unique(rng.integers(0, 50, 12)).astype(np.int64)
        pos[0] = 0
        _assert_qv_matches(v[:, None], pos)

    def test_crossings(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            v = rng.normal(size=int(rng.integers(2, 60)))
            assert K.crossings_greedy(v, -0.3, 0.4) == R.crossings_greedy_py(v, -0.3, 0.4)
            _assert_total_up_matches(v, 0.5)
            a = K.crossings_interval_batch(v, -4, 4, 0.5)
            b = R.crossings_interval_batch_py(v, -4, 4, 0.5)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    def test_bdg(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = rng.normal(size=int(rng.integers(1, 40)))
            _assert_bdg_matches(x)
        seqs = [rng.normal(size=int(rng.integers(1, 30))) for _ in range(20)]
        _assert_bdg_batch_matches(seqs)

    def test_clip_jumps(self):
        rng = np.random.default_rng(6)
        vals = np.cumsum(rng.normal(0, 0.5, (40, 2)), axis=0)
        for psi in PSI_FAMILIES:
            a = K.clip_jumps(vals.copy(), psi)
            b = R.clip_jumps_py(vals.copy(), *R.psi_args(psi))
            assert a.tobytes() == b.tobytes()

    def test_doob_positions(self):
        rng = np.random.default_rng(7)
        v = np.cumsum(rng.normal(0, 0.3, 50))
        a = K.doob_positions(v, -8, 8, 0.25, 0.01, 50)
        b = R.doob_positions_py(v, -8, 8, 0.25, 0.01, 50)
        np.testing.assert_array_equal(a, b)


def _assert_bdg_matches(x):
    assert K.bdg_core(x) == R.bdg_core_py(x)
    h_ref = np.empty(x.shape[0] - 1)
    assert R.bdg_weights_py(x, h_ref) == x.shape[0] - 1
    assert K.bdg_weights(x).tobytes() == h_ref.tobytes()


def _assert_partition_matches(times, values, n):
    idx, j = K.partition_step(values, 2.0 ** n)
    ref_t, ref_j, ref_cnt = R.partition_step_py(times, values, 2.0 ** n)
    assert idx.shape[0] == j.shape[0] == ref_cnt
    np.testing.assert_array_equal(times[idx], ref_t[:ref_cnt])
    np.testing.assert_array_equal(j, ref_j[:ref_cnt])
    return ref_cnt


def _assert_qv_matches(x, pos):
    """Every pair's curve of ``qv_on_grid`` is ``qv_on_grid_py`` of the pair, bit for bit."""
    curves = K.qv_on_grid(x, pos)
    pairs = [(a, b) for a in range(x.shape[1]) for b in range(a, x.shape[1])]
    assert curves.shape == (len(pairs), x.shape[0])
    for q, (a, b) in zip(curves, pairs):
        ref = R.qv_on_grid_py(np.ascontiguousarray(x[:, a]), np.ascontiguousarray(x[:, b]), pos)
        assert q.tobytes() == ref.tobytes()


def _assert_linear_matches(times, values, n):
    scale = 2.0 ** n
    cnt, j = K.partition_linear_count(values, scale)
    assert cnt == R.partition_linear_count_py(times, values, scale)
    ta, ja = K.partition_linear_fill(times, values, scale, j)
    tb = np.empty(cnt)
    jb = np.empty(cnt, np.int64)
    assert R.partition_linear_fill_py(times, values, scale, tb, jb) == cnt
    assert ta.dtype == np.float64 and ja.dtype == np.int64
    np.testing.assert_array_equal(ta, tb)
    np.testing.assert_array_equal(ja, jb)


def _assert_total_up_matches(values, h):
    """``crossings_total_up`` gives the reference up counts of ``values`` and ``-values``."""
    ref = (R.crossings_total_up_py(values, h), R.crossings_total_up_py(-values, h))
    if max(ref) > INT64_MAX:
        with pytest.raises(ContractError, match="2\\*\\*63"):
            K.crossings_total_up(values, h)
    else:
        assert K.crossings_total_up(values, h) == ref


def _linear_partition_py(times, values, n):
    scale = 2.0 ** n
    cnt = R.partition_linear_count_py(times, values, scale)
    t = np.empty(cnt)
    j = np.empty(cnt, np.int64)
    R.partition_linear_fill_py(times, values, scale, t, j)
    return t, j


def _assert_bdg_batch_matches(seqs):
    flat = np.concatenate(seqs)
    offsets = np.concatenate([[0], np.cumsum([len(s) for s in seqs])]).astype(np.int64)
    la, ra = K.bdg_batch(seqs)
    lb, rb = R.bdg_batch_py(flat, offsets)
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(ra, rb)
    return la, ra


class TestVectorizedEdgeCases:
    """Inputs a prefix scan or a cumulative sum could get wrong."""

    def test_partition_step_values_on_generation_1_levels(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(2, 30))
            times, _ = _random_step(rng, m)
            values = rng.integers(-6, 7, m) / 2.0
            _assert_partition_matches(times, values, 1)

    def test_partition_step_values_on_generation_52_levels(self):
        # every float with |v| >= 1 is a multiple of 2**-52, as are the
        # integer multiples of 2**-52 straddling zero
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = int(rng.integers(2, 30))
            times, _ = _random_step(rng, m)
            near_one = rng.choice([-1.0, 1.0]) * (1.0 + rng.integers(0, 6, m) * 2.0 ** -52)
            near_zero = rng.integers(-4, 5, m) * 2.0 ** -52
            for values in (near_one, near_zero):
                _assert_partition_matches(times, values, 52)

    def test_partition_step_constant_path(self):
        times = np.linspace(0.0, 1.0, 9)
        for c in (0.0, 0.3, -1.5, 0.5, 2.0 ** -52):
            for n in (1, 5, 52):
                assert _assert_partition_matches(times, np.full(9, c), n) == 1

    def test_partition_step_single_event(self):
        for v in (0.0, -0.75, 0.3):
            for n in (1, 8, 52):
                assert _assert_partition_matches(np.array([0.0]), np.array([v]), n) == 1

    def test_partition_step_long_monotone_runs(self):
        # each event crosses thousands of levels; runs up, then down
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = int(rng.integers(20, 200))
            times, _ = _random_step(rng, m)
            jumps = rng.uniform(5.0, 40.0, m)
            turn = int(rng.integers(1, m))
            jumps[turn:] *= -1.0
            values = np.cumsum(jumps)
            for n in (1, 7, 12):
                assert _assert_partition_matches(times, values, n) == m

    def test_qv_on_grid_repeated_positions_and_cross_terms(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            g = int(rng.integers(1, 40))
            si = np.cumsum(rng.normal(size=g))
            sj = np.cumsum(rng.normal(size=g))
            pos = np.sort(rng.integers(0, g, int(rng.integers(1, 2 * g + 2))))
            pos[0] = 0
            _assert_qv_matches(np.column_stack([si, sj, si]), pos)

    def test_bdg_batch_length_one_and_all_zero(self):
        rng = np.random.default_rng(15)
        singles = [np.array([v]) for v in (0.0, 5.0, -2.5)]
        zeros = [np.zeros(m) for m in (1, 2, 7)]
        lhs, rhs = _assert_bdg_batch_matches(singles + zeros)
        np.testing.assert_array_equal(lhs, [0.0, 5.0, 2.5, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(rhs, [0.0, 30.0, 15.0, 0.0, 0.0, 0.0])
        mixed = singles + zeros + [rng.normal(size=int(rng.integers(1, 30)))
                                   for _ in range(50)]
        rng.shuffle(mixed)
        _assert_bdg_batch_matches(mixed)


# ---------------------------------------------------------------------------
# Property tests of the play-operator scan and the interval state
# ---------------------------------------------------------------------------

@st.composite
def scaled_paths(draw, generations, bound):
    """``(times, values, n)``: values on generation-n levels, arbitrary, or constant.

    Level values are integer multiples of ``2**-n`` (even multiples also sit
    on coarser levels); arbitrary values lie in ``[-bound, bound]``.
    """
    n = draw(st.sampled_from(generations))
    m = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["levels", "floats", "constant"]))
    if kind == "levels":
        ints = draw(st.lists(st.integers(-64, 64), min_size=m, max_size=m))
        values = np.array(ints, dtype=np.float64) * 2.0 ** -n
    elif kind == "floats":
        values = np.array(draw(st.lists(st.floats(-bound, bound), min_size=m, max_size=m)))
    else:
        values = np.full(m, draw(st.floats(-bound, bound)))
    gaps = draw(st.lists(st.floats(0.001, 1.0), min_size=m - 1, max_size=m - 1))
    return np.concatenate([[0.0], np.cumsum(gaps)]), values, n


# At generation 52 every float with |v| >= 1 lies on a level, and |v| < 512
# keeps |v| * 2**52 below the 2**62 guard.
STEP_INPUTS = scaled_paths(generations=(1, 2, 3, 7, 12, 52), bound=512.0)
# Linear partitions emit one point per level crossed, so keep the count small.
LINEAR_INPUTS = scaled_paths(generations=(1, 2, 4, 6), bound=2.0)


@st.composite
def clamp_sequences(draw):
    """``(lo, hi)``: up to a few thousand integer clamps, in runs.

    A run either holds one clamp (a path that stays in one cell, or on one
    level for width 0) or walks its lower end with widths drawn from
    ``0..width``, so widths 0, 1 and more than 1 all occur, and prefixes
    resolve after few or many doubling passes.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    centre = draw(st.integers(-50, 50))
    lo, hi = [], []
    for kind, length, width, spread in draw(st.lists(
            st.tuples(st.sampled_from(["hold", "walk"]), st.integers(1, 1200),
                      st.integers(0, 3), st.integers(1, 40)), min_size=1, max_size=5)):
        if kind == "hold":
            start = np.full(length, centre)
            widths = np.full(length, width)
        else:
            start = centre + np.cumsum(rng.integers(-spread, spread + 1, length))
            widths = rng.integers(0, width + 1, length)
        lo.append(start)
        hi.append(start + widths)
        centre = int(start[-1])
    return np.concatenate(lo).astype(np.int64), np.concatenate(hi).astype(np.int64)


class TestPlayOperatorScan:
    @PROPERTY
    @given(STEP_INPUTS)
    @example((np.array([0.0]), np.array([0.5]), 1))
    @example((np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0 + 2.0 ** -52, 1.0]), 52))
    def test_partition_step(self, inputs):
        times, values, n = inputs
        _assert_partition_matches(times, values, n)

    @PROPERTY
    @given(LINEAR_INPUTS)
    @example((np.array([0.0, 1.0]), np.array([-0.5, 0.5]), 1))
    @example((np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.25, 0.25]), 2))
    @example((np.array([0.0, 1.0]), np.array([-1e-320, 1e-320]), 1))
    def test_partition_linear(self, inputs):
        times, values, n = inputs
        _assert_linear_matches(times, values, n)

    @PROPERTY
    @given(STEP_INPUTS, st.sampled_from([1.0, 3.0]))
    @example((np.arange(8.0), COUNT_PAST_INT64, 52), 1.0)
    @example((np.arange(8.0), -COUNT_PAST_INT64, 52), 1.0)
    def test_crossings_total_up(self, inputs, stretch):
        _, values, n = inputs
        _assert_total_up_matches(values, stretch * 2.0 ** -n)

    @PROPERTY
    @given(STEP_INPUTS)
    def test_partition_coarsen_step(self, inputs):
        # generation n - 1 from generation n; n = 1 gives generation 0 (scale 1)
        times, values, n = inputs
        fine_idx, fine_j = K.partition_step(values, 2.0 ** n)
        sel, j = K.partition_coarsen(fine_j)
        ref_t, ref_j, ref_cnt = R.partition_step_py(times, values, 2.0 ** (n - 1))
        assert ref_cnt == sel.shape[0] == j.shape[0]
        assert times[fine_idx[sel]].tobytes() == ref_t[:ref_cnt].tobytes()
        assert j.tobytes() == ref_j[:ref_cnt].tobytes()

    @PROPERTY
    @given(LINEAR_INPUTS)
    @example((np.array([0.0, 1.0, 2.0]), np.array([-0.75, 0.75, -0.25]), 2))
    @example((np.array([0.0, 1.0]), np.array([0.0, 2.225073858e-313]), 1))
    def test_partition_coarsen_linear(self, inputs):
        times, values, n = inputs
        fine_t, fine_j = _linear_partition_py(times, values, n)
        sel, j = K.partition_coarsen(fine_j)
        ref_t, ref_j = _linear_partition_py(times, values, n - 1)
        assert fine_t[sel].tobytes() == ref_t.tobytes()
        assert j.tobytes() == ref_j.tobytes()

    @PROPERTY
    @given(STEP_INPUTS, st.sampled_from([1.0, 3.0]))
    @example((np.arange(8.0), COUNT_PAST_INT64, 52), 1.0)
    @example((np.arange(8.0), -COUNT_PAST_INT64, 52), 1.0)
    def test_crossings_prefix(self, inputs, stretch):
        # every prefix of one scan against the reference loop on that prefix
        _, values, n = inputs
        h = stretch * 2.0 ** -n
        scan = K.crossings_prefix(values, h)
        ups = [R.crossings_total_up_py(values[:e + 1], h) for e in range(values.shape[0])]
        downs = [R.crossings_total_up_py(-values[:e + 1], h) for e in range(values.shape[0])]
        for e, ref in enumerate(zip(ups, downs)):
            if max(ref) > INT64_MAX:
                with pytest.raises(ContractError, match="2\\*\\*63"):
                    scan.at(e + 1)
            else:
                assert scan.at(e + 1) == ref
        if ups[-1] > INT64_MAX:
            with pytest.raises(ContractError, match="2\\*\\*63"):
                scan.ups()
        else:
            assert scan.ups().tolist() == ups

    @settings(max_examples=200)
    @given(clamp_sequences())
    @example((np.array([3]), np.array([5])))
    @example((np.full(4096, 7), np.full(4096, 8)))
    # entries 2..4 stay live after the dense pass with offset 1, so passes turn
    # sparse; entry 4 = 2 * 2 still lacks clamp 0 before the pass with offset
    # 2 and must stay live, since only the next pass brings its hi track to 2
    @example((np.array([0, 2, 2, 2, 2, 0, 0, 0, 0]), np.array([0, 4, 4, 4, 4, 0, 0, 0, 0])))
    def test_play_scan(self, clamps):
        lo, hi = clamps
        tracks = K._play_scan(lo, hi)
        ref = R.play_scan_py(lo, hi)
        assert tracks[0].tobytes() == ref[0].tobytes()
        assert tracks[1].tobytes() == ref[1].tobytes()

    def test_scaled_values_beyond_2_62_are_rejected(self):
        with pytest.raises(ContractError):
            K.partition_step(np.array([0.0, 1e6]), 2.0 ** 52)
        with pytest.raises(ContractError):
            K.partition_linear_count(np.array([0.0, 2.0 ** 10]), 2.0 ** 52)
        with pytest.raises(ContractError):
            K.crossings_total_up(np.array([0.0, 10.0]), 1e-18)
        # just below the guard the scan still runs
        assert K.partition_step(np.array([0.0, 1023.0]), 2.0 ** 52)[0].shape[0] == 2


@st.composite
def interval_inputs(draw):
    """Values, an interval ``(a, b)`` and a cut-off index, often on one lattice.

    Lattice values are multiples of 0.25 and so hit ``a``, ``b`` and the
    Doob grid levels exactly.
    """
    m = draw(st.integers(1, 40))
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.integers(-12, 12), min_size=m, max_size=m))) * 0.25
        a = draw(st.integers(-8, 8)) * 0.25
        b = a + draw(st.integers(1, 4)) * 0.25
    else:
        values = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)))
        a = draw(st.floats(-3.0, 3.0))
        b = a + draw(st.floats(0.01, 3.0))
    return values, a, b, draw(st.integers(0, m))


@st.composite
def qv_grid_inputs(draw):
    """Two coordinates on a grid and sorted partition positions with repeats."""
    g = draw(st.integers(1, 30))
    si = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=g, max_size=g)))
    sj = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=g, max_size=g)))
    rest = draw(st.lists(st.integers(0, g - 1), max_size=3 * g))
    return si, sj, np.array([0] + sorted(rest), dtype=np.int64)


class TestQvOnGrid:
    @PROPERTY
    @given(qv_grid_inputs())
    @example((np.array([1.0, 2.0, 4.0]), np.array([1.0, 3.0, 2.0]),
              np.array([0, 0, 2, 2, 2], dtype=np.int64)))
    def test_matches_reference(self, inputs):
        si, sj, pos = inputs
        _assert_qv_matches(np.column_stack([si, sj]), pos)


@st.composite
def grid_inputs(draw):
    """Values and an interval range ``klo..khi`` of a spacing h, dyadic or not.

    Values often sit on the products ``k*h`` and ``k*h + h``; for
    non-dyadic h, ``k*h + h`` need not equal ``(k + 1)*h`` and their
    quotients by h need not be integers.
    """
    h = draw(st.sampled_from([0.25, 0.1, 0.3, 1.0 / 3.0, 0.7]))
    klo = draw(st.integers(-6, 0))
    khi = klo + draw(st.integers(0, 12))
    m = draw(st.integers(1, 30))
    picks = draw(st.lists(st.tuples(st.integers(klo - 2, khi + 2),
                                    st.sampled_from(["a", "b", "inside"])),
                          min_size=m, max_size=m))
    values = [k * h if end == "a" else k * h + h if end == "b" else (k + 0.5) * h
              for k, end in picks]
    return np.array(values), klo, khi, h


class TestIntervalState:
    @PROPERTY
    @given(interval_inputs())
    @example((np.array([0.0, 1.0, 0.0, 1.0]), 0.0, 1.0, 4))
    def test_crossings_greedy(self, inputs):
        values, a, b, _ = inputs
        assert K.crossings_greedy(values, a, b) == R.crossings_greedy_py(values, a, b)

    @PROPERTY
    @given(interval_inputs(), st.floats(1e-3, 1.0))
    @example((np.array([-0.25, 0.5, -0.25]), 0.0, 0.25, 0), 0.1)
    @example((np.array([-0.25, 0.5, -0.25]), 0.0, 0.25, 3), 0.1)
    def test_doob_positions(self, inputs, weight):
        values, _, _, gamma_idx = inputs
        np.testing.assert_array_equal(
            K.doob_positions(values, -13, 12, 0.25, weight, gamma_idx),
            R.doob_positions_py(values, -13, 12, 0.25, weight, gamma_idx))

    @PROPERTY
    @given(interval_inputs())
    def test_crossings_interval_batch(self, inputs):
        values = inputs[0]
        a = K.crossings_interval_batch(values, -13, 12, 0.25)
        b = R.crossings_interval_batch_py(values, -13, 12, 0.25)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @PROPERTY
    @given(grid_inputs())
    @example((np.array([0.3, 0.0, 0.30000000000000004, 0.0]), 0, 2, 0.1))
    @example((np.array([0.0, 2.1]), 0, 2, 0.7))  # 2.1 / 0.7 > 3 although 3 * 0.7 < 2.1
    def test_crossings_interval_batch_any_spacing(self, inputs):
        # the counts read values / h against the integer grid, at any spacing
        values, klo, khi, h = inputs
        a = K.crossings_interval_batch(values, klo, khi, h)
        b = R.crossings_interval_batch_py(values / h, klo, khi, 1.0)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_crossings_interval_batch_near_the_cap(self):
        # 2**20 intervals, as many as crossing_report counts, of a non-dyadic h
        values = np.array([0.0, 0.5, 0.25, 1.0, 0.0, 0.75])
        h = 1.0 / (2 ** 20 - 3)
        klo, khi = -1, 2 ** 20 - 2
        up, down = K.crossings_interval_batch(values, klo, khi, h)
        ref_up, ref_down = R.crossings_interval_batch_py(values, klo, khi, h)
        assert up.shape == down.shape == (2 ** 20,)
        np.testing.assert_array_equal(up, ref_up)
        np.testing.assert_array_equal(down, ref_down)


@st.composite
def bdg_sequences(draw):
    """Sequences of any length >= 1, with zeros, repeats and mixed magnitudes."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    xs = draw(st.lists(st.one_of(st.just(0.0), st.floats(-4.0, 4.0), st.integers(-3, 3)),
                       min_size=1, max_size=40))
    return np.array(xs, dtype=np.float64) * scale


class TestBdg:
    @PROPERTY
    @given(bdg_sequences())
    @example(np.array([0.0]))
    @example(np.array([0.0, 0.0, 2.0, -2.0]))
    def test_core_and_weights(self, x):
        _assert_bdg_matches(x)

    @settings(max_examples=100)
    @given(st.lists(bdg_sequences(), min_size=1, max_size=12))
    def test_batch(self, seqs):
        _assert_bdg_batch_matches(seqs)


@st.composite
def psi_specs(draw):
    """A jump bound of each family, the table often with knots on a lattice."""
    family = draw(st.sampled_from(["constant", "affine", "power", "table"]))
    coef = st.floats(0.0, 2.0)
    if family == "constant":
        return PsiSpec(family, (draw(coef),))
    if family in ("affine", "power"):
        return PsiSpec(family, (draw(coef), draw(st.floats(0.0, 3.0))))
    knots = draw(st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True))
    ys = np.cumsum(draw(st.lists(st.floats(0.0, 1.0), min_size=len(knots),
                                 max_size=len(knots))))
    xs = np.sort(knots) * 0.25
    return PsiSpec(family, tuple(np.column_stack([xs, ys]).ravel()))


# running sups and knots: zero, on the lattice and anywhere (psi rejects a negative argument)
PSI_ARGUMENTS = st.one_of(st.floats(0.0, 12.0), st.integers(0, 48).map(lambda k: k * 0.25))


class TestPsi:
    @PROPERTY
    @given(psi_specs(), st.lists(PSI_ARGUMENTS, min_size=1, max_size=20))
    @example(PsiSpec("power", (0.1, 0.3)), [1.8739842191826488])  # np.power is an ulp off
    @example(PsiSpec("table", (0.0, 0.02, 1.0, 0.05, 5.0, 0.1)), [0.0, 1.0, 5.0, 0.3])
    def test_matches_the_clipping_bound(self, psi, xs):
        # scalars and arrays alike take the reference's bits
        ref = np.array([R.psi_eval_py(*R.psi_args(psi), np.float64(x)) for x in xs])
        scalars = np.array([psi(x) for x in xs])
        assert scalars.tobytes() == ref.tobytes()
        assert psi(np.array(xs)).tobytes() == ref.tobytes()
        grid = np.array(xs).reshape(-1, 1)[:, [0, 0]]
        assert psi(grid).tobytes() == np.repeat(ref, 2).tobytes()

    @settings(max_examples=150)
    @given(psi_specs(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 2, 7, K._CLIP_BLOCK]))
    def test_clip_jumps(self, psi, dim, seed, block):
        # a window holds at most _CLIP_BLOCK rows; small windows put many
        # clips and episodes on window boundaries
        rng = np.random.default_rng(seed)
        vals = np.cumsum(rng.normal(0, 0.5, (int(rng.integers(1, 60)), dim)), axis=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(K, "_CLIP_BLOCK", block)
            a = K.clip_jumps(vals.copy(), psi)
        b = R.clip_jumps_py(vals.copy(), *R.psi_args(psi))
        assert a.tobytes() == b.tobytes()

    def test_clip_jumps_keeps_a_jump_exactly_at_the_bound(self):
        # 1.0 - 0.1 == 0.9 in float64: the jump is allowed and stays as it is,
        # both where the rows are scanned and inside an episode, after a clip
        values = np.array([[1.0], [0.1]])
        K.clip_jumps(values, PsiSpec("constant", (0.9,)))
        assert values[1, 0] == 0.1
        values = np.array([[0.0], [-1.0], [1.0], [0.1]])
        K.clip_jumps(values, PsiSpec("constant", (0.9,)))
        assert values[1:, 0].tolist() == [-0.9, 1.0, 0.1]


def test_row_norms_are_the_loops_norm():
    # bit for bit the clipping loop's sum, also from 8 columns on, where NumPy's
    # pairwise sum rounds otherwise, and on rows whose sum of squares overflows
    rng = np.random.default_rng(33)
    for d in range(1, 34):
        rows = rng.normal(0, 1, (300, d)) * 10.0 ** rng.integers(-3, 4, (300, 1))
        rows[::10] *= 1e160
        rows[5::10, 0] = 1.7e308
        norms = K.row_norms(rows)
        assert np.isfinite(norms).all()
        assert norms.tobytes() == np.array([K._norm(row) for row in rows.tolist()]).tobytes()


def _calm_path(m, dim=1, seed=0):
    """A path near 1 whose steps (sd 1e-3) no bound below clips."""
    return 1.0 + np.cumsum(np.random.default_rng(seed).normal(0, 1e-3, (m, dim)), axis=0)


def _fall(values, rows, size=0.2):
    """``values`` with the first coordinate falling by ``size`` at each of ``rows``.

    Against a bound of 0.05 each fall is clipped over four rows or more.
    """
    for r in rows:
        values[r:, 0] -= size
    return values


def _assert_clips_as_the_reference(values, psi):
    a = K.clip_jumps(values.copy(), psi)
    with np.errstate(over="ignore", invalid="ignore"):  # the reference squares 1e200
        b = R.clip_jumps_py(values.copy(), *R.psi_args(psi))  # and takes inf - inf
    assert a.tobytes() == b.tobytes()
    return a


@pytest.fixture
def episodes(monkeypatch):
    """The ``(first row, end row)`` of each clipping episode that ``clip_jumps`` runs,
    and each ``psi`` argument the episodes reach (filled as it runs)."""
    spans, calls = [], []
    clip_rows = K._clip_rows

    def spy(values, start, stop, runsup, bound, psi, last):
        if not spans or spans[-1][1] != start:
            spans.append([start, start])
        out = clip_rows(values, start, stop, runsup, bound,
                        lambda x: calls.append(x) or psi(x), last)
        spans[-1][1] = out[0]
        return out

    monkeypatch.setattr(K, "_clip_rows", spy)
    return spans, calls


class TestClipJumpsScan:
    """The windowed scan against the loop, where windows and episodes meet."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_an_episode_across_a_window_boundary(self, episodes, dim):
        # the first window ends at row _CLIP_BLOCK; the episode from row
        # _CLIP_BLOCK - 6 runs on past it
        edge = K._CLIP_BLOCK + 1
        values = _fall(_calm_path(2 ** 13, dim), [edge - 7, edge + 3])
        _assert_clips_as_the_reference(values, PsiSpec("constant", (0.05,)))
        assert any(a < edge < b for a, b in episodes[0])

    def test_an_episode_longer_than_the_calm_run(self, episodes):
        values = _fall(_calm_path(2 ** 12), range(1000, 1400, K._CLIP_CALM // 2))
        _assert_clips_as_the_reference(values, PsiSpec("affine", (0.05, 0.01)))
        assert max(b - a for a, b in episodes[0]) > 400

    def test_the_running_sup_grows_inside_an_episode(self, episodes):
        values = _calm_path(2 ** 12, 2)
        for r in range(2000, 2200, 10):  # a rise, then a fall that is clipped
            values[r:] += 0.3
            values[r + 5:, 0] -= 0.2
        _assert_clips_as_the_reference(values, PsiSpec("affine", (0.05, 0.01)))
        spans, calls = episodes
        assert spans and len(calls) > 10

    def test_a_row_whose_squares_overflow(self, episodes, monkeypatch):
        # rows near 1e200 from row 1000 on, rising, with small falls that clip
        values = _calm_path(2 ** 12, 2)
        values[1000:] = 1e200 * (1.0 + np.cumsum(np.full((2 ** 12 - 1000, 2), 1e-12), axis=0))
        values[3000::50, 1] *= 1.0 - 1e-11
        # the reference's supremum is inf and ours hypot's; beyond 4 this bound is flat
        table = PsiSpec("table", (0.0, 0.01, 4.0, 0.05))
        clipped = _assert_clips_as_the_reference(values, table)
        assert episodes[0] and episodes[0][0][0] >= 3000
        assert clipped[3000, 1] == clipped[2999, 1]
        # with a bound that reads the supremum, the scan still takes the loop's bits
        affine = PsiSpec("affine", (0.05, 1e-201))
        scanned = K.clip_jumps(values.copy(), affine)
        monkeypatch.setattr(K, "_clean_prefix",  # no window: the loop takes every row
                            lambda values, start, stop, runsup, bound, psi: (start, runsup, bound))
        assert scanned.tobytes() == K.clip_jumps(values.copy(), affine).tobytes()

    @pytest.mark.parametrize("dim, psi", [
        (1, PsiSpec("constant", (0.05,))), (1, PsiSpec("affine", (0.05, 0.05))),
        (2, PsiSpec("affine", (0.05, 0.05)))])
    def test_the_benchmark_jump_paths(self, dim, psi):
        # qv-step-long's jump specs at 2^13 steps, drawn without psi, then clipped
        spec = SimSpec(kind="jump-diffusion", steps=2 ** 13, seed=1, mode="step", dim=dim,
                       volatility=1.0, jump_intensity=50.0, jump_mean=-0.02, jump_std=0.1)
        values = simulate(spec, stream=2).values
        clipped = _assert_clips_as_the_reference(values, psi)
        assert np.count_nonzero(clipped != values) > 0

    def test_psi_is_called_only_where_the_loop_calls_it(self):
        # the fall to -1e308 is clipped before its norm, whose psi overflows,
        # can become a record; the rise to 1e308 is not, and both raise there
        psi = PsiSpec("affine", (0.1, 2.0))
        values = np.array([[0.0], [1.0], [-1e308], [1.0], [2.0]])
        _assert_clips_as_the_reference(values, psi)
        with pytest.raises(ContractError, match="beyond float64"):
            K.clip_jumps(np.array([[0.0], [1.0], [1e308], [1.0]]), psi)

    def test_values_that_are_not_finite(self):
        # the windows that hold them go to the loop, without a warning
        values = _fall(_calm_path(300, 2), [100])
        values[150, 0] = np.inf
        values[200, 1] = np.nan
        values[250:, :] = -np.inf
        _assert_clips_as_the_reference(values, PsiSpec("constant", (0.05,)))


def test_traced_kernel_names_resolve():
    """Every kernel the benchmark tracer wraps, and the backend flag, exists."""
    file = FsPath(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace_names", file)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    missing = [name for name in bench_trace.KERNEL_LAYERS if not hasattr(K, name)]
    assert missing == []
    assert hasattr(K, "NUMBA_ENABLED")
