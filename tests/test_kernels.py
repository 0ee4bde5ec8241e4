"""Every kernel agrees bit-for-bit with its per-event reference loop.

The loops live in ``reference_kernels``.  The property tests pin down the
two equivalences the vectorized kernels rest on: the play-operator scan
reproduces the partition, linear-crossing and accumulated-upcrossing loops,
and the interval state reproduces the greedy-crossing and Doob-position
loops.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcalc import _kernels as K
from pathcalc.errors import ContractError

import reference_kernels as R

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)
INT64_MAX = int(np.iinfo(np.int64).max)
# Accumulated upcrossings of 2**63 at spacing 2**-52, with every level index
# below 2**62: the counts used to wrap to -2**63.
COUNT_PAST_INT64 = np.array([0.0, 2.0, 0.0, 512.0, 0.0, 512.0, -510.0, 512.0])


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
        np.testing.assert_array_equal(K.qv_on_grid(v, v, pos),
                                      R.qv_on_grid_py(v, v, pos))

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
            assert K.bdg_core(x) == R.bdg_core_py(x)
            h_kernel = np.empty(x.shape[0] - 1)
            h_ref = np.empty(x.shape[0] - 1)
            assert K.bdg_weights(x, h_kernel) == R.bdg_weights_py(x, h_ref)
            np.testing.assert_array_equal(h_kernel, h_ref)
        seqs = [rng.normal(size=int(rng.integers(1, 30))) for _ in range(20)]
        _assert_bdg_batch_matches(seqs)

    def test_clip_jumps(self):
        rng = np.random.default_rng(6)
        vals = np.cumsum(rng.normal(0, 0.5, (40, 2)), axis=0)
        for code, p0, p1, xs, ys in (
                (K.PSI_CONSTANT, 0.3, 0.0, np.empty(0), np.empty(0)),
                (K.PSI_AFFINE, 0.05, 0.1, np.empty(0), np.empty(0)),
                (K.PSI_POWER, 0.2, 0.5, np.empty(0), np.empty(0)),
                (K.PSI_TABLE, 0.0, 0.0, np.array([0.0, 1.0, 3.0]), np.array([0.1, 0.2, 0.6]))):
            a = K.clip_jumps(vals.copy(), code, p0, p1, xs, ys)
            b = R.clip_jumps_py(vals.copy(), code, p0, p1, xs, ys)
            np.testing.assert_array_equal(a, b)

    def test_doob_positions(self):
        rng = np.random.default_rng(7)
        v = np.cumsum(rng.normal(0, 0.3, 50))
        a = K.doob_positions(v, -8, 8, 0.25, 0.01, 50)
        b = R.doob_positions_py(v, -8, 8, 0.25, 0.01, 50)
        np.testing.assert_array_equal(a, b)


def _assert_partition_matches(times, values, n):
    a = K.partition_step(times, values, 2.0 ** n)
    b = R.partition_step_py(times, values, 2.0 ** n)
    assert a[2] == b[2]
    np.testing.assert_array_equal(a[0][:a[2]], b[0][:b[2]])
    np.testing.assert_array_equal(a[1][:a[2]], b[1][:b[2]])
    return a[2]


def _assert_linear_matches(times, values, n):
    scale = 2.0 ** n
    cnt = K.partition_linear_count(times, values, scale)
    assert cnt == R.partition_linear_count_py(times, values, scale)
    ta = np.empty(cnt)
    ja = np.empty(cnt, np.int64)
    tb = np.empty(cnt)
    jb = np.empty(cnt, np.int64)
    assert K.partition_linear_fill(times, values, scale, ta, ja) == cnt
    assert R.partition_linear_fill_py(times, values, scale, tb, jb) == cnt
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
    la, ra = K.bdg_batch(flat, offsets)
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
            for a, b in ((si, sj), (sj, si), (si, si)):
                np.testing.assert_array_equal(K.qv_on_grid(a, b, pos),
                                              R.qv_on_grid_py(a, b, pos))

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
        fine_t, fine_j, _ = K.partition_step(times, values, 2.0 ** n)
        sel, j = K.partition_coarsen(fine_j)
        ref_t, ref_j, ref_cnt = R.partition_step_py(times, values, 2.0 ** (n - 1))
        assert ref_cnt == sel.shape[0] == j.shape[0]
        assert fine_t[sel].tobytes() == ref_t[:ref_cnt].tobytes()
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
    def test_crossings_up_prefix(self, inputs, stretch):
        _, values, n = inputs
        h = stretch * 2.0 ** -n
        ref = [R.crossings_total_up_py(values[:e + 1], h) for e in range(values.shape[0])]
        if ref[-1] > INT64_MAX:
            with pytest.raises(ContractError, match="2\\*\\*63"):
                K.crossings_up_prefix(values, h)
        else:
            assert K.crossings_up_prefix(values, h).tolist() == ref

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(clamp_sequences())
    @example((np.array([3]), np.array([5])))
    @example((np.full(4096, 7), np.full(4096, 8)))
    def test_play_scan(self, clamps):
        lo, hi = clamps
        tracks = K._play_scan(lo, hi)
        ref = R.play_scan_py(lo, hi)
        assert tracks[0].tobytes() == ref[0].tobytes()
        assert tracks[1].tobytes() == ref[1].tobytes()

    def test_scaled_values_beyond_2_62_are_rejected(self):
        times = np.array([0.0, 1.0])
        with pytest.raises(ContractError):
            K.partition_step(times, np.array([0.0, 1e6]), 2.0 ** 52)
        with pytest.raises(ContractError):
            K.partition_linear_count(times, np.array([0.0, 2.0 ** 10]), 2.0 ** 52)
        with pytest.raises(ContractError):
            K.crossings_total_up(np.array([0.0, 10.0]), 1e-18)
        # just below the guard the scan still runs
        assert K.partition_step(times, np.array([0.0, 1023.0]), 2.0 ** 52)[2] == 2


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
        for a, b in ((si, sj), (si, si)):
            assert K.qv_on_grid(a, b, pos).tobytes() == R.qv_on_grid_py(a, b, pos).tobytes()


@st.composite
def grid_inputs(draw):
    """Values and an interval range ``klo..khi`` of a spacing h, dyadic or not.

    Values often sit exactly on an interval's ends ``k*h`` and ``k*h + h``
    as the kernel computes them; for non-dyadic h, ``k*h + h`` need not
    equal ``(k + 1)*h``.
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
    def test_crossings_interval_batch_any_spacing(self, inputs):
        values, klo, khi, h = inputs
        a = K.crossings_interval_batch(values, klo, khi, h)
        b = R.crossings_interval_batch_py(values, klo, khi, h)
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
