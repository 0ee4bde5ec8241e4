import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import ContractError, Path, PsiSpec
from pathcalc.integration import (
    approximate_caglad,
    bdg_bound_check_cadlag,
    concentration_check_continuous,
    constant_integrand,
    continuity_experiment,
    difference_integrand,
    integral_curve,
    integrate_f2_dqv,
    integrate_step,
    ito_integral,
    metric,
    prepare_ensemble,
    StepIntegrand,
)
from pathcalc.partitions import lebesgue_partition_nd
from pathcalc.qv import qv_limit
from pathcalc.simulate import SimSpec, ensemble

import reference_loops as R
from conftest import random_step_path

PSI_AFF = PsiSpec("affine", (0.1, 0.1))


def sampler_prev_price(path, t):
    """Non-anticipating sampler of the left-continuous price."""
    return path.eval(t)


class TestIntegrateStep:
    def test_unit_integrand_telescopes(self, p1):
        assert integrate_step(constant_integrand(1.0), p1, 3.0) == pytest.approx(1.3, abs=1e-15)

    def test_window_integrand(self, p1):
        F = StepIntegrand(times=[0.0, 1.0, 3.0], values=[0.0, 2.0, 0.0])
        assert integrate_step(F, p1, 3.0) == pytest.approx(1.4, abs=1e-15)

    def test_zero(self, p1):
        assert integrate_step(constant_integrand(0.0), p1, 3.0) == 0.0

    def test_bilinearity(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            p = random_step_path(rng, n_events=10)
            tF = np.array([0.0, 0.3, 0.6])
            tG = np.array([0.0, 0.45])
            F = StepIntegrand(times=tF, values=rng.normal(size=3))
            G = StepIntegrand(times=tG, values=rng.normal(size=2))
            a, b = rng.normal(size=2)
            merged = np.unique(np.concatenate([tF, tG]))
            combo = StepIntegrand(times=merged,
                                  values=a * F.value_after(merged) + b * G.value_after(merged))
            t = float(p.horizon)
            lhs = integrate_step(combo, p, t)
            rhs = a * integrate_step(F, p, t) + b * integrate_step(G, p, t)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestCompensator:
    def test_unit_integrand_recovers_qv(self, p1):
        rep = integrate_f2_dqv(constant_integrand(1.0), p1, n_max=10)
        assert rep.terminal == pytest.approx(1.21, abs=1e-12)
        assert rep.converged

    def test_zero_integrand(self, p1):
        rep = integrate_f2_dqv(constant_integrand(0.0), p1, n_max=6)
        assert rep.terminal == 0.0

    def test_constant_scales_quadratically(self, p1):
        rep = integrate_f2_dqv(constant_integrand(3.0), p1, n_max=10)
        assert rep.terminal == pytest.approx(9 * 1.21, abs=1e-10)

    def test_matches_qv_for_random_step_paths(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            p = random_step_path(rng, n_events=10, min_jump=0.05)
            rep = integrate_f2_dqv(constant_integrand(1.0), p, n_max=12)
            oracle = qv_limit(p, n_max=12, tol=1e-12).terminal[0, 0]
            assert rep.terminal == pytest.approx(oracle, abs=1e-12)


class TestCaglad:
    def test_constant_rule(self, p1):
        F = approximate_caglad(lambda p, t: 2.5, p1, 3)
        assert np.all(F.values == 2.5)

    def test_prev_price_coarse_sampling(self, p1):
        F = approximate_caglad(sampler_prev_price, p1, 1)
        # partition {0, 1, 3}: values held are S_0 = 0 on (0,1], S_1 = 0.6 on (1,3]
        np.testing.assert_allclose(F.times, [0.0, 1.0, 3.0])
        np.testing.assert_allclose(F.values[:, 0], [0.0, 0.6, 1.3])

    def test_idempotent_on_aligned_step_rule(self, p1):
        G = StepIntegrand(times=[0.0, 1.0], values=[1.0, -1.0])
        F = approximate_caglad(lambda p, t: G.value_after(t), p1, 6)
        merged = np.unique(np.concatenate([p1.times, [0.5, 2.5]]))
        np.testing.assert_allclose(F.value_after(merged)[:, 0], G.value_after(merged)[:, 0])


def bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def same_integrand(F, G):
    return (bits(F.times) == bits(G.times) and bits(F.values) == bits(G.values)
            and bits(F.value_at_zero) == bits(G.value_at_zero))


class TestRuleContract:
    def test_one_call_per_generation_with_its_times(self):
        rng = np.random.default_rng(61)
        p = random_step_path(rng, n_events=15, dim=2)
        calls = []

        def recording(path, times):
            calls.append(times)
            return path.eval(times)

        ito_integral(recording, p, n_max=6)
        assert len(calls) == 6
        for n, times in enumerate(calls, start=1):
            assert isinstance(times, np.ndarray) and times.dtype == np.float64
            assert bits(times) == bits(lebesgue_partition_nd(p, n).times)

    def test_scalar_vector_and_matrix_results_agree(self):
        rng = np.random.default_rng(62)
        p = random_step_path(rng, n_events=15, dim=2)
        rules = [lambda q, t: 2.5,
                 lambda q, t: np.full(q.dim, 2.5),
                 lambda q, t: np.full((len(t), q.dim), 2.5)]
        F0, *others = [approximate_caglad(rule, p, 4) for rule in rules]
        assert F0.values.shape == (len(lebesgue_partition_nd(p, 4)), 2)
        for F in others:
            assert same_integrand(F, F0)


LEVEL_OR_ANY = st.one_of(st.integers(-8, 8).map(lambda k: k / 8.0),
                        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False))


@st.composite
def sampling_paths(draw):
    """Step and linear paths in 1 and 2 dimensions, values often on dyadic levels."""
    m = draw(st.integers(1, 10))
    d = draw(st.integers(1, 2))
    mode = draw(st.sampled_from(["step", "linear"]))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=m - 1, max_size=m - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    values = np.array(draw(st.lists(st.lists(LEVEL_OR_ANY, min_size=d, max_size=d),
                                    min_size=m, max_size=m)))
    return Path(times=times, values=values, mode=mode, horizon=float(times[-1]) + 0.5)


SAMPLING_RULES = {
    "prev-price": lambda p, t: p.eval(t),
    "unit": lambda p, t: np.ones(p.dim),
    "sine of price": lambda p, t: np.sin(3.0 * p.eval(t)),
}


class TestSamplerReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(path=sampling_paths(), n=st.integers(1, 8),
           rule=st.sampled_from(sorted(SAMPLING_RULES)))
    def test_bit_identical_to_per_time_loop(self, path, n, rule):
        fn = SAMPLING_RULES[rule]
        assert same_integrand(approximate_caglad(fn, path, n),
                              R.approximate_caglad_py(fn, path, n))
        got = ito_integral(fn, path, n_max=n)
        ref = R.ito_integral_py(fn, path, n_max=n)
        assert bits(got.curve.times) == bits(ref.curve.times)
        assert bits(got.curve.values) == bits(ref.curve.values)
        assert bits(got.generation_gaps) == bits(ref.generation_gaps)
        assert got.converged == ref.converged


class TestItoIntegral:
    def test_unit_rule_every_generation(self, p1):
        rep = ito_integral(lambda p, t: 1.0, p1, n_max=5)
        assert rep.terminal == pytest.approx(1.3, abs=1e-14)
        assert np.all(rep.generation_gaps == 0.0)
        assert rep.converged

    def test_prev_price_telescoping_p1(self, p1):
        rep = ito_integral(sampler_prev_price, p1, n_max=10)
        assert rep.terminal == pytest.approx(0.24, abs=1e-12)
        qv_t = qv_limit(p1, n_max=10, tol=1e-9).terminal[0, 0]
        assert 2 * rep.terminal + qv_t == pytest.approx(1.69, abs=1e-12)

    def test_prev_price_identity_random_step(self):
        rng = np.random.default_rng(43)
        for _ in range(6):
            p = random_step_path(rng, n_events=12, min_jump=0.05)
            rep = ito_integral(sampler_prev_price, p, n_max=12)
            qv_t = qv_limit(p, n_max=12, tol=1e-9).terminal[0, 0]
            s = p.values[:, 0]
            assert 2 * rep.terminal + qv_t == pytest.approx(s[-1] ** 2 - s[0] ** 2, abs=1e-12)


def const_factory(c):
    return lambda p: constant_integrand(c, p.dim)


@pytest.fixture(scope="module")
def small_ensemble():
    spec = SimSpec(kind="jump-diffusion", steps=48, seed=17, volatility=0.4,
                   jump_intensity=4.0, jump_std=0.2, psi=PSI_AFF)
    return prepare_ensemble(ensemble(spec, 12), n_max=6)


class TestMetrics:
    def test_identical_integrands_zero(self, small_ensemble):
        for name, kw in [("d_inf", {}), ("d_QV", {}), ("d_QV_loc", {}),
                         ("d_inf_loc", {}), ("d_inf_bM", {"b": 1.0, "M": 1.0}),
                         ("d_inf_psi", {"psi": PSI_AFF})]:
            est = metric(name, const_factory(0.7), const_factory(0.7),
                         small_ensemble, **kw)
            assert est.value == 0.0, name

    def test_d_qv_constant_offset_single_path(self, p1):
        stats = prepare_ensemble([p1], n_max=10)
        c = 0.5
        est = metric("d_QV", const_factory(c), const_factory(0.0), stats)
        assert est.value == pytest.approx(min(c * math.sqrt(1.21), 1.0), abs=1e-9)

    def test_d_inf_bm_empty_indicator(self, small_ensemble):
        est = metric("d_inf_bM", const_factory(1.0), const_factory(0.0),
                     small_ensemble, b=1e-9, M=1e-9)
        assert est.value == 0.0

    def test_symmetry(self, small_ensemble):
        a = metric("d_inf", const_factory(1.0), const_factory(0.25), small_ensemble)
        b = metric("d_inf", const_factory(0.25), const_factory(1.0), small_ensemble)
        assert a.value == b.value

    def test_triangle_inequality(self, small_ensemble):
        f, g, h = const_factory(0.0), const_factory(0.4), const_factory(1.0)
        for name in ("d_inf", "d_QV"):
            fg = metric(name, f, g, small_ensemble).value
            gh = metric(name, g, h, small_ensemble).value
            fh = metric(name, f, h, small_ensemble).value
            assert fh <= fg + gh + 1e-12

    def test_truncation_monotonicity(self, small_ensemble):
        prev = 0.0
        for terms in (2, 5, 10, 20):
            est = metric("d_inf_psi", const_factory(1.0), const_factory(0.0),
                         small_ensemble, psi=PSI_AFF, n_terms=terms)
            assert est.value >= prev - 1e-15
            prev = est.value

    def test_tail_bound_reported(self, small_ensemble):
        est = metric("d_inf_loc", const_factory(1.0), const_factory(0.0),
                     small_ensemble, n_terms=10)
        assert est.tail_bound == pytest.approx(2.0 ** -10)

    def test_contract_errors(self, small_ensemble):
        with pytest.raises(ContractError):
            metric("nope", const_factory(1), const_factory(0), small_ensemble)
        with pytest.raises(ContractError):
            metric("d_inf", const_factory(1), const_factory(0), [])
        with pytest.raises(ContractError):
            metric("d_inf_bM", const_factory(1), const_factory(0), small_ensemble)


class TestConcentration:
    def test_a_zero_trivial(self):
        spec = SimSpec(kind="brownian", steps=64, seed=2, mode="step")
        stats = prepare_ensemble(ensemble(spec, 10), n_max=5)
        rep = concentration_check_continuous(const_factory(1.0), stats, 0.0, 1.0)
        assert rep.bound == 2.0 and rep.ok

    def test_zero_integrand_empty_event(self):
        spec = SimSpec(kind="brownian", steps=64, seed=2, mode="step")
        stats = prepare_ensemble(ensemble(spec, 10), n_max=5)
        rep = concentration_check_continuous(const_factory(0.0), stats, 1.0, 1.0)
        assert rep.frequency == 0.0 and rep.ok


class TestBdgBound:
    def test_zero_integrand(self, p1):
        stats = prepare_ensemble([p1], n_max=6)
        rep = bdg_bound_check_cadlag(const_factory(0.0), stats, a=1.0, b=1.0,
                                     c=1.0, M=2.0, psi=PSI_AFF, n=8)
        assert rep.ok_pathwise and rep.frequency == 0.0

    def test_unit_integrand_p1(self, p1):
        stats = prepare_ensemble([p1], n_max=10)
        rep = bdg_bound_check_cadlag(const_factory(1.0), stats, a=100.0, b=1.3,
                                     c=1.0, M=1.5, psi=PSI_AFF, n=10)
        # lhs = sup |S_t - S_0| = 1.3; quad term alone is 6 sqrt(1.21) = 6.6
        assert rep.worst_slack > 0
        assert rep.transform_mismatch < 1e-9

    def test_random_cadlag_paths_zero_violations(self):
        spec = SimSpec(kind="jump-diffusion", steps=64, seed=29, volatility=0.5,
                       jump_intensity=6.0, jump_mean=-0.05, jump_std=0.25, psi=PSI_AFF)
        stats = prepare_ensemble(ensemble(spec, 40), n_max=6)
        F = StepIntegrand(times=[0.0, 0.3, 0.7], values=[0.5, -1.0, 0.25])
        rep = bdg_bound_check_cadlag(lambda p: F, stats, a=100.0, b=1.0, c=1.0,
                                     M=1.0, psi=PSI_AFF, n=9)
        assert rep.ok_pathwise and rep.worst_slack >= 0
        assert rep.ok_frequency_compensator
        assert rep.bound_compensator == pytest.approx(
            (1 + 3 + 2 * PSI_AFF(1.0)) * (6 + 2 + 2) / 100.0)


class TestBdgBoundMultiDim:
    def test_two_dim_pathwise_bound(self):
        rng = np.random.default_rng(55)
        paths = []
        for _ in range(25):
            p = random_step_path(rng, n_events=20, dim=2, min_jump=0.02, max_jump=0.4)
            paths.append(p)
        stats = prepare_ensemble(paths, n_max=5)
        F = StepIntegrand(times=[0.0, 0.4], values=[[1.0, -0.5], [0.25, 1.0]])
        rep = bdg_bound_check_cadlag(lambda p: F, stats, a=100.0, b=1.0, c=2.0,
                                     M=5.0, psi=PSI_AFF, n=8)
        assert rep.ok_pathwise and rep.worst_slack >= 0
        assert rep.transform_mismatch < 1e-9


class TestContinuity:
    def test_identical_pairs_all_zero(self):
        spec = SimSpec(kind="brownian", steps=128, seed=3, mode="step")
        stats = prepare_ensemble(ensemble(spec, 6), n_max=5)
        pairs = [(s, const_factory(1.0), const_factory(1.0)) for s in (1, 2)]
        rep = continuity_experiment(pairs, stats, kind="continuous")
        assert all(x == 0 and y == 0 for _, x, y in rep.rows)
        assert rep.ok

    def test_constant_offsets_have_unit_slope(self):
        spec = SimSpec(kind="brownian", steps=256, seed=4, mode="step")
        stats = prepare_ensemble(ensemble(spec, 20), n_max=6)
        pairs = [(k, const_factory(1.0 + 2.0 ** -k), const_factory(1.0))
                 for k in range(1, 9)]
        rep = continuity_experiment(pairs, stats, epsilon=0.25, kind="continuous")
        assert rep.ok and rep.slope >= rep.floor
        assert rep.slope == pytest.approx(1.0, abs=0.05)
