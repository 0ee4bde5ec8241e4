"""The scalar contract of the library API.

Every public call takes its scalar arguments through one intake,
``pathcalc.paths._scalar``: given any value in a scalar slot, a call either
returns or raises :class:`ContractError`.  Each slot of a row of
:data:`ROWS` takes each of the edge values :data:`EDGES` with the others at
their valid defaults, and Hypothesis draws every slot of a row at once from
its default and the edges; a ``RuntimeWarning`` fails the test too
(``pyproject.toml`` makes it an error).  Another test walks the public
functions of the six library modules and fails on a scalar slot that
:data:`ROWS` does not cover; the checks of ``pathcalc.checks`` run at count 1.
The rest pin single decisions of the contract.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcalc import ContractError, Path, PsiSpec
from pathcalc import checks as C
from pathcalc import integration as I
from pathcalc import partitions as P
from pathcalc import qv as Q
from pathcalc import simulate as S
from pathcalc import strategies as G

EDGES = [math.nan, math.inf, -math.inf, 0, -0.0, 1e-300, 1.7e308, 1.5, True, 2 ** 63]
SLOT_NAMES = {"n", "n_max", "K_bound", "lam", "t", "h", "tol", "tolerance", "epsilon", "a", "b",
              "c", "M", "i", "j", "stream", "count", "d"}
MODULES = (P, Q, G, I, S, C)
# ``pathcalc.checks`` runs its rows at count 1: a valid count such as 2**63 never ends, and
# CHECKS_REJECTED pins the count instead
UNSWEPT = {(C.__name__, "count")}

# dyadic values keep every sum exact, so the compensated-Z identity holds to 0
STEP = Path([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 0.25, 0.75, -0.25], horizon=1.5)
LINEAR = Path(STEP.times, STEP.values, mode="linear", horizon=1.5)
PLANE = Path([0.0, 0.5, 1.0], [[0.0, 0.5], [0.25, -0.5], [0.75, 0.0]])
PSI = PsiSpec("affine", (0.25, 0.5))
PART = P.lebesgue_partition_1d(STEP, 3)
# Q^3_3 = 0.85 and Q^5_3 = 1.21 on SHORT: a partition answers only for its own generation
SHORT = Path([0.0, 1.0, 2.0, 3.0], [0.0, 0.6, 0.4, 1.3])
PART5 = P.lebesgue_partition_nd(SHORT, 5)
REPORT = Q.qv_limit(STEP, 4)
HELD = G.RealizedStrategy(times=[0.0, 0.5, math.inf], positions=[1.0, -2.0])
ONE = I.constant_integrand(1.0)
SPEC = S.SimSpec(kind="jump-diffusion", steps=4, jump_intensity=2.0, psi=PSI)


def unit(p):
    return I.constant_integrand(1.0, p.dim)


def half(p):
    return I.constant_integrand(0.5, p.dim)


def prev_price(p, t):
    return p.eval(t)


# (id, call, {slot: valid default}); a call takes every slot as a keyword
ROWS = [
    ("lebesgue_partition_1d", lambda n: P.lebesgue_partition_1d(STEP, n), {"n": 3}),
    ("lebesgue_partition_nd", lambda n: P.lebesgue_partition_nd(PLANE, n), {"n": 3}),
    ("partition_ladder", lambda n_max: P.partition_ladder(LINEAR, n_max), {"n_max": 3}),
    ("chi", lambda t: P.chi(PART, t), {"t": 0.5}),
    ("crossings", lambda a, b, t: P.crossings(LINEAR, a, b, t), {"a": 0.0, "b": 0.5, "t": 1.0}),
    ("crossings_accumulated", lambda h, t: P.crossings_accumulated(LINEAR, h, t),
     {"h": 0.25, "t": 1.0}),
    ("upcrossings_at_events", lambda h: P.upcrossings_at_events(STEP, h), {"h": 0.25}),
    ("crossing_report", lambda h, t: P.crossing_report(STEP, h, t), {"h": 0.25, "t": 1.0}),
    ("discrete_qv", lambda t: Q.discrete_qv(STEP, PART, t), {"t": 1.0}),
    ("discrete_cross_qv", lambda n, i, j, t: Q.discrete_cross_qv(PLANE, n, i, j, t),
     {"n": 3, "i": 1, "j": 2, "t": 1.0}),
    ("qv_limit", lambda n_max, tol: Q.qv_limit(PLANE, n_max, tol), {"n_max": 3, "tol": 1e-8}),
    ("z_process", lambda n, t: Q.z_process(LINEAR, n, t), {"n": 3, "t": 1.0}),
    ("k_constant", lambda n, K_bound: Q.k_constant(n, K_bound, PSI), {"n": 3, "K_bound": 2}),
    ("k_process", lambda n, K_bound, t: Q.k_process(STEP, n, K_bound, PSI, t),
     {"n": 3, "K_bound": 2, "t": 1.0}),
    ("sigma_n_K", lambda n, K_bound: Q.sigma_n_K(STEP, n, K_bound), {"n": 3, "K_bound": 1}),
    ("jump_identity_check", lambda tolerance: Q.jump_identity_check(STEP, REPORT, tolerance),
     {"tolerance": 1e-9}),
    ("capital", lambda t: G.capital(HELD, STEP, t), {"t": 1.0}),
    ("gamma_K", lambda K_bound: G.gamma_K(LINEAR, K_bound), {"K_bound": 0.5}),
    ("rho_lambda", lambda lam: G.rho_lambda(HELD, STEP, lam), {"lam": 0.5}),
    ("check_strong_admissibility",
     lambda lam: G.check_strong_admissibility(HELD, [STEP], lam), {"lam": 0.5}),
    ("check_weak_admissibility", lambda lam: G.check_weak_admissibility(HELD, [STEP], lam),
     {"lam": 0.5}),
    ("doob_interval_strategy",
     lambda a, b, K_bound: G.doob_interval_strategy(a, b, K_bound).realize(LINEAR),
     {"a": 0.0, "b": 0.5, "K_bound": 1.0}),
    ("doob_aggregate_bound_factor",
     lambda n, K_bound: G.doob_aggregate_bound_factor(n, K_bound, PSI), {"n": 2, "K_bound": 1.0}),
    ("doob_aggregate", lambda n, K_bound: G.doob_aggregate(n, K_bound, PSI).realize(STEP),
     {"n": 2, "K_bound": 1.0}),
    ("lift_budget", lambda lam, d, K_bound: G.lift_budget(lam, d, K_bound, PSI),
     {"lam": 0.5, "d": 1, "K_bound": 1.0}),
    ("admissibility_lift",
     lambda lam, K_bound: G.admissibility_lift(G.doob_aggregate(2, 1.0, PSI), lam,
                                               K_bound).realize(STEP),
     {"lam": 0.5, "K_bound": 1.0}),
    ("l_strategy", lambda n, K_bound, tolerance: G.l_strategy(STEP, n, K_bound, PSI, tolerance),
     {"n": 3, "K_bound": 1, "tolerance": 1e-9}),
    ("hoeffding_beta", lambda lam, c: G.hoeffding_beta(lam, c), {"lam": 1.0, "c": 0.5}),
    ("hoeffding_strategy", lambda c, lam: G.hoeffding_strategy(STEP.times, c, lam).realize(STEP),
     {"c": 0.5, "lam": 1.0}),
    ("hoeffding_check", lambda c, lam: G.hoeffding_check(STEP, STEP.times, c, lam),
     {"c": 0.5, "lam": 1.0}),
    ("constant_integrand", lambda d: I.constant_integrand(1.0, d), {"d": 2}),
    ("integrate_step", lambda t: I.integrate_step(ONE, STEP, t), {"t": 1.0}),
    ("integrate_f2_dqv", lambda n_max, tol: I.integrate_f2_dqv(ONE, STEP, n_max, tol),
     {"n_max": 3, "tol": 1e-6}),
    ("approximate_caglad", lambda n: I.approximate_caglad(prev_price, STEP, n), {"n": 3}),
    ("ito_integral", lambda n_max, tol: I.ito_integral(prev_price, LINEAR, n_max, tol),
     {"n_max": 3, "tol": 1e-6}),
    ("prepare_ensemble", lambda n_max: I.prepare_ensemble([STEP], n_max), {"n_max": 3}),
    ("metric", lambda n_max, epsilon, n_terms, b, M:
     I.metric("d_inf_bM", unit, half, [STEP], n_max=n_max, epsilon=epsilon, n_terms=n_terms,
              b=b, M=M),
     {"n_max": 3, "epsilon": 0.25, "n_terms": 4, "b": 1.0, "M": 1.0}),
    ("metric d_inf_psi", lambda epsilon, n_terms:
     I.metric("d_inf_psi", unit, half, [STEP], n_max=3, epsilon=epsilon, n_terms=n_terms,
              psi=PSI),
     {"epsilon": 0.25, "n_terms": 4}),
    ("concentration_check_continuous", lambda a, b, n_max:
     I.concentration_check_continuous(unit, [LINEAR], a, b, n_max=n_max),
     {"a": 1.0, "b": 1.0, "n_max": 3}),
    ("bdg_bound_check_cadlag", lambda a, b, c, M, n, n_max:
     I.bdg_bound_check_cadlag(unit, [STEP], a, b, c, M, PSI, n=n, n_max=n_max),
     {"a": 3.0, "b": 1.5, "c": 1.0, "M": 1.0, "n": 4, "n_max": 3}),
    ("continuity_experiment", lambda epsilon, n_max:
     I.continuity_experiment([(1, unit, half)], [STEP], epsilon, kind="cadlag", n_max=n_max,
                             psi=PSI),
     {"epsilon": 0.25, "n_max": 3}),
    ("integrand", lambda c: C.integrand(c)(STEP), {"c": 1.0}),
    ("lift", lambda lam: C.lift(1, 1, lam=lam), {"lam": 0.5}),
    ("concentration", lambda a, b, n_max: C.concentration(1, 1, a=a, b=b, n_max=n_max),
     {"a": 3.0, "b": 1.5, "n_max": 3}),
    ("bdg_bound", lambda a, b, c, M, n_max: C.bdg_bound(1, 1, a=a, b=b, c=c, M=M, n_max=n_max),
     {"a": 3.0, "b": 1.5, "c": 1.0, "M": 1.0, "n_max": 3}),
    ("continuity", lambda epsilon, n_max: C.continuity("cadlag", 1, 1, epsilon=epsilon,
                                                       n_max=n_max),
     {"epsilon": 0.25, "n_max": 3}),
    ("simulate", lambda stream: S.simulate(SPEC, stream), {"stream": 3}),
    ("ensemble", lambda count: S.ensemble(SPEC, count), {"count": 2}),
    ("SimSpec", lambda **fields: S.simulate(S.SimSpec(kind="jump-diffusion", psi=PSI, **fields)),
     {"steps": 4, "horizon": 1.0, "dim": 2, "drift": 0.1, "volatility": 0.5,
      "jump_intensity": 2.0, "jump_mean": -0.1, "jump_std": 0.2, "x0": 0.5, "seed": 7}),
    ("SimSpec geometric", lambda x0, amplitude: S.simulate(
        S.SimSpec(kind="geometric-brownian", steps=4, x0=x0, amplitude=amplitude)),
     {"x0": 1.0, "amplitude": 1.0}),
    ("PsiSpec", lambda x, a, b: (PsiSpec("affine", (a, b))(x), PsiSpec("power", (a, b))(x),
                                 PsiSpec("table", (0.0, a, 1.0, b))(x)),
     {"x": 0.5, "a": 0.25, "b": 0.5}),
    ("Path", lambda horizon, i, j: (Path(PLANE.times, PLANE.values, horizon=horizon).coordinate(i),
                                    PLANE.coordinate_sum(i, j)),
     {"horizon": 2.0, "i": 1, "j": 2}),
]


BY_ROW = pytest.mark.parametrize("call, slots", [row[1:] for row in ROWS],
                                 ids=[row[0] for row in ROWS])


@BY_ROW
@settings(max_examples=30)
@given(data=st.data())
def test_a_call_returns_or_raises_contract_error(call, slots, data):
    values = {name: data.draw(st.sampled_from([default] + EDGES), label=name)
              for name, default in slots.items()}
    try:
        call(**values)
    except ContractError:
        pass


@BY_ROW
def test_each_edge_value_in_each_slot(call, slots):
    for name in slots:
        for value in EDGES:
            try:
                call(**slots | {name: value})
            except ContractError:
                pass


def test_every_scalar_slot_is_in_the_table():
    covered = {(row[0].split()[0], name) for row in ROWS for name in row[2]}
    missing = [f"{mod.__name__}.{name}({slot})"
               for mod in MODULES for name, fn in vars(mod).items()
               if not name.startswith("_") and inspect.isfunction(inspect.unwrap(fn))
               and fn.__module__ == mod.__name__
               for slot in inspect.signature(fn).parameters
               if slot in SLOT_NAMES and (name, slot) not in covered
               and (mod.__name__, slot) not in UNSWEPT]
    assert not missing, f"scalar slots without a row in ROWS: {missing}"


INF, NAN = math.inf, math.nan
REJECTED = [
    ("generation 1.5", lambda: P.lebesgue_partition_1d(STEP, 1.5)),
    ("generation True", lambda: P.lebesgue_partition_1d(STEP, True)),
    ("nd generation 2.5", lambda: P.lebesgue_partition_nd(PLANE, 2.5)),
    ("ladder n_max 2.5", lambda: P.partition_ladder(STEP, 2.5)),
    ("chi at nan", lambda: P.chi(PART, NAN)),
    ("chi at inf", lambda: P.chi(PART, INF)),
    ("crossings of (-inf, b)", lambda: P.crossings(LINEAR, -INF, 0.5)),
    ("crossings at t True", lambda: P.crossings_accumulated(LINEAR, 0.25, True)),
    ("accumulated at h inf", lambda: P.crossings_accumulated(LINEAR, INF)),
    ("upcrossings at h inf", lambda: P.upcrossings_at_events(STEP, INF)),
    ("report at h inf", lambda: P.crossing_report(STEP, INF)),
    ("qv tol nan", lambda: Q.qv_limit(STEP, 3, tol=NAN)),
    ("qv tol inf", lambda: Q.qv_limit(STEP, 3, tol=INF)),
    ("cross qv i j True", lambda: Q.discrete_cross_qv(PLANE, 3, True, True, 1.0)),
    ("cross qv n 'x' with a partition", lambda: Q.discrete_cross_qv(SHORT, "x", 1, 1, 3.0, PART5)),
    ("cross qv n 999 with a partition", lambda: Q.discrete_cross_qv(SHORT, 999, 1, 1, 3.0, PART5)),
    ("cross qv n 3 with a generation-5 partition",
     lambda: Q.discrete_cross_qv(SHORT, 3, 1, 1, 3.0, PART5)),
    ("z generation 1.5", lambda: Q.z_process(STEP, 1.5, 1.0)),
    ("k_constant generation 1.5", lambda: Q.k_constant(1.5, 2, PSI)),
    ("k_constant K 0.5", lambda: Q.k_constant(3, 0.5, PSI)),
    ("k_process K 1.5", lambda: Q.k_process(STEP, 3, 1.5, PSI, 1.0)),
    ("k_process K nan", lambda: Q.k_process(STEP, 3, NAN, PSI, 1.0)),
    ("k_process budget inf", lambda: Q.k_process(STEP, 3, 1.7e308, PSI, 1.0)),
    ("sigma K nan", lambda: Q.sigma_n_K(STEP, 3, NAN)),
    ("jump identity tolerance nan", lambda: Q.jump_identity_check(STEP, REPORT, NAN)),
    ("l_strategy generation 2.5", lambda: G.l_strategy(STEP, 2.5, 1, PSI)),
    ("l_strategy tolerance nan", lambda: G.l_strategy(STEP, 3, 1, PSI, NAN)),
    ("l_strategy tolerance -1", lambda: G.l_strategy(STEP, 3, 1, PSI, -1.0)),
    ("gamma K inf", lambda: G.gamma_K(STEP, INF)),
    ("rho lambda nan", lambda: G.rho_lambda(HELD, STEP, NAN)),
    ("strong lambda nan", lambda: G.check_strong_admissibility(HELD, [STEP], NAN)),
    ("weak lambda inf", lambda: G.check_weak_admissibility(HELD, [STEP], INF)),
    ("interval strategy K nan", lambda: G.doob_interval_strategy(0.0, 0.5, NAN)),
    ("aggregate generation 1.5", lambda: G.doob_aggregate(1.5, 2.0, PSI)),
    ("bound factor K nan", lambda: G.doob_aggregate_bound_factor(2, NAN, PSI)),
    ("lift budget lambda nan", lambda: G.lift_budget(NAN, 1, 1.0, PSI)),
    ("lift budget d 1.5", lambda: G.lift_budget(0.5, 1.5, 1.0, PSI)),
    ("lift K nan", lambda: G.admissibility_lift(G.doob_aggregate(2, 1.0, PSI), 0.5, NAN)),
    ("beta lambda nan", lambda: G.hoeffding_beta(NAN, 1.0)),
    ("beta c -1", lambda: G.hoeffding_beta(1.0, -1.0)),
    ("hoeffding c nan", lambda: G.hoeffding_strategy(STEP.times, NAN, 1.0)),
    ("hoeffding envelope inf", lambda: G.hoeffding_check(STEP, STEP.times, 1e-300, 1e6)),
    ("constant integrand d 1.5", lambda: I.constant_integrand(1.0, 1.5)),
    ("compensator tol nan", lambda: I.integrate_f2_dqv(ONE, STEP, 3, NAN)),
    ("ito tol nan", lambda: I.ito_integral(prev_price, STEP, 3, NAN)),
    ("ito rule of the wrong shape", lambda: I.ito_integral(lambda p, t: np.ones((3, 3)), STEP, 2)),
    ("ensemble n_max 2.5", lambda: I.prepare_ensemble([STEP], 2.5)),
    ("metric n_terms 1.5", lambda: I.metric("d_inf", unit, half, [STEP], n_terms=1.5)),
    ("metric b nan", lambda: I.metric("d_inf_bM", unit, half, [STEP], b=NAN, M=1.0)),
    ("concentration a inf", lambda: I.concentration_check_continuous(unit, [STEP], INF, 1.0)),
    ("bdg bound generation 1.5",
     lambda: I.bdg_bound_check_cadlag(unit, [STEP], 3.0, 1.5, 1.0, 1.0, PSI, n=1.5, n_max=3)),
    ("continuity n_max 2.5", lambda: I.continuity_experiment([], [STEP], 0.25, n_max=2.5)),
    ("stream -1", lambda: S.simulate(SPEC, -1)),
    ("stream 1.5", lambda: S.simulate(SPEC, 1.5)),
    ("stream 2**64", lambda: S.simulate(SPEC, 2 ** 64)),
    ("seed -1", lambda: S.SimSpec(kind="brownian", seed=-1)),
    ("seed 2**64", lambda: S.SimSpec(kind="brownian", seed=2 ** 64)),
    ("steps 1.5", lambda: S.SimSpec(kind="brownian", steps=1.5)),
    ("dim True", lambda: S.SimSpec(kind="brownian", dim=True)),
    ("horizon True", lambda: S.SimSpec(kind="brownian", horizon=True)),
    ("count 1.5", lambda: S.ensemble(SPEC, 1.5)),
    ("ensemble beyond the value budget",
     lambda: S.ensemble(S.SimSpec(kind="constant", steps=2 ** 23), 3)),
    ("psi at nan", lambda: PsiSpec("constant", (0.5,))(NAN)),
    ("psi at -1", lambda: PsiSpec("power", (0.1, 0.5))(-1.0)),
    ("psi at -1 in an array", lambda: PsiSpec("table", (0.0, 0.0, 1.0, 1.0))([0.5, -1.0])),
    ("psi parameter True", lambda: PsiSpec("constant", (True,))),
    ("psi parameter text", lambda: PsiSpec("constant", ("0.5",))),
    ("path horizon True", lambda: Path([0.0, 0.5], [0.0, 1.0], horizon=True)),
    ("coordinate 1.5", lambda: PLANE.coordinate(1.5)),
    ("coordinate True", lambda: PLANE.coordinate(True)),
]


@pytest.mark.parametrize("call", [row[1] for row in REJECTED], ids=[row[0] for row in REJECTED])
def test_an_argument_outside_its_domain_is_rejected(call):
    with pytest.raises(ContractError):
        call()


def test_messages_name_the_argument_its_domain_and_value():
    cases = [(lambda: P.partition_ladder(STEP, 1.5), "n_max must be in 1..52, got 1.5"),
             (lambda: G.gamma_K(STEP, NAN), "K must be > 0 and finite, got nan"),
             (lambda: Q.discrete_qv(STEP, PART, 2.0), "t = 2.0 is outside [0, 1.5]"),
             (lambda: Q.sigma_n_K(STEP, 3, 0), "K must be an integer >= 1, got 0"),
             (lambda: G.l_strategy(STEP, 3, 1, PSI, NAN), "tolerance must be >= 0, got nan")]
    for call, message in cases:
        with pytest.raises(ContractError) as failure:
            call()
        assert str(failure.value) == message


SEEDS = "in 0..18446744073709551615"
CHECKS_REJECTED = [
    ("bdg_sequences count -3", lambda: C.bdg_sequences(1, -3),
     "count must be an integer >= 1, got -3"),
    ("bdg_sequences seed -1", lambda: C.bdg_sequences(-1, 1), f"seed must be {SEEDS}, got -1"),
    ("bdg_sequences seed 2**64", lambda: C.bdg_sequences(2 ** 64, 1),
     f"seed must be {SEEDS}, got {2 ** 64}"),
    ("l_identity count 0", lambda: C.l_identity(1, 0), "count must be an integer >= 1, got 0"),
    ("doob count 0", lambda: C.doob(1, 0), "count must be an integer >= 1, got 0"),
    ("doob K 0", lambda: C.doob(1, 1, K=0), "K must be > 0 and finite, got 0"),
    ("doob K nan", lambda: C.doob(1, 1, K=NAN), "K must be > 0 and finite, got nan"),
    ("doob K True", lambda: C.doob(1, 1, K=True), "K must be > 0 and finite, got True"),
    ("hoeffding count -3", lambda: C.hoeffding(1, -3), "count must be an integer >= 1, got -3"),
    ("hoeffding seed -1", lambda: C.hoeffding(-1, 1), f"seed must be {SEEDS}, got -1"),
    ("hoeffding min_steps 120", lambda: C.hoeffding(1, 2, min_steps=120),
     "min_steps must be in 1..119, got 120"),
    ("hoeffding min_steps 0", lambda: C.hoeffding(1, 2, min_steps=0),
     "min_steps must be in 1..119, got 0"),
    ("lift count 0", lambda: C.lift(1, 0), "count must be an integer >= 1, got 0"),
    ("lift seed -1", lambda: C.lift(-1, 1), f"seed must be {SEEDS}, got -1"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in CHECKS_REJECTED],
                         ids=[row[0] for row in CHECKS_REJECTED])
def test_checks_take_their_scalars_through_the_intake(call, message):
    with pytest.raises(ContractError) as failure:
        call()
    assert str(failure.value) == message


def test_integral_floats_and_numpy_integers_are_integers():
    # an integral float is the integer it equals: no raw TypeError from NumPy
    for n_max in (1.0, np.int64(1), np.float32(1.0), np.array(1)):
        assert Q.qv_limit(STEP, n_max).n_max == 1
    assert S.simulate(S.SimSpec(kind="brownian", steps=4.0, dim=np.int8(2))).values.shape == (5, 2)
    assert S.simulate(SPEC, 3.0) == S.simulate(SPEC, 3)


def test_the_stream_key_spans_64_bits():
    # the largest stream and seed are their own: nothing wraps around to another key
    last = 2 ** 64 - 1
    top = S.simulate(SPEC, last)
    assert top != S.simulate(SPEC, 0) and top == S.simulate(SPEC, np.uint64(last))
    spec = S.SimSpec(kind="brownian", steps=4, seed=last)
    assert S.simulate(spec) != S.simulate(S.SimSpec(kind="brownian", steps=4))


def test_limits_that_were_errors_are_values():
    assert G.hoeffding_beta(1.7e308, 1.0) == 0.0  # exp(-y^2 / 2) is 0 long before sinh overflows
    assert G.hoeffding_beta(-40.0, 1.0) == 0.0
    assert PsiSpec("affine", (0.1, 0.0))(INF) == 0.1  # b = 0 holds a at x = inf
