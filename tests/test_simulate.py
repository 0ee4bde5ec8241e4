import json

import numpy as np
import pytest

from pathcalc import ContractError, PsiSpec, SampleSpaceSpec, check_membership
from pathcalc.simulate import SimSpec, ensemble, read_simspec, simulate, write_simspec


class TestDeterminism:
    def test_same_spec_same_path(self):
        spec = SimSpec(kind="brownian", steps=64, seed=42)
        a, b = simulate(spec), simulate(spec)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.times, b.times)

    def test_ensemble_reproducible_and_streamed(self):
        spec = SimSpec(kind="jump-diffusion", steps=32, seed=9, jump_intensity=5.0,
                       psi=PsiSpec("constant", (0.5,)))
        e1, e2 = ensemble(spec, 4), ensemble(spec, 4)
        for p, q in zip(e1, e2):
            assert np.array_equal(p.values, q.values)
        assert np.array_equal(e1[2].values, simulate(spec, stream=2).values)

    def test_singleton_ensemble_is_stream_zero(self):
        spec = SimSpec(kind="brownian", steps=16, seed=1)
        assert np.array_equal(ensemble(spec, 1)[0].values, simulate(spec).values)

    def test_streams_differ(self):
        spec = SimSpec(kind="brownian", steps=16, seed=1)
        assert not np.array_equal(simulate(spec, 0).values, simulate(spec, 1).values)


class TestKinds:
    def test_constant_zero(self):
        p = simulate(SimSpec(kind="constant", value=0.0, horizon=2.0))
        assert p.n_events == 1 and p.values[0, 0] == 0.0 and p.horizon == 2.0

    def test_oscillator_matches_table(self):
        p = simulate(SimSpec(kind="oscillator", steps=4, amplitude=1.0, horizon=4.0))
        np.testing.assert_array_equal(p.times, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(p.values[:, 0], [0, 1, 0, 1, 0])
        assert p.mode == "step"

    def test_brownian_linear_mode_default(self):
        p = simulate(SimSpec(kind="brownian", steps=8, seed=3))
        assert p.mode == "linear" and p.n_events == 9

    def test_geometric_strictly_positive(self):
        p = simulate(SimSpec(kind="geometric-brownian", steps=256, seed=5,
                             volatility=2.0, x0=1.0))
        assert np.all(p.values > 0)

    def test_mode_override(self):
        p = simulate(SimSpec(kind="brownian", steps=8, seed=3, mode="step"))
        assert p.mode == "step"

    def test_invalid_parameters(self):
        with pytest.raises(ContractError):
            SimSpec(kind="brownian", steps=0)
        with pytest.raises(ContractError):
            SimSpec(kind="brownian", volatility=-1.0)
        with pytest.raises(ContractError):
            SimSpec(kind="nope")
        with pytest.raises(ContractError):
            SimSpec(kind="geometric-brownian", x0=0.0)


class TestMembershipInvariant:
    @pytest.mark.parametrize("psi", [
        PsiSpec("constant", (0.05,)),
        PsiSpec("affine", (0.01, 0.1)),
        PsiSpec("power", (0.05, 0.5)),
        PsiSpec("power", (0.1, 0.7)),
        PsiSpec("table", (0.0, 0.02, 1.0, 0.05, 5.0, 0.1)),
    ])
    def test_jump_paths_pass_their_psi(self, psi):
        for seed in range(6):
            spec = SimSpec(kind="jump-diffusion", steps=64, seed=seed,
                           jump_intensity=20.0, jump_mean=-0.2, jump_std=0.3,
                           volatility=0.5, psi=psi)
            p = simulate(spec)
            space = SampleSpaceSpec(psi=psi, dim=1, horizon=p.horizon)
            assert check_membership(p, space).ok, f"seed {seed}"

    def test_step_brownian_clipped(self):
        psi = PsiSpec("constant", (0.01,))
        p = simulate(SimSpec(kind="brownian", steps=128, seed=7, mode="step", psi=psi))
        assert check_membership(p, SampleSpaceSpec(psi=psi, dim=1)).ok

    def test_multidim_jump_paths_pass_membership(self):
        psi = PsiSpec("affine", (0.02, 0.05))
        for seed in range(4):
            spec = SimSpec(kind="jump-diffusion", steps=48, seed=seed, dim=3,
                           jump_intensity=10.0, jump_mean=-0.1, jump_std=0.2,
                           volatility=0.4, psi=psi)
            p = simulate(spec)
            assert p.dim == 3
            space = SampleSpaceSpec(psi=psi, dim=3, horizon=p.horizon)
            assert check_membership(p, space).ok

    def test_clipping_only_limits_downward_moves(self):
        psi = PsiSpec("constant", (0.0,))
        p = simulate(SimSpec(kind="brownian", steps=64, seed=11, mode="step", psi=psi))
        assert np.all(np.diff(p.values[:, 0]) >= 0)


class TestStatisticalSanity:
    def test_driftless_terminal_mean_near_zero(self):
        spec = SimSpec(kind="brownian", steps=64, seed=123, volatility=1.0)
        paths = ensemble(spec, 100)
        terminal = np.array([p.values[-1, 0] for p in paths])
        # terminal std is 1; CLT oracle with 4-sigma slack on the mean
        assert abs(terminal.mean()) < 4.0 / np.sqrt(len(paths))

    def test_martingale_increment_mean_rate(self):
        spec = SimSpec(kind="jump-diffusion", steps=32, seed=77, volatility=0.3,
                       jump_intensity=4.0, jump_mean=0.0, jump_std=0.2,
                       psi=PsiSpec("constant", (5.0,)))
        paths = ensemble(spec, 400)
        diffs = np.array([p.values[-1, 0] - p.values[0, 0] for p in paths])
        se = diffs.std(ddof=1) / np.sqrt(len(paths))
        assert abs(diffs.mean()) < 5 * se


class TestSpecRoundTrip:
    def test_json_round_trip(self, tmp_path):
        spec = SimSpec(kind="jump-diffusion", steps=10, seed=4, jump_intensity=2.0,
                       psi=PsiSpec("affine", (0.1, 0.2)), mode="step")
        f = tmp_path / "spec.json"
        write_simspec(spec, f)
        assert read_simspec(f) == spec

    @pytest.mark.parametrize("obj, key", [({"kind": "brownian", "bogus": 1}, "'bogus'"),
                                          ({"steps": 3}, "'kind'")])
    def test_unknown_or_missing_key_is_contract_error(self, tmp_path, obj, key):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(obj))
        with pytest.raises(ContractError, match=key):
            read_simspec(f)
