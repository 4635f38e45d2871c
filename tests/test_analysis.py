import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_density,
    random_state,
    random_two_block_resolution,
    random_unitary,
    straddle_state,
)
from zenosim.analysis import (
    ConvergenceCurve,
    DecayProtectionResult,
    coherence_block_norm,
    convergence_curve,
    decay_protection_sweep,
    observables,
    projective_convergence_curve,
    purity,
    subspace_probabilities,
)
from zenosim import engines
from zenosim.engines import (
    EvolutionRecord,
    evolve_continuous,
    evolve_kicked,
    evolve_zeno_limit,
)
from zenosim.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    InvalidState,
)
from zenosim.models import (
    four_level_continuous,
    four_level_kicked,
    simplified_kicked,
    three_level_projective,
)
from zenosim.spectral import ResolutionOfIdentity, pinch

RES3 = ResolutionOfIdentity.from_projectors(
    [np.diag([1.0, 1.0, 0.0]).astype(complex),
     np.diag([0.0, 0.0, 1.0]).astype(complex)], [1.0, 2.0])


class TestPointwiseObservables:
    def test_pure_sector_state(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert subspace_probabilities(rho, RES3) == pytest.approx([1.0, 0.0])

    def test_uniform_mixture(self):
        rho = np.eye(3, dtype=complex) / 3.0
        p = subspace_probabilities(rho, RES3)
        assert p == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    def test_purity_extremes(self):
        assert purity(np.diag([1.0, 0.0, 0.0]).astype(complex)) == pytest.approx(1.0)
        assert purity(np.eye(3) / 3.0) == pytest.approx(1.0 / 3.0)

    def test_straddle_coherence_is_half(self):
        psi = straddle_state(3)
        rho = np.outer(psi, psi.conj())
        assert coherence_block_norm(rho, RES3, 0, 1) == pytest.approx(0.5)
        assert coherence_block_norm(rho, RES3, 1, 0) == pytest.approx(0.5)

    def test_pinch_kills_coherence(self):
        psi = straddle_state(3)
        rho = pinch(np.outer(psi, psi.conj()), RES3)
        assert coherence_block_norm(rho, RES3, 0, 1) <= 1e-15

    def test_diagonal_block_is_not_a_coherence(self):
        rho = np.eye(3, dtype=complex) / 3.0
        with pytest.raises(InvalidParameter):
            coherence_block_norm(rho, RES3, 1, 1)
        with pytest.raises(IndexOutOfRange):
            coherence_block_norm(rho, RES3, 0, 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        res = random_two_block_resolution(rng, 4, 2)
        rho = random_density(rng, 4)
        assert sum(subspace_probabilities(rho, res)) == pytest.approx(1.0)


class TestObservableSeries:
    def test_zeno_limit_series(self):
        psi = straddle_state(3)
        rho0 = np.outer(psi, psi.conj())
        rec = evolve_zeno_limit(rho0, three_level_projective().H, RES3,
                                t=2.0, samples=9)
        series = observables(rec, RES3)
        assert series.subspace_probabilities.shape == (9, 2)
        assert np.ptp(series.subspace_probabilities, axis=0).max() <= 1e-12
        assert np.allclose(series.purity, 0.5, atol=1e-12)
        assert np.all(series.coherence_blocks[(0, 1)] <= 1e-12)
        assert np.allclose(series.leakage, 0.0, atol=1e-12)

    def test_vector_record_promoted(self):
        b = four_level_kicked()
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        rec = evolve_kicked(psi0, b.H, b.U_kick, t=1.0, n=16, samples=17)
        series = observables(rec, b.resolution())
        assert series.subspace_probabilities.shape == (17, 3)
        assert np.allclose(series.purity, 1.0, atol=1e-10)

    def test_decay_leakage_grows(self):
        from zenosim.models import decay_model
        b = decay_model(omega1=0.0, tau_z=1.0, gamma=0.1, coupling=0.0)
        psi0 = np.zeros(4, dtype=complex)
        psi0[1] = 1.0
        rec = evolve_continuous(psi0, b.H, b.H_c, 0.0, t=2.0, samples=5)
        res = b.resolution()
        series = observables(rec, res)
        assert series.leakage[0] == pytest.approx(0.0, abs=1e-12)
        assert series.leakage[-1] > 0.1
        assert np.all(np.diff(series.leakage) >= -1e-12)


def _random_resolution(rng, dim: int, nsectors: int) -> ResolutionOfIdentity:
    """Split the columns of a random unitary into nsectors nonempty blocks."""
    u = random_unitary(rng, dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), nsectors - 1, replace=False))
    blocks = np.split(u, cuts, axis=1)
    return ResolutionOfIdentity.from_projectors(
        [b @ b.conj().T for b in blocks], list(range(nsectors)))


def _per_sample_reference(states, res):
    """Observables computed sample by sample, with the plain formulas."""
    probs, purs, coh = [], [], {}
    for state in states:
        rho = np.outer(state, state.conj()) if state.ndim == 1 else state
        probs.append([np.trace(rho @ p).real for p in res.projectors])
        purs.append(np.trace(rho @ rho).real)
        for n in range(res.nsectors):
            for m in range(n + 1, res.nsectors):
                block = res.projectors[n] @ rho @ res.projectors[m]
                coh.setdefault((n, m), []).append(np.linalg.norm(block))
    return np.array(probs), np.array(purs), coh


class TestStackedObservables:
    @given(st.integers(0, 10_000), st.integers(1, 4),
           st.sampled_from(["vector", "density", "subnormalized"]),
           st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_sample_formulas(self, seed, nsectors, kind, samples):
        rng = np.random.default_rng(seed)
        dim = nsectors + int(rng.integers(0, 3))
        res = _random_resolution(rng, dim, nsectors)
        if kind == "density":
            states = [random_density(rng, dim) for _ in range(samples)]
        else:
            states = [random_state(rng, dim) for _ in range(samples)]
        if kind == "subnormalized":
            states = [psi * rng.uniform(0.1, 1.0) for psi in states]
        rec = EvolutionRecord(np.arange(samples, dtype=float), tuple(states))
        series = observables(rec, res)
        probs, purs, coh = _per_sample_reference(states, res)
        assert np.max(np.abs(series.subspace_probabilities - probs)) <= 1e-14
        assert np.max(np.abs(series.purity - purs)) <= 1e-14
        assert np.max(np.abs(series.leakage - (1.0 - probs.sum(axis=1)))) <= 1e-14
        assert sorted(series.coherence_blocks) == sorted(coh)
        for pair, values in coh.items():
            assert np.max(np.abs(series.coherence_blocks[pair] - values)) <= 1e-14
        # the single-state functions are the same kernel
        rho = states[-1] if kind == "density" else np.outer(states[-1], states[-1].conj())
        assert np.max(np.abs(np.array(subspace_probabilities(rho, res))
                             - series.subspace_probabilities[-1])) <= 1e-14

    def test_imaginary_residue_names_the_sector(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        bad = rho.copy()
        bad[2, 2] = 1e-3j
        rec = EvolutionRecord(np.arange(3.0), (rho, bad, bad))
        with pytest.raises(InvalidState, match=r"^p_2 has imaginary residue 1\.000e-03$"):
            observables(rec, RES3)
        with pytest.raises(InvalidState, match=r"^p_2 has imaginary residue"):
            subspace_probabilities(bad, RES3)

    def test_first_sample_with_a_residue_wins(self):
        # sample 0: real probabilities but tr(rho^2) = 0.5 + 0.02i
        skew = np.array([[0.5, 0.1, 0], [0.1j, 0.5, 0], [0, 0, 0]], dtype=complex)
        bad_p1 = np.diag([1.0 + 1e-3j, 0.0, 0.0])
        rec = EvolutionRecord(np.arange(2.0), (skew, bad_p1))
        with pytest.raises(InvalidState, match=r"^purity has imaginary residue 2\.000e-02$"):
            observables(rec, RES3)
        rec = EvolutionRecord(np.arange(2.0), (bad_p1, skew))
        with pytest.raises(InvalidState, match=r"^p_1 has imaginary residue"):
            observables(rec, RES3)

    def test_wrong_dimension(self):
        rho4 = np.eye(4, dtype=complex) / 4.0
        rec = EvolutionRecord(np.arange(2.0), (rho4, rho4))
        message = r"^rho is 4-dim, resolution is 3-dim$"
        with pytest.raises(DimensionMismatch, match=message):
            observables(rec, RES3)
        with pytest.raises(DimensionMismatch, match=message):
            subspace_probabilities(rho4, RES3)
        rec = EvolutionRecord(np.arange(2.0), (np.eye(3) / 3.0, rho4))
        with pytest.raises(DimensionMismatch, match=message):
            observables(rec, RES3)

    def test_non_square_state(self):
        rec = EvolutionRecord(np.arange(1.0), (np.ones((3, 2)),))
        with pytest.raises(DimensionMismatch, match=r"^rho must be square"):
            observables(rec, RES3)

    @pytest.mark.parametrize("kind", ["vector", "density"])
    def test_non_finite_state(self, kind):
        good = straddle_state(3)
        bad = good.copy()
        bad[0] = np.nan
        if kind == "density":
            good, bad = np.outer(good, good.conj()), np.outer(bad, bad.conj())
        rec = EvolutionRecord(np.arange(2.0), (good, bad))
        message = r"^rho contains non-finite entries$"
        with pytest.raises(InvalidParameter, match=message):
            observables(rec, RES3)
        with pytest.raises(InvalidParameter, match=message):
            coherence_block_norm(np.outer(bad, bad.conj()) if kind == "vector" else bad,
                                 RES3, 0, 1)

    def test_empty_record(self):
        series = observables(EvolutionRecord(np.array([]), ()), RES3)
        assert series.subspace_probabilities.shape == (0, 2)
        assert series.purity.shape == series.leakage.shape == (0,)
        assert series.coherence_blocks[(0, 1)].shape == (0,)

    def test_mixed_vectors_and_matrices(self):
        psi = straddle_state(3)
        rho = np.outer(psi, psi.conj())
        mixed = EvolutionRecord(np.arange(2.0), (psi, rho))
        same = EvolutionRecord(np.arange(2.0), (rho, rho))
        a, b = observables(mixed, RES3), observables(same, RES3)
        assert np.array_equal(a.subspace_probabilities, b.subspace_probabilities)
        assert np.array_equal(a.purity, b.purity)


class TestConvergenceCurve:
    def test_kicked_first_order(self):
        b = four_level_kicked()
        # the step-to-step ratio oscillates; judge the rate on the full sweep
        curve = convergence_curve(
            b, t=1.0, parameter_values=[64 * 2 ** k for k in range(7)])
        assert np.all(np.diff(curve.distances) < 0)
        assert 1.7 <= curve.doubling_factor <= 2.3
        assert -1.3 <= curve.fitted_rate <= -0.7
        assert not curve.exact
        assert curve.parameter_name == "N"

    def test_continuous_first_order(self):
        b = four_level_continuous()
        curve = convergence_curve(b, t=1.0, parameter_values=[64.0, 128.0, 256.0])
        assert np.all(np.diff(curve.distances) < 0)
        assert 1.7 <= curve.doubling_factor <= 2.3
        assert curve.parameter_name == "K"

    def test_commuting_model_is_exact(self):
        b = simplified_kicked(omega1=1.0, omega2=0.0)  # H already block diagonal
        curve = convergence_curve(b, t=1.0, parameter_values=[4, 8, 16])
        assert curve.exact
        assert np.isnan(curve.fitted_rate)
        assert np.isnan(curve.doubling_factor)

    def test_kicked_requires_integer_counts(self):
        with pytest.raises(InvalidParameter):
            convergence_curve(four_level_kicked(), 1.0, [4, 8.5, 16])

    def test_needs_three_ascending_values(self):
        with pytest.raises(InvalidParameter):
            convergence_curve(four_level_kicked(), 1.0, [4, 8])
        with pytest.raises(InvalidParameter):
            convergence_curve(four_level_kicked(), 1.0, [8, 4, 16])

    def test_projective_bundle_rejected(self):
        with pytest.raises(InvalidParameter):
            convergence_curve(three_level_projective(), 1.0, [4, 8, 16])

    def test_curve_field_validation(self):
        from zenosim.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            ConvergenceCurve("N", np.array([1.0, 2.0]), np.array([0.1]),
                             fitted_rate=-1.0)


class TestProjectiveConvergence:
    def test_first_order_in_measurement_count(self):
        b = three_level_projective()
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        curve = projective_convergence_curve(b, rho0, t=1.0,
                                             n_values=[16, 32, 64, 128])
        assert np.all(np.diff(curve.distances) < 0)
        assert 1.7 <= curve.doubling_factor <= 2.3

    def test_wrong_mechanism_rejected(self):
        rho0 = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(InvalidParameter):
            projective_convergence_curve(four_level_kicked(), rho0, 1.0,
                                         [4, 8, 16])


class TestDecayProtection:
    def test_reference_sweep(self):
        result = decay_protection_sweep(
            omega1=0.0, tau_z=1.0, gamma=0.1, omega_b=0.0,
            k_values=[10.0, 20.0, 40.0, 80.0, 160.0], t=5.0)
        expect = [0.98030, 0.99502, 0.99875, 0.99969, 0.99992]
        assert np.allclose(result.survivals, expect, atol=5e-5)
        assert result.protective_coupling == 10.0
        assert np.all(np.diff(result.survivals) > 0)

    def test_sweep_pays_one_eig_per_coupling(self, monkeypatch):
        # the shipped couplings stay far from the exceptional point at K ≈ 9.95,
        # so no sample needs the expm fallback, not even tau = 0
        calls = []
        monkeypatch.setattr(engines, "expm", lambda *args, **kw: calls.append(args))
        decay_protection_sweep(omega1=0.0, tau_z=1.0, gamma=0.1, omega_b=0.0,
                               k_values=[0.0, 10.0, 20.0, 40.0, 80.0, 160.0], t=5.0)
        assert calls == []

    def test_free_decay_baseline(self):
        result = decay_protection_sweep(
            omega1=0.0, tau_z=1.0, gamma=0.1, omega_b=0.0,
            k_values=[0.0], t=5.0, threshold=0.9)
        assert result.survivals[0] == pytest.approx(0.60882, abs=5e-5)
        assert result.protective_coupling is None

    def test_points_property(self):
        result = DecayProtectionResult(
            couplings=np.array([1.0, 2.0]), survivals=np.array([0.5, 0.9]),
            protective_coupling=2.0, threshold=0.9)
        assert result.points == [(1.0, 0.5), (2.0, 0.9)]

    def test_monotone_couplings_required(self):
        with pytest.raises(InvalidParameter):
            decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [10.0, 5.0], t=5.0)

    def test_strong_coupling_beats_weak(self):
        result = decay_protection_sweep(
            omega1=0.0, tau_z=1.0, gamma=0.1, omega_b=0.0,
            k_values=[0.0, 100.0], t=5.0)
        assert result.survivals[1] > result.survivals[0]
