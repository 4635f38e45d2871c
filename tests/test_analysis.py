import copy
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_state,
    random_density,
    random_state,
    random_two_block_resolution,
    random_unitary,
    straddle_state,
    uneven_resolution,
)
from zenosim.analysis import (
    EXACT_DISTANCE,
    IMAG_RESIDUE,
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
from zenosim import analysis, engines
from zenosim.engines import (
    EvolutionRecord,
    evolve_continuous,
    evolve_kicked,
    evolve_projective,
    evolve_zeno_limit,
    extracted_continuous_limit,
    extracted_kick_limit,
)
from zenosim.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    InvalidState,
)
from zenosim.linalg import dagger, opnorm, propagator
from zenosim.models import (
    decay_model,
    four_level_continuous,
    four_level_kicked,
    simplified_continuous,
    simplified_kicked,
    three_level_projective,
)
from zenosim.spectral import ResolutionOfIdentity, pinch

RES3 = ResolutionOfIdentity(
    [np.diag([1.0, 1.0, 0.0]).astype(complex),
     np.diag([0.0, 0.0, 1.0]).astype(complex)], [1.0, 2.0])
# a record's states go through the array gate as one stack: vectors mixed with matrices,
# or mixed sizes, are refused as numpy's ragged-array error
ONE_SHAPE = r"^states must be vectors or matrices of one shape, got tuple: "


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
        for sector in (0.5, 1.0, "0"):  # not sector indices, though 1.0 == 1
            with pytest.raises(IndexOutOfRange):
                coherence_block_norm(rho, RES3, sector, 0)

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


def test_dense_density_record_memory_peak():
    """Traced peak of a 2001-sample 4×4 density record and its observables.

    The former route, two batched d×d products per sample, peaked at 2,036,256
    bytes (tracemalloc, numpy 2.4, x86-64 Linux); the bound is 1.1× that.  A
    per-sample intermediate that grows, such as every coherence pair held in one
    array (another 1.5 MB here), fails here, not only in the benchmark's peak RSS.
    """
    bundle = four_level_kicked()
    res, rho = bundle.resolution(), random_density(np.random.default_rng(4), 4)

    def run():
        return observables(evolve_kicked(rho, bundle.H, bundle.U_kick, 1.0, 2000, 2001),
                           res)
    run()  # first-call allocations are not per sample
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2_036_256


def test_vector_record_memory_peak():
    """Traced peak of ``observables`` on a 2001-sample 4-level kicked vector record.

    Promoting the vectors to S projectors, with one (S, d²) product per
    coherence pair, peaked at 1,235,112 bytes (tracemalloc, numpy 2.4, x86-64
    Linux).  The sector amplitudes, one (S, k·d) array read from the record's
    kept stack, peak at 450,140; the bound is 1.1× that, so restacking the
    tuple (another (S, d) array) or promoting to densities fails here.
    """
    bundle = four_level_kicked()
    res, psi = bundle.resolution(), random_state(np.random.default_rng(4), 4)
    rec = evolve_kicked(psi, bundle.H, bundle.U_kick, 1.0, 2000, 2001)
    observables(rec, res)  # first-call allocations are not per sample
    tracemalloc.start()
    try:
        observables(rec, res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 450_140


def test_density_observables_memory_peak():
    """Traced peak of ``observables`` alone on a 2001-sample 3-sector 4-level density record.

    One (S, d²) × (d², d²) product with kron(P_n, P_mᵀ) per coherence pair peaked
    at 722,784 bytes (tracemalloc, numpy 2.4, x86-64 Linux).  One product in the
    sector basis for every pair peaks at 739,467; the bound is 1.1× that, so holding
    every pair in one array, or one full-size array per pair, fails here.
    """
    bundle = four_level_kicked()
    res, rho = bundle.resolution(), random_density(np.random.default_rng(4), 4)
    rec = evolve_kicked(rho, bundle.H, bundle.U_kick, 1.0, 2000, 2001)
    assert res.nsectors == 3 and len(rec) == 2001
    observables(rec, res)  # first-call allocations are not per sample
    tracemalloc.start()
    try:
        observables(rec, res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 739_467


def _random_resolution(rng, dim: int, nsectors: int) -> ResolutionOfIdentity:
    """Split the columns of a random unitary into nsectors nonempty blocks."""
    u = random_unitary(rng, dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), nsectors - 1, replace=False))
    blocks = np.split(u, cuts, axis=1)
    return ResolutionOfIdentity(
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

    @pytest.mark.parametrize("which", ["uneven-4-sector", "three-level-projective"])
    def test_single_coherence_is_the_series_kernel(self, which):
        rng = np.random.default_rng(23)
        if which == "uneven-4-sector":  # ranks 1, 3, 2, 1, no sector on the axes
            res = uneven_resolution(rng)
            assert res.ranks == (1, 3, 2, 1)
        else:
            res = three_level_projective().res
        rho = random_density(rng, res.dim)
        series = observables(EvolutionRecord(np.zeros(1), (rho,)), res)
        for (n, m), values in series.coherence_blocks.items():
            single = coherence_block_norm(rho, res, n, m)
            assert single == values[0]
            block = np.linalg.norm(res.projectors[n] @ rho @ res.projectors[m])
            assert abs(single - block) <= 1e-15

    def test_imaginary_residue_names_the_sector(self):
        rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
        bad = rho.copy()
        bad[2, 2] = 1e-3j
        rec = EvolutionRecord(np.arange(3.0), (rho, bad, bad))
        with pytest.raises(InvalidState, match=r"^p_2 has imaginary residue 1\.000e-03$"):
            observables(rec, RES3)
        with pytest.raises(InvalidState, match=r"^p_2 has imaginary residue"):
            subspace_probabilities(bad, RES3)

    def test_residue_bound_is_relative_above_one(self):
        # |p_1| = 5: the bound is IMAG_RESIDUE * 5, not IMAG_RESIDUE
        ok = np.diag([5.0 + 3.0 * IMAG_RESIDUE * 1j, 0.0, 0.0])
        assert subspace_probabilities(ok, RES3) == [5.0, 0.0]
        bad = np.diag([5.0 + 6.0 * IMAG_RESIDUE * 1j, 0.0, 0.0])
        with pytest.raises(InvalidState, match=r"^p_1 has imaginary residue 6\.000e-12$"):
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
        with pytest.raises(DimensionMismatch, match=ONE_SHAPE):
            EvolutionRecord(np.arange(2.0), (np.eye(3) / 3.0, rho4))  # mixed sizes

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
        # no engine makes a record without samples: the array gate refuses every empty input
        with pytest.raises(DimensionMismatch, match=r"^states must be .*, got an empty array$"):
            EvolutionRecord(np.array([]), ())

    def test_mixed_vectors_and_matrices(self):
        psi = straddle_state(3)
        rho = np.outer(psi, psi.conj())
        for states in ((psi, rho), (rho, psi)):  # a record keeps one stack
            with pytest.raises(DimensionMismatch, match=ONE_SHAPE):
                EvolutionRecord(np.arange(2.0), states)


def _assert_same_series(a, b):
    """Bitwise equal observable series."""
    for field in ("times", "subspace_probabilities", "purity", "leakage"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.coherence_blocks.keys() == b.coherence_blocks.keys()
    for pair, values in a.coherence_blocks.items():
        assert np.array_equal(values, b.coherence_blocks[pair]), pair


def _engine_records():
    """One record per engine route, with the resolution it is observed in."""
    rng = np.random.default_rng(19)
    kick, cont, proj = four_level_kicked(), four_level_continuous(), three_level_projective()
    decay = decay_model(omega1=0.0, tau_z=1.0, gamma=0.1, coupling=0.0)
    psi4, rho4, rho3 = random_state(rng, 4), random_density(rng, 4), random_density(rng, 3)
    return {
        "kicked-vector": (evolve_kicked(psi4, kick.H, kick.U_kick, 1.0, 64, 65),
                          kick.resolution()),
        "kicked-density": (evolve_kicked(rho4, kick.H, kick.U_kick, 1.0, 64, 65),
                           kick.resolution()),
        "continuous-vector": (evolve_continuous(psi4, cont.H, cont.H_c, 8.0, 1.0, 33),
                              cont.resolution()),
        "continuous-density": (evolve_continuous(rho4, cont.H, cont.H_c, 8.0, 1.0, 33),
                               cont.resolution()),
        "decay-vector": (evolve_continuous(basis_state(4, 1), decay.H, decay.H_c, 2.0,
                                           2.0, 33), decay.resolution()),
        "zeno-limit-density": (evolve_zeno_limit(rho3, proj.H, proj.res, 2.0, 33),
                               proj.res),
        "projective-density": (evolve_projective(rho3, proj.H, proj.res, 1.0, 32, 33),
                               proj.res),
    }


class TestEngineRecords:
    @pytest.mark.parametrize("name", sorted(_engine_records()))
    def test_kept_stack_matches_the_states(self, name):
        rec, res = _engine_records()[name]
        series = observables(rec, res)
        if rec.final_state.ndim == 2:  # densities: as if restacked from the tuple
            _assert_same_series(
                series, observables(EvolutionRecord(rec.times_or_steps, tuple(rec.states)), res))
            return
        probs, purs, coh = _per_sample_reference(rec.states, res)
        assert np.max(np.abs(series.subspace_probabilities - probs)) <= 1e-14
        assert np.max(np.abs(series.purity - purs)) <= 1e-14
        assert np.max(np.abs(series.leakage - (1.0 - probs.sum(axis=1)))) <= 1e-14
        assert sorted(series.coherence_blocks) == sorted(coh)
        for pair, values in coh.items():
            assert np.max(np.abs(series.coherence_blocks[pair] - values)) <= 1e-14
        if name == "decay-vector":
            assert series.leakage[-1] > 0.1

    @pytest.mark.parametrize("name", sorted(_engine_records()))
    def test_row_sums_are_bitwise_the_row_reductions(self, name):
        # Σ_n p_n feeds the leakage, and the purity of a state vector, of every
        # shipped series file: it must round as probs.sum(axis=1) does.  The row
        # sums are one BLAS product, so this holds for the BLAS kernel the
        # scenario hashes were recorded with (OpenBLAS 0.3.31, x86-64), as do
        # the engines' products; another kernel may sum in another order
        rec, res = _engine_records()[name]
        series = observables(rec, res)
        probs = series.subspace_probabilities
        assert res.nsectors in (2, 3)
        assert np.array_equal(series.leakage, 1.0 - probs.sum(axis=1))
        if rec.final_state.ndim == 1:
            assert np.array_equal(series.purity, probs.sum(axis=1) ** 2)

    @pytest.mark.parametrize("kind", ["vector", "density"])
    def test_replaced_record_follows_its_new_states(self, kind):
        bundle, rng = four_level_kicked(), np.random.default_rng(7)
        res = bundle.resolution()
        state = random_state(rng, 4) if kind == "vector" else random_density(rng, 4)
        rec = evolve_kicked(state, bundle.H, bundle.U_kick, 1.0, 64, 9)
        states = rec.states[:-1] + (rec.states[-1] * (1 + 1e-7),)
        perturbed = dataclasses.replace(rec, states=states)
        assert np.array_equal(perturbed.final_state, states[-1])
        series, before = observables(perturbed, res), observables(rec, res)
        _assert_same_series(series, observables(EvolutionRecord(rec.times_or_steps, states),
                                                res))
        scale = (1 + 1e-7) ** (2 if kind == "vector" else 1)
        assert np.allclose(series.subspace_probabilities[-1],
                           scale * before.subspace_probabilities[-1], rtol=1e-12, atol=0)
        assert np.max(np.abs(series.subspace_probabilities[-1]
                             - before.subspace_probabilities[-1])) > 1e-9

    def test_vector_stack_errors_keep_their_messages_and_order(self):
        bundle = four_level_kicked()
        rec = evolve_kicked(straddle_state(4), bundle.H, bundle.U_kick, 1.0, 8, 3)
        stack = np.array(rec.states)
        bad = stack.copy()
        bad[-1, 0] = np.nan
        for states in (stack, tuple(stack)):  # kept by the record, or restacked
            with pytest.raises(DimensionMismatch, match=r"^rho is 4-dim, resolution is 3-dim$"):
                observables(EvolutionRecord(rec.times_or_steps, states), RES3)
        for states in (bad, tuple(bad)):  # non-finite is reported before the dimension
            with pytest.raises(InvalidParameter, match=r"^rho contains non-finite entries$"):
                observables(EvolutionRecord(rec.times_or_steps, states), RES3)


def _kicked_records(seed):
    """A vector and a density record of four-level-kicked from a seeded start, and the
    resolution they are observed in."""
    rng = np.random.default_rng(seed)
    b, t = four_level_kicked(), rng.uniform(0.5, 2.0)
    records = {kind: evolve_kicked(state, b.H, b.U_kick, t, 64, 17) for kind, state in
               (("vector", random_state(rng, 4)), ("density", random_density(rng, 4)))}
    return records, b.resolution()


class TestObservablesCovariance:
    """``observables`` transforms as the physics says, within 64 d eps: one unitary Q on
    the states and the sectors changes no field, and a permutation of the sectors permutes
    p_n and the coherences and changes nothing else."""

    TOL = 64 * 4 * np.finfo(float).eps

    @pytest.mark.parametrize("kind", ["vector", "density"])
    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_states_and_sectors_keep_every_field(self, seed, kind):
        records, res = _kicked_records(seed)
        q = random_unitary(np.random.default_rng(100 + seed), 4)
        states = np.array(records[kind].states)
        moved = EvolutionRecord(records[kind].times_or_steps,
                                states @ q.T if kind == "vector" else q @ states @ dagger(q))
        moved_res = ResolutionOfIdentity([q @ p @ dagger(q) for p in res.projectors],
                                         res.labels)
        want, got = observables(records[kind], res), observables(moved, moved_res)
        for field in ("times", "subspace_probabilities", "purity", "leakage"):
            assert np.abs(getattr(got, field) - getattr(want, field)).max() <= self.TOL
        assert got.coherence_blocks.keys() == want.coherence_blocks.keys()
        for pair, values in want.coherence_blocks.items():
            assert np.abs(got.coherence_blocks[pair] - values).max() <= self.TOL

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    @pytest.mark.parametrize("kind", ["vector", "density"])
    def test_permuted_sectors_permute_probabilities_and_coherences(self, kind, perm):
        records, res = _kicked_records(7)
        permuted = ResolutionOfIdentity([res.projectors[i] for i in perm],
                                        [res.labels[i] for i in perm])
        want, got = observables(records[kind], res), observables(records[kind], permuted)
        assert np.abs(got.subspace_probabilities
                      - want.subspace_probabilities[:, perm]).max() <= self.TOL
        for (n, m), values in got.coherence_blocks.items():
            pair = tuple(sorted((perm[n], perm[m])))
            assert np.abs(values - want.coherence_blocks[pair]).max() <= self.TOL
        for field in ("times", "purity", "leakage"):
            assert np.abs(getattr(got, field) - getattr(want, field)).max() <= self.TOL


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

    def test_zero_last_distance_has_no_doubling_factor(self):
        # not exact, yet the sweep ends at distance 0: no finite factor per doubling
        curve = ConvergenceCurve("N", [1, 2, 4], [0.1, 0.05, 0.0])
        assert not curve.exact
        assert np.isnan(curve.doubling_factor)

    def test_kicked_requires_integer_counts(self):
        with pytest.raises(InvalidParameter):
            convergence_curve(four_level_kicked(), 1.0, [4, 8.5, 16])

    def test_engine_refuses_non_integer_count(self):
        b = three_level_projective()
        rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        for curve in (lambda ns: convergence_curve(four_level_kicked(), 1.0, ns),
                      lambda ns: projective_convergence_curve(b, rho0, 1.0, ns)):
            with pytest.raises(InvalidParameter, match="N must be a positive integer"):
                curve([4, 8.5, 16])

    @pytest.mark.parametrize("n", [np.inf, np.nan])
    def test_non_finite_count_refused(self, n):
        with pytest.raises(InvalidParameter, match="N must be a positive integer"):
            convergence_curve(four_level_kicked(), 1.0, [4, 8, n])

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_continuous_curve_matches_each_coupling(self, seed):
        # one stacked eigh for the sweep gives each K's extracted limit exactly
        rng = np.random.default_rng(seed)
        b = (four_level_continuous(*rng.uniform(0.2, 2.0, 2)) if seed % 2 else
             simplified_continuous(*rng.uniform(0.2, 2.0, 2), eta1=rng.uniform(-1, 0)))
        ks, t = np.sort(rng.uniform(0.0, 500.0, 9)), rng.uniform(0.2, 3.0)
        curve = convergence_curve(b, t, ks)
        u_z = propagator(b.zeno_hamiltonian(), t)
        per_k = [opnorm(extracted_continuous_limit(b.H, b.H_c, t, k) - u_z)
                 for k in ks.tolist()]
        np.testing.assert_array_equal(curve.distances, per_k)

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_kicked_curve_matches_each_count(self, seed):
        # one eigh of H for the sweep, one Cayley eig per cycle: each N exactly
        rng = np.random.default_rng(seed)
        # lambda1 = pi puts a rank-2 kick eigenvalue on -1, where the Cayley eig rotates
        lam1 = np.pi if seed % 2 else rng.uniform(-1.0, 1.0)
        b = (four_level_kicked(*rng.uniform(0.2, 2.0, 2), lambda1=lam1) if seed < 4 else
             simplified_kicked(*rng.uniform(0.2, 2.0, 2)))
        ns, t = np.unique(rng.integers(1, 5000, 9)), rng.uniform(0.2, 3.0)
        curve = convergence_curve(b, t, ns)
        u_z = propagator(b.zeno_hamiltonian(), t)
        per_n = [extracted_kick_limit(b.H, b.U_kick, t, n) for n in ns.tolist()]
        np.testing.assert_array_equal(extracted_kick_limit(b.H, b.U_kick, t, ns), per_n)
        np.testing.assert_array_equal(curve.distances, [opnorm(v - u_z) for v in per_n])

    @pytest.mark.parametrize("ks", [[-1.0, 1.0, 2.0], [1.0, 2.0, np.inf],
                                    [1.0, 2.0, np.nan]])
    def test_stacked_curve_checks_every_coupling(self, ks):
        with pytest.raises(InvalidParameter, match="K must be a finite real >= 0"):
            convergence_curve(four_level_continuous(), 1.0, ks)

    def test_needs_three_ascending_values(self):
        with pytest.raises(InvalidParameter):
            convergence_curve(four_level_kicked(), 1.0, [4, 8])
        with pytest.raises(InvalidParameter):
            convergence_curve(four_level_kicked(), 1.0, [8, 4, 16])
        # the engine refuses an infinite value before the sweep's order is compared
        for b, message in ((four_level_kicked(), "^N must be a positive integer"),
                           (four_level_continuous(), "^K must be a finite real >= 0")):
            with pytest.raises(InvalidParameter, match=message):
                convergence_curve(b, 1.0, [2, np.inf, np.inf])

    def test_projective_bundle_rejected(self):
        with pytest.raises(InvalidParameter):
            convergence_curve(three_level_projective(), 1.0, [4, 8, 16])

    def test_curve_field_validation(self):
        from zenosim.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            ConvergenceCurve("N", np.array([1.0, 2.0]), np.array([0.1]))
        # a NaN fails every comparison; two equal infinities are not increasing
        for values in ([0.0, np.nan, 1.0], [0.0, np.inf, np.inf]):
            with pytest.raises(InvalidParameter, match="strictly increasing"):
                ConvergenceCurve("N", np.array(values), np.array([0.3, 0.2, 0.1]))
        for values in ([-1.0, 1.0, 2.0], [1.0, 2.0, np.inf], [np.nan]):
            with pytest.raises(InvalidParameter,
                               match="^parameter_values must be finite and non-negative$"):
                ConvergenceCurve("K", np.array(values), np.array([0.3, 0.2, 0.1][:len(values)]))
        for distances in ([0.3, np.nan, 0.1], [0.3, -0.2, 0.1]):
            with pytest.raises(InvalidParameter,
                               match="^distances must be finite and non-negative$"):
                ConvergenceCurve("K", np.array([1.0, 2.0, 4.0]), np.array(distances))

    def test_int64_counts_float64_cannot_tell_apart(self):
        # 2**62 and 2**62 + 1 are one float64, so the order is compared in int64
        ns = [2**62, 2**62 + 1, 2**62 + 2]
        values = analysis._sweep_values(ns)
        assert values.dtype == np.int64 and values.tolist() == ns
        curve = ConvergenceCurve("N", values, np.array([0.3, 0.2, 0.1]))
        assert curve.parameter_values.tolist() == ns
        # one float64 abscissa determines no slope and no doubling: NaN, not a warning
        assert np.isnan(curve.fitted_rate) and np.isnan(curve.doubling_factor)
        with pytest.raises(InvalidParameter, match="^parameter values must be strictly"):
            analysis._sweep_values([2**62 + 1, 2**62, 2**62 + 2])

    @pytest.mark.parametrize("values, distances, exact, rate", [
        ([1.0, 2.0], [0.2, 0.1], False, -1.0),  # two points: both fitted
        ([2.0, 4.0, 8.0], [9.0, 0.2, 0.1], False, -1.0),  # three: the smallest dropped
        ([1.0, 2.0, 4.0, 8.0, 16.0], [7.0, 9.0, 0.4, 0.2, 0.1], False, -1.0),  # two dropped
        ([1.0, 2.0, 4.0], [0.2, 1e-300 * 2.0 ** 1000, 0.0], False, -1000.0),  # log floor
        ([1.0, 2.0, 4.0], [EXACT_DISTANCE, 0.0, 1e-11], True, np.nan),  # all at roundoff
        ([1.0], [0.5], False, np.nan),  # one point: nothing to fit
        ([0.0, 1.0], [0.2, 0.1], False, np.nan),  # p = 0 has no log: one point left
        ([0.0, 8.0, 16.0], [0.5, 0.2, 0.1], False, -1.0),  # fitted over 8 and 16
    ], ids=["two-points", "one-dropped", "two-dropped", "log-floor", "exact", "one-point",
            "zero-and-one", "zero-dropped"])
    def test_exact_and_rate_are_derived(self, values, distances, exact, rate):
        curve = ConvergenceCurve("N", np.array(values), np.array(distances))
        assert [f.name for f in dataclasses.fields(curve) if f.init] == [
            "parameter_name", "parameter_values", "distances"]
        assert curve.exact is exact
        if np.isnan(rate):
            assert np.isnan(curve.fitted_rate)
        else:
            assert curve.fitted_rate == pytest.approx(rate, rel=1e-12)


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

    def test_stacked_sweep_matches_each_coupling_across_the_ep(self, monkeypatch):
        # K crosses the exceptional point at sqrt(99); only the slice 1e-5 from
        # it has cond(V) > EIG_COND_LIMIT, and only it takes the expm fallback
        ep, t = np.sqrt(99.0), 5.0
        ks = np.concatenate([np.linspace(0.0, 9.9, 12), [ep - 1e-4, ep + 1e-5, ep + 1e-4],
                             np.linspace(10.0, 40.0, 12), [1e12]])
        b, psi0 = decay_model(0.0, 1.0, 0.1, 0.0), np.eye(4, dtype=complex)[1]
        calls, expm = [], engines.expm
        monkeypatch.setattr(engines, "expm", lambda a: calls.append(a) or expm(a))
        result = decay_protection_sweep(0.0, 1.0, 0.1, 0.0, ks, t)
        assert len(calls) == 1
        assert np.array_equal(calls[0], -1j * (b.H + (ep + 1e-5) * b.H_c) * t)
        monkeypatch.undo()
        # K = 1e12 makes H + K H_c Hermitian to HERMITICITY_TOL, but the decaying H
        # keeps every slice on the eig route
        per_k = [abs(evolve_continuous(psi0, b.H, b.H_c, k, t, samples=2)
                     .final_state[1]) ** 2 for k in ks.tolist()]
        np.testing.assert_array_equal(result.survivals, per_k)

    def test_decaying_h_keeps_every_coupling_off_the_hermitian_route(self, monkeypatch):
        # the relative asymmetry of H + K H_c falls like 1/K; H alone picks the route
        ks, t = [0.0, 10.0, 1e6, 1e12, 1e15], 5.0
        b, psi0 = decay_model(0.0, 1.0, 0.1, 0.0), np.eye(4, dtype=complex)[1]
        calls, hermitian_evolution = [], engines.hermitian_evolution
        monkeypatch.setattr(engines, "hermitian_evolution",
                            lambda h: calls.append(h) or hermitian_evolution(h))
        result = decay_protection_sweep(0.0, 1.0, 0.1, 0.0, ks, t)
        per_k = [abs(evolve_continuous(psi0, b.H, b.H_c, k, t, samples=2)
                     .final_state[1]) ** 2 for k in ks]
        assert calls == []
        np.testing.assert_array_equal(result.survivals, per_k)

    def test_sweep_refuses_an_overflowing_generator(self):
        # K = 2**128 is in the domain, but H + K H_c is not: the builder bounds the stack
        with pytest.raises(InvalidParameter,
                           match=r"^H \+ K H_c has Frobenius norm past 2\*\*128$"):
            decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [10.0, 2.0**128], t=5.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_sweep_matches_each_coupling(self, seed):
        rng = np.random.default_rng(seed)
        omega1, tau_z, gamma, omega_b = rng.uniform([0, 0.5, 0.05, -1], [1, 2, 1, 1])
        ks, t = np.sort(rng.uniform(0.0, 200.0, 40)), rng.uniform(0.5, 8.0)
        b, psi0 = decay_model(omega1, tau_z, gamma, 0.0, omega_b), np.eye(4, dtype=complex)[1]
        result = decay_protection_sweep(omega1, tau_z, gamma, omega_b, ks, t)
        per_k = [abs(evolve_continuous(psi0, b.H, b.H_c, k, t, samples=2)
                     .final_state[1]) ** 2 for k in ks.tolist()]
        np.testing.assert_array_equal(result.survivals, per_k)

    @pytest.mark.parametrize("k, t", [(np.inf, 5.0), (np.nan, 5.0), (20.0, 0.0),
                                      (20.0, np.inf)])
    def test_sweep_checks_every_coupling_and_t(self, k, t):
        with pytest.raises(InvalidParameter):
            decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [10.0, k], t)

    def test_free_decay_baseline(self):
        result = decay_protection_sweep(
            omega1=0.0, tau_z=1.0, gamma=0.1, omega_b=0.0,
            k_values=[0.0], t=5.0, threshold=0.9)
        assert result.survivals[0] == pytest.approx(0.60882, abs=5e-5)
        assert result.protective_coupling is None

    def test_empty_sweep_refused(self):
        with pytest.raises(InvalidParameter,
                           match="^K must be a number or a 1-D array, got an empty array$"):
            decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [], t=5.0)

    @pytest.mark.parametrize("survivals, protective", [
        ([0.5, 0.9, 0.8], 2.0), ([0.95, 0.5, 0.99], 1.0), ([0.5, 0.6, 0.7], None)],
        ids=["second", "first", "none"])
    def test_protective_coupling_is_derived(self, survivals, protective):
        result = DecayProtectionResult(np.array([1.0, 2.0, 3.0]), np.array(survivals), 0.9)
        assert [f.name for f in dataclasses.fields(result) if f.init] == [
            "couplings", "survivals", "threshold"]
        assert result.protective_coupling == protective

    @pytest.mark.parametrize("survivals, error, message", [
        ([0.5, 0.95], DimensionMismatch, "^coupling and survival lengths differ$"),
        ([], InvalidParameter, "^survivals must be a 1-D array of real numbers, got an empty "
                               "array$")], ids=["longer", "empty"])
    def test_one_survival_per_coupling(self, survivals, error, message):
        with pytest.raises(error, match=message):
            DecayProtectionResult(np.array([1.0]), np.array(survivals), 0.9)

    def test_points_property(self):
        result = DecayProtectionResult(
            couplings=np.array([1.0, 2.0]), survivals=np.array([0.5, 0.9]),
            threshold=0.9)
        assert result.points == [(1.0, 0.5), (2.0, 0.9)]

    def test_monotone_couplings_required(self):
        with pytest.raises(InvalidParameter):
            decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [10.0, 5.0], t=5.0)
        with pytest.raises(InvalidParameter, match="strictly increasing"):
            decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [1.0, 2.0, 2.0], t=5.0)
        with pytest.raises(InvalidParameter, match="^K must be a finite real"):  # each K first
            decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [1.0, np.inf, np.inf], t=5.0)

    def test_strong_coupling_beats_weak(self):
        result = decay_protection_sweep(
            omega1=0.0, tau_z=1.0, gamma=0.1, omega_b=0.0,
            k_values=[0.0, 100.0], t=5.0)
        assert result.survivals[1] > result.survivals[0]


_ARRAY_RECORDS = {
    "ResolutionOfIdentity": lambda: three_level_projective().res,
    "ModelBundle": three_level_projective,
    "EvolutionRecord": lambda: evolve_zeno_limit(np.eye(3) / 3.0, np.eye(3), RES3, 1.0, 3),
    "ObservableSeries": lambda: observables(
        evolve_zeno_limit(np.eye(3) / 3.0, np.eye(3), RES3, 1.0, 3), RES3),
    "ConvergenceCurve": lambda: ConvergenceCurve(
        "N", np.array([1.0, 2.0]), np.array([0.2, 0.1])),
    "DecayProtectionResult": lambda: DecayProtectionResult(
        np.array([1.0, 2.0]), np.array([0.5, 0.9]), 0.9),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_RECORDS))
def test_array_records_compare_by_identity(name):
    # arrays have no single truth value, so these records compare by identity
    x = _ARRAY_RECORDS[name]()
    assert x == x
    assert x != copy.copy(x)
    assert hash(x) == hash(x)
