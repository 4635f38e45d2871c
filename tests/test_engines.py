import copy
import dataclasses
import inspect
import itertools
import pickle
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_state,
    random_density,
    random_hermitian,
    random_state,
    random_two_block_resolution,
    random_unitary,
    straddle_state,
    uneven_resolution,
)
from reference import (_MP, _mp_lift, _mp_measured, _mp_power, _to_numpy,
                       projective_curve_distance)
from zenosim import engines, linalg
from zenosim.analysis import (
    coherence_block_norm,
    convergence_curve,
    decay_protection_sweep,
    observables,
    projective_convergence_curve,
    purity,
    subspace_probabilities,
)
from zenosim.engines import (
    EvolutionRecord,
    asymptotic_continuous_propagator,
    asymptotic_kicked_propagator,
    continuous_propagator,
    evolve_continuous,
    evolve_kicked,
    evolve_projective,
    evolve_zeno_limit,
    extracted_continuous_limit,
    extracted_kick_limit,
    kicked_propagator,
    projective_survival,
    zeno_propagators,
)
from zenosim.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    InvalidState,
    NonHermitianDensityEvolution,
    NotUnitary,
    ZenosimError,
)
from zenosim.linalg import dagger, frobenius, opnorm, propagator
from zenosim.models import (
    ModelBundle,
    decay_model,
    four_level_continuous,
    four_level_kicked,
    simplified_continuous,
    simplified_kicked,
    three_level_projective,
)
from zenosim.spectral import (
    ResolutionOfIdentity,
    pinch,
    projections_of_hermitian,
    projections_of_unitary,
    zeno_hamiltonian,
)

CHAIN = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
RES3 = ResolutionOfIdentity(
    [np.diag([1.0, 1.0, 0.0]).astype(complex),
     np.diag([0.0, 0.0, 1.0]).astype(complex)], [1.0, 2.0])


RES4 = ResolutionOfIdentity(
    [np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
     np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)], [1.0, 2.0])


def sector_probs(rho, res):
    return [float(np.trace(rho @ p).real) for p in res.projectors]


class TestEvolutionRecord:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            EvolutionRecord(np.array([0, 1]), (np.eye(2),))

    def test_nonincreasing_times(self):
        with pytest.raises(InvalidParameter):
            EvolutionRecord(np.array([0, 0]), (np.eye(2), np.eye(2)))
        # a NaN fails every comparison; two equal infinities are not increasing
        for times in ([0.0, np.nan, 1.0], [0.0, np.inf, np.inf]):
            with pytest.raises(InvalidParameter, match="strictly increasing"):
                EvolutionRecord(np.array(times), (np.eye(2),) * 3)

    def test_int64_steps_compared_exactly(self):
        # 2**62 + 1 rounds to 2**62 as a float64, so int64 steps are compared as int64
        rec = EvolutionRecord(np.array([2**62, 2**62 + 1]), (np.eye(2), np.eye(2)))
        assert len(rec) == 2

    def test_final_state_and_len(self):
        rec = EvolutionRecord(np.array([0, 1]), (np.zeros((2, 2)), np.eye(2)))
        assert len(rec) == 2
        assert np.array_equal(rec.final_state, np.eye(2))

    @staticmethod
    def _stacked():
        rho = random_density(np.random.default_rng(3), 3)
        stack = rho * np.arange(1, 6)[:, None, None]
        return EvolutionRecord(np.arange(5.0), stack), stack

    @staticmethod
    def _assert_rows(states, stack):
        assert type(states) is tuple and len(states) == len(stack)
        assert all(np.array_equal(s, row) and s.dtype == row.dtype
                   for s, row in zip(states, stack))

    def test_stack_backed_states_are_its_rows_built_once(self):
        rec, stack = self._stacked()
        assert rec.states is rec.states
        self._assert_rows(rec.states, stack)
        twin = EvolutionRecord(rec.times_or_steps, tuple(stack))
        fresh, _ = self._stacked()  # final_state and len before any read of states
        for r in (fresh, rec):
            assert len(r) == len(twin) == 5
            assert np.array_equal(r.final_state, twin.final_state)

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_stack_backed_record_copies_pickles_and_replaces(self, read_first):
        rec, stack = self._stacked()
        if read_first:
            rec.states
        assert repr(rec) == repr(EvolutionRecord(rec.times_or_steps, tuple(stack)))
        for other in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec)),
                      dataclasses.replace(rec, trace_corrections=((3, 1e-13),))):
            assert len(other) == 5
            self._assert_rows(other.states, stack)
            assert np.array_equal(other.final_state, stack[-1])
        states = rec.states[:-1] + (rec.states[-1] * 2.0,)
        replaced = dataclasses.replace(rec, states=states)
        self._assert_rows(replaced.states, np.array(states))  # stacked once, read as rows
        assert np.array_equal(replaced.final_state, states[-1])
        assert replaced.trace_corrections == rec.trace_corrections
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            rec.missing

    def test_read_record_pickles_and_copies_its_stack_alone(self):
        # the cached rows view the stack: a read record pickles to the unread size
        b = four_level_kicked()
        psi = random_state(np.random.default_rng(6), 4)
        rec = evolve_kicked(psi, b.H, b.U_kick, 1.0, 2000, samples=2001)
        unread = len(pickle.dumps(rec))
        rows = rec.states
        assert len(pickle.dumps(rec)) == unread < 2 * rec._stack.nbytes
        twin = copy.deepcopy(rec)
        assert twin._stack is not rec._stack
        assert all(np.shares_memory(row, twin._stack) for row in twin.states)
        back = pickle.loads(pickle.dumps(rec))
        assert all(np.array_equal(a, b) for a, b in zip(back.states, rows))
        assert rec.states is rows


@pytest.mark.parametrize("engine", ["evolve_zeno_limit", "evolve_kicked"])
def test_fresh_record_holds_nothing_per_sample_beyond_its_stack(engine):
    """Traced memory a just-returned record holds, less its stack and its times.

    A tuple of S row views built with every record held 24-29 kB at S = 201 and
    240-273 kB at S = 2001 (tracemalloc, numpy 2.4, x86-64 Linux); built on the
    first read of ``states``, it is not there, and under 1 kB remains at either S.
    """
    kicked, proj = four_level_kicked(), three_level_projective()
    psi = random_state(np.random.default_rng(6), 4)
    calls = {"evolve_zeno_limit": lambda s: evolve_zeno_limit(
                 np.eye(3) / 3.0, proj.H, proj.res, 1.0, samples=s),
             "evolve_kicked": lambda s: evolve_kicked(
                 psi, kicked.H, kicked.U_kick, 1.0, s - 1, samples=s)}
    for samples in (201, 2001):
        calls[engine](samples)  # first-call allocations are not per sample
        tracemalloc.start()
        try:
            rec = calls[engine](samples)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rec) == samples
        assert held - rec._stack.nbytes - rec.times_or_steps.nbytes <= 4096


class TestProjective:
    def test_preparatory_pinch_halves_purity(self):
        psi = straddle_state(3)
        rho0 = np.outer(psi, psi.conj())
        rec = evolve_projective(rho0, CHAIN, RES3, t=1.0, n=4)
        first = rec.states[0]
        assert abs(np.trace(first @ first).real - 0.5) <= 1e-14
        assert frobenius(first - pinch(rho0, RES3)) <= 1e-14

    def test_purity_never_increases(self):
        psi = straddle_state(3)
        rho0 = np.outer(psi, psi.conj())
        rec = evolve_projective(rho0, CHAIN, RES3, t=2.0, n=40, samples=41)
        pur = [np.trace(s @ s).real for s in rec.states]
        assert all(b <= a + 1e-12 for a, b in zip(pur, pur[1:]))

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        rho0 = random_density(rng, 3)
        rec = evolve_projective(rho0, CHAIN, RES3, t=1.0, n=100)
        assert all(abs(np.trace(s).real - 1.0) <= 1e-12 for s in rec.states)
        assert rec.trace_corrections == ()

    def test_long_run_renormalizes_trace(self):
        """The drift check fires at steps 10000 and 20000 and restores the trace."""
        bundle = three_level_projective(1.0, 1.0)
        psi0 = np.array([1.0, 1j, 1.0]) / np.sqrt(3.0)
        rec = evolve_projective(np.outer(psi0, psi0.conj()), bundle.H, bundle.res,
                                t=1.0, n=20_000)
        assert [k for k, _ in rec.trace_corrections] == [10_000, 20_000]
        assert all(engines.TRACE_DRIFT < drift < linalg.TRACE_TOL
                   for _, drift in rec.trace_corrections)
        assert abs(np.trace(rec.final_state).real - 1.0) <= engines.TRACE_DRIFT

    def test_stored_states_do_not_depend_on_the_sampling(self):
        """Each sampling of one run stores, bitwise, the every-step run's state at its steps
        and the same corrections; samples = 3 stores both renormalised rounds."""
        bundle = three_level_projective(1.0, 1.0)
        psi0 = np.array([1.0, 1j, 1.0]) / np.sqrt(3.0)
        rho0, n = np.outer(psi0, psi0.conj()), 20_000
        full = evolve_projective(rho0, bundle.H, bundle.res, t=1.0, n=n, samples=n + 1)
        every = np.asarray(full.states)
        assert [k for k, _ in full.trace_corrections] == [10_000, 20_000]
        for samples in (2, 3, 33):
            rec = evolve_projective(rho0, bundle.H, bundle.res, t=1.0, n=n, samples=samples)
            assert np.array_equal(np.asarray(rec.states),
                                  every[engines._checkpoints(n, samples)])
            assert rec.trace_corrections == full.trace_corrections
        assert engines._checkpoints(n, 3).tolist() == [0, 10_000, 20_000]
        assert all(abs(np.trace(every[k]).real - 1.0) <= engines.TRACE_DRIFT
                   for k in (10_000, 20_000))

    def test_approaches_zeno_limit(self):
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        exact = evolve_zeno_limit(rho0, CHAIN, RES3, t=1.0, samples=2).final_state
        d_small = frobenius(
            evolve_projective(rho0, CHAIN, RES3, 1.0, 16).final_state - exact)
        d_large = frobenius(
            evolve_projective(rho0, CHAIN, RES3, 1.0, 512).final_state - exact)
        assert d_large < d_small / 16  # O(1/N)
        assert d_large <= 1e-3

    def test_sector_probability_drift_scales(self):
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        devs = []
        for n in (10, 100):
            rec = evolve_projective(rho0, CHAIN, RES3, t=1.0, n=n)
            devs.append(abs(sector_probs(rec.final_state, RES3)[0] - 1.0))
        assert devs[1] < devs[0] / 5

    def test_sampling_grid(self):
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rec = evolve_projective(rho0, CHAIN, RES3, t=2.0, n=10, samples=11)
        assert rec.times_or_steps[0] == 0.0
        assert abs(rec.times_or_steps[-1] - 2.0) <= 1e-15
        assert len(rec) == 11

    def test_bad_args(self):
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvalidParameter):
            evolve_projective(rho0, CHAIN, RES3, t=-1.0, n=4)
        with pytest.raises(InvalidParameter):
            evolve_projective(rho0, CHAIN, RES3, t=1.0, n=0)
        with pytest.raises(DimensionMismatch):
            evolve_projective(np.eye(4) / 4, np.eye(4), RES3, t=1.0, n=4)


class TestKicked:
    def test_identity_kick_is_free_evolution(self):
        psi0 = basis_state(3, 0)
        rec = evolve_kicked(psi0, CHAIN, np.eye(3), t=1.3, n=7)
        expect = propagator(CHAIN, 1.3) @ psi0
        assert np.linalg.norm(rec.final_state - expect) <= 1e-12

    def test_single_step(self):
        rng = np.random.default_rng(5)
        uk = random_unitary(rng, 3)
        psi0 = basis_state(3, 1)
        rec = evolve_kicked(psi0, CHAIN, uk, t=0.9, n=1)
        expect = uk @ propagator(CHAIN, 0.9) @ psi0
        assert np.linalg.norm(rec.final_state - expect) <= 1e-13

    def test_integer_step_axis(self):
        psi0 = basis_state(3, 0)
        rec = evolve_kicked(psi0, CHAIN, np.eye(3), t=1.0, n=8, samples=9)
        assert list(rec.times_or_steps) == list(range(9))

    def test_checkpoints_match_rounded_linspace(self):
        # the steps np.unique(np.round(np.linspace(0, N, min(samples, N + 1)))) gave,
        # which every record was written with: 0..N while N + 1 <= samples, else
        # one linspace per N, all at once, where no step repeats
        for samples in range(2, 71):
            few, many = range(1, samples), np.arange(samples, 4097)
            ref = [np.arange(n + 1) for n in few]
            ref += list(np.round(np.linspace(0, many, samples)).astype(int).T)
            got = [engines._checkpoints(n, samples) for n in (*few, *many.tolist())]
            assert [len(g) for g in got] == [len(r) for r in ref]
            np.testing.assert_array_equal(np.concatenate(got), np.concatenate(ref))

    def test_checkpoints_exact_at_the_largest_step_count(self):
        # float steps round N up to 2.0**63, which overflowed the int cast
        n = 2**63 - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = evolve_kicked(basis_state(3, 0), CHAIN, np.eye(3), 1.0, n, 5)
            counts = {s: engines._checkpoints(n, s) for s in (2, 3, 7, 64, 1000)}
        counts[5] = rec.times_or_steps
        for samples, steps in counts.items():
            assert steps[0] == 0 and steps[-1] == n and len(steps) == samples
            for k, step in enumerate(steps.tolist()):  # nearest step; either at a tie
                assert abs(step - Fraction(k * n, samples - 1)) <= Fraction(1, 2)

    def test_density_purity_conserved(self):
        rng = np.random.default_rng(12)
        uk = random_unitary(rng, 3)
        rho0 = random_density(rng, 3)
        p0 = np.trace(rho0 @ rho0).real
        rec = evolve_kicked(rho0, CHAIN, uk, t=1.0, n=512)
        pN = np.trace(rec.final_state @ rec.final_state).real
        assert abs(pN - p0) <= 1e-10

    def test_matches_propagator_power(self):
        rng = np.random.default_rng(2)
        uk = random_unitary(rng, 3)
        psi0 = basis_state(3, 0)
        rec = evolve_kicked(psi0, CHAIN, uk, t=1.0, n=6)
        assert np.linalg.norm(
            rec.final_state - kicked_propagator(CHAIN, uk, 1.0, 6) @ psi0) <= 1e-13

    def test_rejects_nonunitary_kick(self):
        with pytest.raises(NotUnitary, match="U_kick has unitarity defect"):
            evolve_kicked(basis_state(3, 0), CHAIN, np.diag([1.0, 1.0, 2.0]),
                          t=1.0, n=2)

    @pytest.mark.parametrize("engine", [kicked_propagator, extracted_kick_limit])
    def test_kick_checks_keep_their_order(self, engine):
        # unitarity is checked before the dimensions agree
        with pytest.raises(NotUnitary, match="U_kick has unitarity defect"):
            engine(CHAIN, np.diag([1.0, 2.0]), 1.0, 2)
        with pytest.raises(DimensionMismatch, match="H and U_kick dimensions differ"):
            engine(CHAIN, np.eye(2), 1.0, 2)

    @pytest.mark.parametrize("n", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("engine", [kicked_propagator, extracted_kick_limit])
    def test_non_finite_step_count_refused(self, engine, n):
        with pytest.raises(InvalidParameter, match="N must be a positive integer"):
            engine(CHAIN, np.eye(3), 1.0, n)

    @pytest.mark.parametrize("engine", [
        kicked_propagator, extracted_kick_limit,
        lambda h, u, t, n: evolve_kicked(basis_state(3, 0), h, u, t, n)])
    def test_kick_engines_check_the_kick_once(self, monkeypatch, engine):
        names, require_unitary = [], linalg.require_unitary

        def counted(u, name="unitary"):
            names.append(name)
            return require_unitary(u, name)

        for module in (engines, linalg):
            monkeypatch.setattr(module, "require_unitary", counted)
        engine(CHAIN, np.diag([1.0, 1.0, -1j]), 1.0, 8)
        assert names == ["U_kick"]  # neither U_kick nor the kick cycle again

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_norm_conserved(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 3)
        uk = random_unitary(rng, 3)
        psi0 = random_state(rng, 3)
        rec = evolve_kicked(psi0, h, uk, t=1.0, n=20)
        assert abs(np.linalg.norm(rec.final_state) - 1.0) <= 1e-12


@pytest.mark.parametrize("lambda1, n", [
    *[pytest.param(0.0, n, id=f"{n}") for n in (1, 4096, 10**9)],
    *[pytest.param(np.pi, n, id=f"pi-{n}") for n in (1, 4096, 10**9)],
])
def test_kick_engine_matches_40_digit_oracle(lambda1, n):
    """Kick powers against a 40-digit power of the lifted step.

    Tolerance 64 d eps (1 + k) after k steps; N = 10**9 also shows that the
    cost no longer grows with N.  lambda1 = pi puts a rank-2 kick eigenvalue
    on -1 (to rounding), where I + U_kick is singular and ``unitary_eig``
    must rotate.
    """
    bundle = four_level_kicked(1.0, 1.0, lambda1, 1.0)
    t, dim = 1.0, 4
    psi0 = straddle_state(dim)
    uk = _mp_lift(bundle.U_kick)
    step = uk * _MP.expm(_mp_lift(-1j * bundle.H) * (_MP.mpf(t) / n))

    def tol(k):
        return 64 * dim * np.finfo(float).eps * (1 + k)

    vec = evolve_kicked(psi0, bundle.H, bundle.U_kick, t, n, samples=5)
    rho = evolve_kicked(np.outer(psi0, psi0.conj()), bundle.H, bundle.U_kick,
                        t, n, samples=5)
    for k, v, r in zip(vec.times_or_steps, vec.states, rho.states):
        ref = _mp_power(step, int(k)) * _mp_lift(psi0)
        assert np.abs(v - _to_numpy(ref)[:, 0]).max() <= tol(k)
        assert np.abs(r - _to_numpy(ref * ref.H)).max() <= tol(k)
    step_n = _mp_power(step, n)
    assert np.abs(kicked_propagator(bundle.H, bundle.U_kick, t, n)
                  - _to_numpy(step_n)).max() <= tol(n)
    assert np.abs(extracted_kick_limit(bundle.H, bundle.U_kick, t, n)
                  - _to_numpy(_mp_power(uk.H, n) * step_n)).max() <= tol(n)


@pytest.mark.parametrize("t", [0.5, 20.0, 1e3])
def test_propagator_matches_40_digit_oracle(t):
    """exp(-i h t) against a 40-digit exponential; tolerance 64 d eps (1 + ||h||_F t)."""
    h, dim = random_hermitian(np.random.default_rng(5), 4), 4
    ref = _MP.expm(_mp_lift(-1j * h) * _MP.mpf(t))
    tol = 64 * dim * np.finfo(float).eps * (1 + frobenius(h) * t)
    assert np.abs(propagator(h, t) - _to_numpy(ref)).max() <= tol


@pytest.mark.parametrize("n, rotated", [(n, r) for r in (False, True) for n in (1, 4096, 2**20)],
                         ids=[f"{'rotated-' * r}{n}" for r in (0, 1) for n in (1, 4096, 2**20)])
def test_projective_survival_matches_40_digit_oracle(n, rotated):
    """||[P U(t/N)]^N psi0||² against a 40-digit power; tolerance 64 d eps (1 + N).

    The rotated resolution turns a rank-2 and a rank-1 sector by a seeded random
    unitary, so the sector block is taken on general basis columns.
    """
    bundle = three_level_projective(1.0, 1.0)
    res = (random_two_block_resolution(np.random.default_rng(11), 3, 2) if rotated
           else bundle.res)
    t, dim = 1.0, 3
    psi0 = straddle_state(dim)
    factor = (_mp_lift(res.projector(0))
              * _MP.expm(_mp_lift(-1j * bundle.H) * (_MP.mpf(t) / n)))
    ref = float(sum(abs(z) ** 2 for z in _mp_power(factor, n) * _mp_lift(psi0)))
    tol = 64 * dim * np.finfo(float).eps * (1 + n)
    for state in (psi0, np.outer(psi0, psi0.conj())):
        assert abs(projective_survival(state, bundle.H, res, 0, t, n) - ref) <= tol


@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
@pytest.mark.parametrize("n", [1, 4096])
def test_projective_engine_matches_40_digit_oracle(n, rotated):
    """Every checkpoint against a 40-digit power of the lifted round pinch ∘ U(t/N).

    With row-major vec, one round is sum_n (P_n U) ⊗ (U† P_n)ᵀ; tolerance
    64 d eps (1 + k) after k rounds.  The rotated resolution, a rank-2 and a
    rank-1 sector turned by a seeded random unitary, has no zero entries, so
    the pinching map is exercised on general projectors.
    """
    bundle = three_level_projective(1.0, 1.0)
    res = (random_two_block_resolution(np.random.default_rng(11), 3, 2) if rotated
           else bundle.res)
    t, dim = 1.0, 3
    psi0 = straddle_state(dim)
    rho0 = np.outer(psi0, psi0.conj())
    _, vec0, step = _mp_measured(bundle.H, res.projectors, rho0, t, n)

    rec = evolve_projective(rho0, bundle.H, res, t, n, samples=5)
    assert len(rec) == min(5, n + 1)
    for time, state in zip(rec.times_or_steps, rec.states):
        k = int(round(time * n / t))
        ref = _to_numpy(_mp_power(step, k) * vec0).reshape(dim, dim)
        assert np.abs(state - ref).max() <= 64 * dim * np.finfo(float).eps * (1 + k)


@pytest.mark.parametrize("n", [3, 16, 1000, 4096, 2**20, 2**30])
def test_projective_curve_matches_40_digit_oracle(n):
    """Each curve distance against a 40-digit one; tolerance 64 d eps (1 + N).  N = 3 and
    1000 are not powers of two, so the powers multiply in more than the squarings.

    The oracle, ``reference.projective_curve_distance``, powers the lifted round of
    ``test_projective_engine_matches_40_digit_oracle`` and takes the distance to
    U_Z pinch(rho0) U_Z†, with U_Z = exp(-i H_Z t) to 40 digits as well.
    """
    bundle = three_level_projective(1.0, 1.0)
    t, dim = 1.0, 3
    psi0 = straddle_state(dim)
    rho0 = np.outer(psi0, psi0.conj())
    ref = projective_curve_distance(bundle.H, bundle.res.projectors, rho0, t, n)
    # the curve needs three values; the oracle checks the one at n
    curve = projective_convergence_curve(bundle, rho0, t, [n, 2 * n, 4 * n])
    assert abs(curve.distances[0] - float(ref)) <= 64 * dim * np.finfo(float).eps * (1 + n)


@pytest.mark.parametrize("seed", range(4))
def test_measured_finals_match_the_step_loop(seed):
    """The powered finals against ``evolve_projective``'s last state, N by N.

    A rank-2 + rank-1 resolution turned by a seeded random unitary, a random H
    and a random mixed state; the two routes may differ by their roundoff,
    64 d eps (1 + N) each.
    """
    rng = np.random.default_rng(seed)
    res = random_two_block_resolution(rng, 3, 2)
    h, rho0 = random_hermitian(rng, 3), random_density(rng, 3)
    ns, t = [1, 2, 3, 7, 64, 1000, 1023], rng.uniform(0.2, 3.0)
    finals = engines._measured_finals(rho0, h, res, t, ns)
    assert finals.shape == (len(ns), 3, 3)
    for n, final in zip(ns, finals):
        loop = evolve_projective(rho0, h, res, t, n, samples=2).final_state
        assert np.abs(final - loop).max() <= 2 * 64 * 3 * np.finfo(float).eps * (1 + n)


# the decay scenario's model; H + K H_c has an exceptional point (EP), two
# coalescing eigenvalues, at K = sqrt(99) ≈ 9.94987, near 1/(tau_Z² gamma) = 10
DECAY = decay_model(0.0, 1.0, 0.1, 0.0)


@pytest.fixture
def expm_calls(monkeypatch):
    """Count the engines' calls to expm, the fallback of the decay route."""
    calls, expm = [], engines.expm

    def counted(*args, **kwargs):
        calls.append(args)
        return expm(*args, **kwargs)

    monkeypatch.setattr(engines, "expm", counted)
    return calls


def _assert_matches_exponential(rec, h_k, psi0):
    """Every sample against exp(-i h_k tau) psi0 at 40 digits.

    Tolerance 64 d eps (1 + ||h_k||_F t), the kick oracle's form with the
    phase ||h_k|| t in place of the step count.
    """
    dim, t = len(psi0), rec.times_or_steps[-1]
    tol = 64 * dim * np.finfo(float).eps * (1 + frobenius(h_k) * t)
    gen = _mp_lift(-1j * h_k)
    for tau, psi in zip(rec.times_or_steps, rec.states):
        ref = _MP.expm(gen * _MP.mpf(tau)) * _mp_lift(psi0)
        assert np.abs(psi - _to_numpy(ref)[:, 0]).max() <= tol


@pytest.mark.parametrize("coupling, fallback", [
    (0.0, False), (10.0, False), (40.0, False), (160.0, False),
    (9.95, False),      # 1.3e-4 from the EP: cond(V) ≈ 400, still one eig
    (9.949874, True),   # cond(V) ≈ 7e3 > EIG_COND_LIMIT: one expm per sample
])
def test_decay_route_matches_40_digit_oracle(coupling, fallback, expm_calls):
    """Both decay routes, one eig or the expm fallback, at every sample."""
    psi0, samples = basis_state(4, 1), 6
    rec = evolve_continuous(psi0, DECAY.H, DECAY.H_c, coupling, t=5.0,
                            samples=samples)
    _assert_matches_exponential(rec, DECAY.H + coupling * DECAY.H_c, psi0)
    # the fallback samples tau = 0 as the input state, without an expm
    assert len(expm_calls) == (samples - 1 if fallback else 0)


def _near_jordan(w, c, g):
    """i [[-1 - i w, c], [0, -1 - i w - g]]: level energy w, decay 1 and a splitting g."""
    return 1j * np.array([[-1 - 1j * w, c], [0, -1 - 1j * w - g]])


@pytest.mark.parametrize("h, t, samples", [
    (np.array([[-1j, 1], [0, -1j]]), 3.0, 7),
    (_near_jordan(10, 1, 1e-4), 1.0, 6),
    (_near_jordan(5, 1, 1e-5), 2.0, 6),
    (_near_jordan(10, 1, 1e-6), 5.0, 6),
    (_near_jordan(10, 0.5, 1e-7), 3.0, 6),
], ids=["jordan", "w10-c1-g1e-4", "w5-c1-g1e-5", "w10-c1-g1e-6", "w10-c0.5-g1e-7"])
def test_defective_generator_takes_the_expm_fallback(h, t, samples, expm_calls):
    """A Jordan block has one eigenvector, and eigenvalues g apart leave eig's V
    within about g / c of singular: the guard refuses both, so expm runs."""
    psi0 = basis_state(2, 1)
    assert not linalg.nonhermitian_evolution(h[None]).ok[0]
    rec = evolve_continuous(psi0, h, np.zeros((2, 2)), 0.0, t=t, samples=samples)
    assert len(expm_calls) == samples - 1
    assert np.array_equal(rec.states[0], psi0)
    _assert_matches_exponential(rec, h, psi0)


class TestContinuous:
    def test_zero_coupling_is_free_evolution(self):
        psi0 = basis_state(3, 0)
        rec = evolve_continuous(psi0, CHAIN, np.zeros((3, 3)), 0.0, t=1.3)
        expect = propagator(CHAIN, 1.3) @ psi0
        assert np.linalg.norm(rec.final_state - expect) <= 1e-12

    def test_pure_coupling_rabi(self):
        # H = 0: the coupling drives c <-> M at angular rate K
        h_c = np.zeros((4, 4), dtype=complex)
        h_c[2, 3] = h_c[3, 2] = 1.0
        psi0 = basis_state(4, 2)
        k, t = 2.0, 0.7
        rec = evolve_continuous(psi0, np.zeros((4, 4)), h_c, k, t=t)
        assert abs(abs(rec.final_state[2]) ** 2 - np.cos(k * t) ** 2) <= 1e-12

    def test_matches_propagator(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 3)
        h_c = random_hermitian(rng, 3)
        psi0 = basis_state(3, 1)
        rec = evolve_continuous(psi0, h, h_c, 1.7, t=0.8)
        expect = continuous_propagator(h, h_c, 1.7, 0.8) @ psi0
        assert np.linalg.norm(rec.final_state - expect) <= 1e-12

    def test_density_purity_conserved(self):
        rng = np.random.default_rng(4)
        rho0 = random_density(rng, 3)
        h_c = np.diag([0.0, 0.0, 1.0]).astype(complex)
        p0 = np.trace(rho0 @ rho0).real
        rec = evolve_continuous(rho0, CHAIN, h_c, 3.0, t=1.0)
        assert abs(np.trace(rec.final_state @ rec.final_state).real - p0) <= 1e-12

    def test_nonhermitian_rejects_density(self):
        h = np.array([[0, 1], [1, -0.5j]], dtype=complex)
        with pytest.raises(NonHermitianDensityEvolution):
            evolve_continuous(np.diag([1.0, 0.0]), h, np.zeros((2, 2)), 0.0, t=1.0)

    def test_nonhermitian_decay_shrinks_norm(self):
        h = np.array([[0, 1], [1, -0.5j]], dtype=complex)
        rec = evolve_continuous(basis_state(2, 0), h, np.zeros((2, 2)), 0.0, t=2.0)
        norms = [np.linalg.norm(s) for s in rec.states]
        assert norms[-1] < 1.0
        assert all(n <= 1.0 + 1e-8 for n in norms)

    AMPLIFIED = ("^non-Hermitian generator amplified the state to norm {:.6f}; "
                 "only decaying models are supported$")

    def test_amplifying_generator_rejected(self):
        h = 0.5j * np.eye(2)  # gain, not decay
        with pytest.raises(InvalidState, match=self.AMPLIFIED.format(np.exp(0.5))):
            evolve_continuous(basis_state(2, 0), h, np.zeros((2, 2)), 0.0,
                              t=1.0, samples=2)

    def test_amplifying_defective_generator_rejected(self, expm_calls):
        # the expm fallback refuses gain alike, naming the first norm that grew
        h = np.array([[0.5j, 1], [0, 0.5j]])
        norm = np.exp(0.25) * np.sqrt(1.25)  # |psi(1/2)| from |b>
        with pytest.raises(InvalidState, match=self.AMPLIFIED.format(norm)):
            evolve_continuous(basis_state(2, 1), h, np.zeros((2, 2)), 0.0,
                              t=1.0, samples=3)
        assert len(expm_calls) == 2

    def test_negative_coupling_rejected(self):
        with pytest.raises(InvalidParameter):
            evolve_continuous(basis_state(3, 0), CHAIN, np.zeros((3, 3)),
                              -1.0, t=1.0)

    @pytest.mark.parametrize("call", [
        lambda hc: evolve_continuous(basis_state(3, 0), CHAIN, hc, 2.0, 1.0),
        lambda hc: continuous_propagator(CHAIN, hc, 2.0, 1.0),
        lambda hc: extracted_continuous_limit(CHAIN, hc, 1.0, 2.0),
    ], ids=["evolve_continuous", "continuous_propagator", "extracted_continuous_limit"])
    def test_coupling_dimension_must_match_h(self, call):
        with pytest.raises(DimensionMismatch, match="^H and H_c dimensions differ$"):
            call(np.eye(4))

    @pytest.mark.parametrize("call", [
        lambda b, k: evolve_continuous(basis_state(3, 0), b.H, b.H_c, k, 1.0),
        lambda b, k: continuous_propagator(b.H, b.H_c, [1.0, k], 1.0),
        lambda b, k: extracted_continuous_limit(b.H, b.H_c, 1.0, k),
    ], ids=["evolve_continuous", "continuous_propagator", "extracted_continuous_limit"])
    def test_overflowing_generator_refused_not_warned(self, call):
        # K*eta2 = 1e309 would overflow H + K*H_c: eta2 = 1e255 and K = 1e54 are each
        # refused where they enter; at the domain's edge H + K*H_c passes the matrix
        # bound 2**128, and its builder refuses it: refused, not warned (pyproject)
        with pytest.raises(InvalidParameter, match="^eta2 must be finite"):
            simplified_continuous(eta2=1e255)
        with pytest.raises(InvalidParameter, match="^K must be a finite real >= 0"):
            call(simplified_continuous(), 1e54)
        with pytest.raises(InvalidParameter,
                           match=r"^H \+ K H_c has Frobenius norm past 2\*\*128$"):
            call(simplified_continuous(eta2=2.0), 2.0**128)

    @pytest.mark.parametrize("coupling", [160.0, 1e12, 2.0**100])
    def test_decay_model_refuses_a_density_at_every_coupling(self, coupling):
        # K H_c shrinks the relative asymmetry of H + K H_c like 1/K, but H decides
        rho = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(NonHermitianDensityEvolution):
            evolve_continuous(rho, DECAY.H, DECAY.H_c, coupling, t=5.0)

    def test_coupling_that_cancels_h_keeps_the_hermitian_route(self):
        # H passes the Hermitian test (defect 7.1e-11), but K H_c cancels its large
        # entry, so H + K H_c alone would not: both engines stay unitary all the same
        h = np.diag([1000.0, 0.0, 0.0]).astype(complex)
        h[0, 1], h[1, 0] = 1.0, 1.0 + 5e-8
        assert 7e-11 < linalg.hermiticity_defect(h) <= linalg.HERMITICITY_TOL
        h_c = np.diag([-1.0, 0.0, 0.0]).astype(complex)
        rec = evolve_continuous(basis_state(3, 1), h, h_c, 1000.0, t=1.0)
        assert np.abs(np.linalg.norm(rec.states, axis=1) - 1.0).max() <= 1e-14
        u = continuous_propagator(h, h_c, 1000.0, 1.0)
        assert np.abs(dagger(u) @ u - np.eye(3)).max() <= 1e-14
        assert np.abs(u @ basis_state(3, 1) - rec.final_state).max() <= 1e-14

    def test_propagator_refuses_negative_coupling_or_time(self):
        b = four_level_continuous()
        with pytest.raises(InvalidParameter, match="K must be"):
            continuous_propagator(b.H, b.H_c, -3.0, 1.0)
        with pytest.raises(InvalidParameter, match="t must be"):
            continuous_propagator(b.H, b.H_c, 2.0, -1.0)

    def test_evolve_refuses_an_array_of_couplings(self):
        b = four_level_continuous()
        with pytest.raises(InvalidParameter, match=r"^K must be a number, got shape \(2,\)$"):
            evolve_continuous(straddle_state(4), b.H, b.H_c, np.array([1.0, 2.0]), 1.0, 5)

    @pytest.mark.parametrize("call", [
        lambda b, k: continuous_propagator(b.H, b.H_c, k, 1.0),
        lambda b, k: extracted_continuous_limit(b.H, b.H_c, 1.0, k),
    ], ids=["continuous_propagator", "extracted_continuous_limit"])
    def test_propagators_refuse_a_2d_coupling_array(self, call):
        b = four_level_continuous()
        with pytest.raises(InvalidParameter,
                           match=r"^K must be a number or a 1-D array, got shape \(2, 2\)$"):
            call(b, np.ones((2, 2)))
        assert call(b, np.array([1.0, 2.0])).shape == (2, 4, 4)


class TestContinuousCovariance:
    """A change of basis Q: rotating H, H_c and the state rotates every continuous result,
    within 64 d eps (1 + (||H|| + K ||H_c||) t), and leaves its route unchanged."""

    @staticmethod
    def _routes(monkeypatch):
        """The decompositions the engines call, in order, by name."""
        routes = []
        for name in ("hermitian_evolution", "nonhermitian_evolution", "expm", "propagator"):
            def spy(*args, _name=name, _call=getattr(engines, name)):
                routes.append(_name)
                return _call(*args)
            monkeypatch.setattr(engines, name, spy)
        return routes

    @pytest.mark.parametrize("coupling", [0.0, 1.0, 64.0, 4096.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_inputs_give_rotated_results(self, monkeypatch, seed, coupling):
        rng = np.random.default_rng(seed)
        q, t = random_unitary(rng, 4), rng.uniform(0.5, 2.0)
        routes = self._routes(monkeypatch)
        hermitian, psi0 = four_level_continuous(), straddle_state(4)

        def rotated(x):
            return q @ x @ dagger(q)

        cases = [  # (engine call, Q's action on its result, start state, model)
            (lambda h, h_c, psi: evolve_continuous(psi, h, h_c, coupling, t, samples=9)
             .states, lambda x: np.asarray(x) @ q.T, psi0, hermitian),
            (lambda h, h_c, psi: evolve_continuous(psi, h, h_c, coupling, t, samples=9)
             .states, lambda x: np.asarray(x) @ q.T, basis_state(4, 1), DECAY),
            (lambda h, h_c, _: continuous_propagator(h, h_c, coupling, t),
             rotated, None, hermitian),
            (lambda h, h_c, _: extracted_continuous_limit(h, h_c, t, coupling),
             rotated, None, hermitian),
        ]
        for call, act, psi, b in cases:
            tol = 64 * 4 * np.finfo(float).eps * (
                1 + (frobenius(b.H) + coupling * frobenius(b.H_c)) * t)
            routes.clear()
            want = act(call(b.H, b.H_c, psi))
            route = list(routes)
            routes.clear()
            got = call(rotated(b.H), rotated(b.H_c), None if psi is None else q @ psi)
            assert routes == route != []
            assert np.abs(np.asarray(got) - want).max() <= tol


class TestKickedCovariance:
    """A change of basis Q: rotating H, U_kick and the state rotates every kicked result,
    and leaves each convergence distance unchanged, within 64 d eps (1 + N)."""

    @staticmethod
    def _rotation(seed):
        rng = np.random.default_rng(seed)
        q = random_unitary(rng, 4)
        return q, rng.uniform(0.5, 2.0), lambda x: q @ x @ dagger(q)

    @pytest.mark.parametrize("n", [1, 64, 4096])
    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_inputs_give_rotated_results(self, seed, n):
        q, t, rotated = self._rotation(seed)
        b, psi = four_level_kicked(), straddle_state(4)
        rho = np.outer(psi, psi.conj())
        cases = [  # (engine call, Q's action on its result, start state)
            (lambda h, u, s: evolve_kicked(s, h, u, t, n, samples=9).states,
             lambda x: np.asarray(x) @ q.T, psi),
            (lambda h, u, s: evolve_kicked(s, h, u, t, n, samples=9).states,
             lambda x: [rotated(r) for r in x], rho),
            (lambda h, u, _: kicked_propagator(h, u, t, n), rotated, None),
            (lambda h, u, _: extracted_kick_limit(h, u, t, n), rotated, None),
        ]
        tol = 64 * 4 * np.finfo(float).eps * (1 + n)
        for call, act, state in cases:
            want = act(call(b.H, b.U_kick, state))
            got = call(rotated(b.H), rotated(b.U_kick),
                       None if state is None else q @ state if state.ndim == 1
                       else rotated(state))
            assert np.abs(np.asarray(got) - np.asarray(want)).max() <= tol

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_bundle_keeps_its_convergence_distances(self, seed):
        q, t, rotated = self._rotation(seed)
        b, ns = four_level_kicked(), 2 ** np.arange(6, 13)
        moved = ModelBundle(H=rotated(b.H), U_kick=rotated(b.U_kick))
        want = convergence_curve(b, t, ns).distances
        got = convergence_curve(moved, t, ns).distances
        assert np.all(np.abs(got - want) <= 64 * 4 * np.finfo(float).eps * (1 + ns))


class TestProjectiveCovariance:
    """A change of basis Q: rotating H, each projector and the state rotates every measured
    state, and leaves each survival and convergence distance unchanged, within
    64 d eps (1 + N)."""

    @staticmethod
    def _rotation(seed):
        rng = np.random.default_rng(seed)
        q = random_unitary(rng, 3)

        def rotated(x):
            return q @ x @ dagger(q)

        b = three_level_projective()
        moved = ModelBundle(H=rotated(b.H), res=ResolutionOfIdentity(
            [rotated(p) for p in b.res.projectors], b.res.labels))
        return q, rng.uniform(0.5, 2.0), rotated, b, moved

    @pytest.mark.parametrize("n", [1, 64, 4096])
    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_inputs_give_rotated_results(self, seed, n):
        q, t, rotated, b, moved = self._rotation(seed)
        psi = straddle_state(3)
        rho = np.outer(psi, psi.conj())
        tol = 64 * 3 * np.finfo(float).eps * (1 + n)
        want = [rotated(r) for r in evolve_projective(rho, b.H, b.res, t, n, samples=9).states]
        got = evolve_projective(rotated(rho), moved.H, moved.res, t, n, samples=9).states
        assert np.abs(np.asarray(got) - np.asarray(want)).max() <= tol
        for sector in range(len(b.res.projectors)):
            for state, turned in (psi, q @ psi), (rho, rotated(rho)):
                want = projective_survival(state, b.H, b.res, sector, t, n)
                got = projective_survival(turned, moved.H, moved.res, sector, t, n)
                assert abs(got - want) <= tol

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_bundle_keeps_its_convergence_distances(self, seed):
        _, t, rotated, b, moved = self._rotation(seed)
        psi, ns = straddle_state(3), 2 ** np.arange(4, 13)
        rho = np.outer(psi, psi.conj())
        want = projective_convergence_curve(b, rho, t, ns).distances
        got = projective_convergence_curve(moved, rotated(rho), t, ns).distances
        assert np.all(np.abs(got - want) <= 64 * 3 * np.finfo(float).eps * (1 + ns))


class TestMetamorphicRelations:
    """Relations whose expected output is a second call, within the covariance tolerances:
    a global phase on U_kick, a shift H_c -> H_c + c I, and a split of the Zeno time."""

    @pytest.mark.parametrize("n", [1, 64, 4096])
    @pytest.mark.parametrize("seed", range(5))
    def test_global_kick_phase_changes_nothing(self, seed, n):
        rng = np.random.default_rng(seed)
        phase, t = np.exp(1j * rng.uniform(-np.pi, np.pi)), rng.uniform(0.5, 2.0)
        b, psi = four_level_kicked(), random_state(rng, 4)
        tol = 64 * 4 * np.finfo(float).eps * (1 + n)
        want = extracted_kick_limit(b.H, b.U_kick, t, n)
        assert np.abs(extracted_kick_limit(b.H, phase * b.U_kick, t, n) - want).max() <= tol
        for state in psi, np.outer(psi, psi.conj()):
            want, got = (observables(evolve_kicked(state, b.H, u, t, n, samples=9),
                                     b.resolution()) for u in (b.U_kick, phase * b.U_kick))
            for field in "subspace_probabilities", "purity", "leakage":
                assert np.abs(getattr(got, field) - getattr(want, field)).max() <= tol
            for pair, values in want.coherence_blocks.items():
                assert np.abs(got.coherence_blocks[pair] - values).max() <= tol

    @pytest.mark.parametrize("coupling", [0.0, 1.0, 64.0, 4096.0])
    @pytest.mark.parametrize("shift", [0.5, -2.0, 7.0])
    def test_shifted_coupling_changes_nothing(self, shift, coupling):
        b, t, psi = four_level_continuous(), 1.3, straddle_state(4)
        h_c = b.H_c + shift * np.eye(4)
        tol = 64 * 4 * np.finfo(float).eps * (
            1 + (frobenius(b.H) + coupling * frobenius(h_c)) * t)
        want = extracted_continuous_limit(b.H, b.H_c, t, coupling)
        assert np.abs(extracted_continuous_limit(b.H, h_c, t, coupling) - want).max() <= tol
        for state in psi, np.outer(psi, psi.conj()):
            want, got = (observables(evolve_continuous(state, b.H, x, coupling, t, samples=9),
                                     b.resolution()) for x in (b.H_c, h_c))
            for field in "subspace_probabilities", "purity", "leakage":
                assert np.abs(getattr(got, field) - getattr(want, field)).max() <= tol
            for pair, values in want.coherence_blocks.items():
                assert np.abs(got.coherence_blocks[pair] - values).max() <= tol

    @pytest.mark.parametrize("model", [three_level_projective, four_level_kicked,
                                       four_level_continuous])
    @pytest.mark.parametrize("seed", range(5))
    def test_zeno_propagators_compose_over_a_split_time(self, seed, model):
        rng = np.random.default_rng(seed)
        t1, t2 = rng.uniform(0.1, 2.0, 2)
        b = model()

        def u_z(t):
            return sum(zeno_propagators(b.H, b.resolution(), t))

        tol = 64 * b.dim * np.finfo(float).eps * (1 + frobenius(b.H) * (t1 + t2))
        assert np.abs(u_z(t1 + t2) - u_z(t1) @ u_z(t2)).max() <= tol


class TestSectorFrameCovariance:
    """The readers of a resolution's sector frame transform as the physics says, on the
    ranks-(1, 3, 2, 1) resolution of C^7 with labels 0..3.  One unitary Q on H, on each
    projector (same labels) and on the state rotates the Zeno-limit states, each V_n and
    both asymptotic forms, keeps every single-state observable, and rotates the spectral
    projectors of an operator; permuting the projectors with their labels permutes the V_n
    and keeps both asymptotic forms.  Each tolerance is 64 d eps (1 + drive): the drive is
    ||H||_F t for the Zeno limit, ||H||_F t + x max|l_n| for the asymptotic forms (x = N,
    or K t), and 0 for the rest."""

    RES = uneven_resolution(np.random.default_rng(23))
    TOL = 64 * 7 * np.finfo(float).eps
    ASYMPTOTIC = [("N", 1), ("N", 64), ("N", 4096), ("K", 0.0), ("K", 64.0), ("K", 4096.0)]

    @staticmethod
    def _close(got, want, tol):
        assert np.abs(np.subtract(got, want)).max() <= tol

    def _case(self, seed):
        """H, t, a density, the rotation x -> Q x Q†, the rotated resolution, and the rng."""
        rng = np.random.default_rng(seed)
        q, h, t = random_unitary(rng, 7), random_hermitian(rng, 7), rng.uniform(0.5, 2.0)

        def rotated(x):
            return q @ x @ dagger(q)

        moved = ResolutionOfIdentity([rotated(p) for p in self.RES.projectors], self.RES.labels)
        return h, t, random_density(rng, 7), rotated, moved, rng

    def _asymptotic(self, h, t, form, x):
        """res -> the asymptotic form at N or K = x, and its tolerance."""
        call, phase = ((asymptotic_kicked_propagator, x) if form == "N"
                       else (asymptotic_continuous_propagator, x * t))
        tol = self.TOL * (1 + frobenius(h) * t + phase * max(map(abs, self.RES.labels)))
        return lambda res: call(h, res, t, x), tol

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_inputs_rotate_the_zeno_limit(self, seed):
        h, t, rho, rotated, moved, _ = self._case(seed)
        tol = self.TOL * (1 + frobenius(h) * t)
        want = [rotated(r) for r in evolve_zeno_limit(rho, h, self.RES, t, samples=9).states]
        self._close(evolve_zeno_limit(rotated(rho), rotated(h), moved, t, samples=9).states,
                    want, tol)
        for v, w in zip(zeno_propagators(rotated(h), moved, t),
                        zeno_propagators(h, self.RES, t), strict=True):
            self._close(v, rotated(w), tol)

    @pytest.mark.parametrize("form, x", ASYMPTOTIC)
    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_inputs_rotate_the_asymptotic_forms(self, seed, form, x):
        h, t, _, rotated, moved, _ = self._case(seed)
        want, tol = self._asymptotic(h, t, form, x)
        got, _ = self._asymptotic(rotated(h), t, form, x)
        self._close(got(moved), rotated(want(self.RES)), tol)

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_state_and_sectors_keep_the_observables(self, seed):
        _, _, rho, rotated, moved, _ = self._case(seed)
        self._close(subspace_probabilities(rotated(rho), moved),
                    subspace_probabilities(rho, self.RES), self.TOL)
        for n, m in itertools.permutations(range(4), 2):
            self._close(coherence_block_norm(rotated(rho), moved, n, m),
                        coherence_block_norm(rho, self.RES, n, m), self.TOL)
        self._close(purity(rotated(rho)), purity(rho), self.TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_operator_gives_rotated_projectors(self, seed):
        _, _, _, rotated, _, _ = self._case(seed)
        pairs = list(zip(self.RES.labels, self.RES.projectors))
        for build, op in ((projections_of_hermitian, sum(l * p for l, p in pairs)),
                          (projections_of_unitary, sum(np.exp(-1j * l) * p for l, p in pairs))):
            want, got = build(op), build(rotated(op))
            assert got.ranks == want.ranks == (1, 3, 2, 1)
            self._close(got.labels, want.labels, self.TOL)
            for p, w in zip(got.projectors, want.projectors, strict=True):
                self._close(p, rotated(w), self.TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_permuted_sectors_permute_the_propagators(self, seed):
        h, t, _, _, _, rng = self._case(seed)
        perm = rng.permutation(4)
        permuted = ResolutionOfIdentity([self.RES.projectors[i] for i in perm],
                                        [self.RES.labels[i] for i in perm])
        want = zeno_propagators(h, self.RES, t)
        for v, i in zip(zeno_propagators(h, permuted, t), perm, strict=True):
            self._close(v, want[i], self.TOL * (1 + frobenius(h) * t))
        for form, x in self.ASYMPTOTIC:
            call, tol = self._asymptotic(h, t, form, x)
            self._close(call(permuted), call(self.RES), tol)


def _random_coupled_model(seed):
    """H and H_c = W diag(eta) W† with d = 3..6, 2..d sectors of random ranks, levels eta
    at least 0.3 apart and a random basis W."""
    rng = np.random.default_rng(seed)
    d = 3 + seed % 4
    count = rng.integers(2, d + 1)
    ranks = np.bincount(np.r_[np.arange(count), rng.integers(0, count, d - count)])
    eta = np.cumsum(rng.uniform(0.3, 1.5, count)) - rng.uniform(0.0, 3.0)
    w = random_unitary(rng, d)
    h_c = w @ np.diag(np.repeat(eta, ranks)) @ dagger(w)
    return random_hermitian(rng, d), 0.5 * h_c + 0.5 * dagger(h_c)


class TestContinuousBound:
    """The a-priori bound on the coupling-frame propagator V_K(t), an oracle at every point.

    With H_c = sum_n eta_n P_n, D = H - H_Z = [H_c, X] for X = sum_{n != m} P_n H P_m /
    (eta_n - eta_m), so one integration by parts of Duhamel's formula gives
    ||V_K(t) - e^{-i t H_Z}|| <= (2 ||X|| + t ||H X - X H_Z||) / K, and the triangle
    inequality the form of Burgarth, Facchi, Gramegna and Yuasa, Quantum 6, 737 (2022):
    (||X|| / K) (2 + 2 t ||H_Z|| + ||H - H_Z|| (2 t + t² ||H_Z||)); operator norms.
    """

    @pytest.mark.parametrize("model", ["four-level", "simplified", "simplified-shifted"]
                             + [f"random-{seed}" for seed in range(30)])
    def test_distance_within_the_bound(self, model):
        if model.startswith("random"):
            h, h_c = _random_coupled_model(int(model.split("-")[1]))
        else:
            b = {"four-level": four_level_continuous(), "simplified": simplified_continuous(),
                 "simplified-shifted": simplified_continuous(0.7, 1.3, -0.5, 2.0)}[model]
            h, h_c = b.H, b.H_c
        res = projections_of_hermitian(h_c)
        h_z = zeno_hamiltonian(h, res)
        x = sum(p @ h @ q / (a - c) for p, a in zip(res.projectors, res.labels)
                for q, c in zip(res.projectors, res.labels) if a != c)
        ks = 4.0 ** np.arange(1, 7)
        for t in (0.3, 1.0, 3.0):
            limits = extracted_continuous_limit(h, h_c, t, ks)
            distance = np.linalg.norm(limits - propagator(h_z, t), 2, axis=(1, 2))
            derived = (2 * opnorm(x) + t * opnorm(h @ x - x @ h_z)) / ks
            published = opnorm(x) / ks * (2 + 2 * t * opnorm(h_z) + opnorm(h - h_z) * (
                2 * t + t * t * opnorm(h_z)))
            assert np.all(distance <= derived) and np.all(derived <= published)


class TestZenoLimit:
    def test_sector_propagator_structure(self):
        t = 0.9
        v1, v2 = zeno_propagators(CHAIN, RES3, t)
        c, s = np.cos(t), np.sin(t)
        expect1 = np.array([[c, -1j * s, 0], [-1j * s, c, 0], [0, 0, 0]])
        assert frobenius(v1 - expect1) <= 1e-12
        assert frobenius(v2 - RES3.projector(1)) <= 1e-12

    def test_sector_propagators_complete(self):
        vs = zeno_propagators(CHAIN, RES3, 1.4)
        acc = sum(dagger(v) @ v for v in vs)
        assert frobenius(acc - np.eye(3)) <= 1e-12

    def test_probabilities_exactly_constant(self):
        rng = np.random.default_rng(21)
        rho0 = random_density(rng, 3)
        rec = evolve_zeno_limit(rho0, CHAIN, RES3, t=3.0, samples=30)
        probs = np.array([sector_probs(s, RES3) for s in rec.states])
        assert np.ptp(probs, axis=0).max() <= 1e-13

    def test_cross_block_coherence_removed(self):
        psi = straddle_state(3)
        rho0 = np.outer(psi, psi.conj())
        rec = evolve_zeno_limit(rho0, CHAIN, RES3, t=2.0, samples=10)
        p1, p2 = RES3.projectors
        for s in rec.states:
            assert frobenius(p1 @ s @ p2) <= 1e-13

    def test_zero_time_is_pinch(self):
        psi = straddle_state(3)
        rho0 = np.outer(psi, psi.conj())
        rec = evolve_zeno_limit(rho0, CHAIN, RES3, t=0.0)
        assert len(rec) == 1
        assert frobenius(rec.final_state - pinch(rho0, RES3)) <= 1e-14

    def test_matches_zeno_hamiltonian_propagator(self):
        # pure sector-1 state: limit dynamics = exp(-i H_Z t) on that block
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        t = 1.1
        rec = evolve_zeno_limit(rho0, CHAIN, RES3, t=t, samples=2)
        u_z = propagator(zeno_hamiltonian(CHAIN, RES3), t)
        expect = u_z @ rho0 @ dagger(u_z)
        assert frobenius(rec.final_state - expect) <= 1e-12


_HC4 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
_PSI3, _PSI4 = basis_state(3, 0), basis_state(4, 0)
# each call takes the non-finite value as its t, or as K where named
_NON_FINITE_CALLS = {
    "evolve_zeno_limit": lambda t: evolve_zeno_limit(np.outer(_PSI3, _PSI3), CHAIN, RES3, t),
    "continuous_propagator": lambda t: continuous_propagator(np.eye(4), _HC4, 2.0, t),
    "continuous_propagator-K": lambda k: continuous_propagator(np.eye(4), _HC4, k, 1.0),
    "evolve_continuous": lambda t: evolve_continuous(_PSI4, np.eye(4), _HC4, 2.0, t),
    "evolve_continuous-K": lambda k: evolve_continuous(_PSI4, np.eye(4), _HC4, k, 1.0),
    "decay_protection_sweep": lambda t: decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [10.0], t),
    "decay_protection_sweep-K":
        lambda k: decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [10.0, k], 5.0),
    "projective_survival": lambda t: projective_survival(_PSI3, CHAIN, RES3, 0, t, 4),
    "extracted_continuous_limit": lambda t: extracted_continuous_limit(np.eye(4), _HC4, t, 2.0),
    "extracted_continuous_limit-K":
        lambda k: extracted_continuous_limit(np.eye(4), _HC4, 1.0, k),
    "asymptotic_kicked_propagator": lambda t: asymptotic_kicked_propagator(CHAIN, RES3, t, 4),
    "propagator": lambda t: propagator(CHAIN, t),
    "zeno_propagators": lambda t: zeno_propagators(CHAIN, RES3, t),
    "asymptotic_continuous_propagator-K":
        lambda k: asymptotic_continuous_propagator(CHAIN, RES3, 1.0, k),
}


# each call takes the step count N
_STEP_COUNT_CALLS = {
    "evolve_projective": lambda n: evolve_projective(np.outer(_PSI3, _PSI3), CHAIN, RES3,
                                                     1.0, n),
    "evolve_kicked": lambda n: evolve_kicked(_PSI3, CHAIN, np.eye(3), 1.0, n),
    "kicked_propagator": lambda n: kicked_propagator(CHAIN, np.eye(3), 1.0, n),
    "extracted_kick_limit": lambda n: extracted_kick_limit(CHAIN, np.eye(3), 1.0, n),
    "extracted_kick_limit-array":
        lambda n: extracted_kick_limit(CHAIN, np.eye(3), 1.0, [4, n]),
    "asymptotic_kicked_propagator": lambda n: asymptotic_kicked_propagator(CHAIN, RES3,
                                                                           1.0, n),
    "projective_survival": lambda n: projective_survival(_PSI3, CHAIN, RES3, 0, 1.0, n),
    "convergence_curve": lambda n: convergence_curve(four_level_kicked(), 1.0, [4, 8, n]),
    "projective_convergence_curve": lambda n: projective_convergence_curve(
        three_level_projective(), np.outer(_PSI3, _PSI3), 1.0, [4, 8, n]),
}


_EMPTY_N, _EMPTY_K = np.array([], dtype=np.int64), np.array([])
# each call takes an empty array of N or K, or an empty stack: (call, error, message)
_EMPTY_ARRAY_CALLS = {
    "kicked_propagator": (lambda: kicked_propagator(CHAIN, np.eye(3), 1.0, _EMPTY_N),
                          InvalidParameter, "^N must be"),
    "extracted_kick_limit": (lambda: extracted_kick_limit(CHAIN, np.eye(3), 1.0, _EMPTY_N),
                             InvalidParameter, "^N must be"),
    "asymptotic_kicked_propagator": (
        lambda: asymptotic_kicked_propagator(CHAIN, RES3, 1.0, _EMPTY_N),
        InvalidParameter, "^N must be"),
    "continuous_propagator": (lambda: continuous_propagator(np.eye(4), _HC4, _EMPTY_K, 1.0),
                              InvalidParameter, "^K must be"),
    "extracted_continuous_limit": (
        lambda: extracted_continuous_limit(np.eye(4), _HC4, 1.0, _EMPTY_K),
        InvalidParameter, "^K must be"),
    "asymptotic_continuous_propagator": (
        lambda: asymptotic_continuous_propagator(CHAIN, RES3, 1.0, _EMPTY_K),
        InvalidParameter, "^K must be"),
    "eigh": (lambda: linalg.eigh(np.zeros((0, 3, 3))), DimensionMismatch,
             "got an empty array"),
}


@pytest.mark.parametrize("call", sorted(_EMPTY_ARRAY_CALLS))
def test_empty_array_refused(call):
    make, error, message = _EMPTY_ARRAY_CALLS[call]
    with pytest.raises(error, match=message):
        make()


_RHO3 = np.outer(_PSI3, _PSI3)


def _listed(call):
    """The call with x as the last of the values [2, 4, x]."""
    return lambda x: call([2, 4, x])


# each call takes x where one real number is required, or (_listed) one entry of an array
# of them; every model parameter is added below
_SCALAR_CALLS = {
    "evolve_projective-t": lambda x: evolve_projective(_RHO3, CHAIN, RES3, x, 8),
    "evolve_projective-N": lambda x: evolve_projective(_RHO3, CHAIN, RES3, 1.0, x),
    "evolve_kicked-t": lambda x: evolve_kicked(_PSI3, CHAIN, np.eye(3), x, 8),
    "evolve_kicked-N": lambda x: evolve_kicked(_PSI3, CHAIN, np.eye(3), 1.0, x),
    "evolve_continuous-t": lambda x: evolve_continuous(_PSI4, np.eye(4), _HC4, 2.0, x),
    "evolve_continuous-K": lambda x: evolve_continuous(_PSI4, np.eye(4), _HC4, x, 1.0),
    "evolve_zeno_limit-t": lambda x: evolve_zeno_limit(_RHO3, CHAIN, RES3, x),
    "zeno_propagators-t": lambda x: zeno_propagators(CHAIN, RES3, x),
    "kicked_propagator-t": lambda x: kicked_propagator(CHAIN, np.eye(3), x, 8),
    "kicked_propagator-N": lambda x: kicked_propagator(CHAIN, np.eye(3), 1.0, x),
    "kicked_propagator-Ns": _listed(lambda n: kicked_propagator(CHAIN, np.eye(3), 1.0, n)),
    "continuous_propagator-t": lambda x: continuous_propagator(np.eye(4), _HC4, 2.0, x),
    "continuous_propagator-K": lambda x: continuous_propagator(np.eye(4), _HC4, x, 1.0),
    "continuous_propagator-Ks": _listed(lambda k: continuous_propagator(np.eye(4), _HC4, k,
                                                                        1.0)),
    "asymptotic_kicked_propagator-t": lambda x: asymptotic_kicked_propagator(CHAIN, RES3, x, 4),
    "asymptotic_kicked_propagator-N": lambda x: asymptotic_kicked_propagator(CHAIN, RES3, 1.0,
                                                                             x),
    "asymptotic_kicked_propagator-Ns": _listed(
        lambda n: asymptotic_kicked_propagator(CHAIN, RES3, 1.0, n)),
    "asymptotic_continuous_propagator-t": lambda x: asymptotic_continuous_propagator(
        CHAIN, RES3, x, 2.0),
    "asymptotic_continuous_propagator-K": lambda x: asymptotic_continuous_propagator(
        CHAIN, RES3, 1.0, x),
    "asymptotic_continuous_propagator-Ks": _listed(
        lambda k: asymptotic_continuous_propagator(CHAIN, RES3, 1.0, k)),
    "extracted_kick_limit-t": lambda x: extracted_kick_limit(CHAIN, np.eye(3), x, 8),
    "extracted_kick_limit-N": lambda x: extracted_kick_limit(CHAIN, np.eye(3), 1.0, x),
    "extracted_kick_limit-Ns": _listed(lambda n: extracted_kick_limit(CHAIN, np.eye(3), 1.0,
                                                                      n)),
    "extracted_continuous_limit-t": lambda x: extracted_continuous_limit(np.eye(4), _HC4, x,
                                                                         2.0),
    "extracted_continuous_limit-K": lambda x: extracted_continuous_limit(np.eye(4), _HC4,
                                                                         1.0, x),
    "extracted_continuous_limit-Ks": _listed(
        lambda k: extracted_continuous_limit(np.eye(4), _HC4, 1.0, k)),
    "projective_survival-t": lambda x: projective_survival(_PSI3, CHAIN, RES3, 0, x, 4),
    "projective_survival-N": lambda x: projective_survival(_PSI3, CHAIN, RES3, 0, 1.0, x),
    "projective_survival-sector": lambda x: projective_survival(_PSI3, CHAIN, RES3, x, 1.0, 4),
    "convergence_curve-t": lambda x: convergence_curve(four_level_kicked(), x, [2, 4, 8]),
    "convergence_curve-Ns": _listed(lambda n: convergence_curve(four_level_kicked(), 1.0, n)),
    "convergence_curve-Ks": _listed(lambda k: convergence_curve(four_level_continuous(), 1.0,
                                                                k)),
    "projective_convergence_curve-t": lambda x: projective_convergence_curve(
        three_level_projective(), _RHO3, x, [2, 4, 8]),
    "projective_convergence_curve-Ns": _listed(lambda n: projective_convergence_curve(
        three_level_projective(), _RHO3, 1.0, n)),
    "decay_protection_sweep-t": lambda x: decay_protection_sweep(0.0, 1.0, 0.1, 0.0, [10.0],
                                                                 x),
    "decay_protection_sweep-Ks": _listed(lambda k: decay_protection_sweep(0.0, 1.0, 0.1, 0.0,
                                                                          k, 5.0)),
    "decay_protection_sweep-threshold": lambda x: decay_protection_sweep(
        0.0, 1.0, 0.1, 0.0, [0.0, 10.0], 5.0, threshold=x),
    "ModelBundle-K": lambda x: ModelBundle(H=np.eye(4), H_c=_HC4, K=x),
    "ResolutionOfIdentity-label": lambda x: ResolutionOfIdentity(RES3.projectors, [1.0, x]),
    "ResolutionOfIdentity.projector": lambda x: RES3.projector(x),
    "propagator-t": lambda x: propagator(CHAIN, x),
    "hermitian_evolution-x": lambda x: linalg.hermitian_evolution(CHAIN)(x),
    "states-x": lambda x: linalg.hermitian_evolution(CHAIN).states([x], _PSI3),
}
for _name in ("omega1", "tau_z", "gamma", "omega_b"):
    _SCALAR_CALLS[f"decay_protection_sweep-{_name}"] = (
        lambda x, _name=_name: decay_protection_sweep(**{
            "omega1": 0.0, "tau_z": 1.0, "gamma": 0.1, "omega_b": 0.0, _name: x},
            k_values=[10.0], t=5.0))
for _build in (three_level_projective, four_level_kicked, four_level_continuous,
               simplified_kicked, simplified_continuous, decay_model):
    for _name in inspect.signature(_build).parameters:
        _SCALAR_CALLS[f"{_build.__name__}-{_name}"] = (
            lambda x, _build=_build, _name=_name: _build(**{_name: x}))
_NOT_REAL = {"bool": True, "complex": 1j, "str": "1", "None": None, "array": np.ones((2, 2))}
# these take an array of times as well, or only one (the states of an evaluator)
_TIME_ARRAYS = {"zeno_propagators-t", "propagator-t", "hermitian_evolution-x", "states-x"}


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{call}-{kind}") for call in sorted(_SCALAR_CALLS)
    for kind, value in _NOT_REAL.items() if not (kind == "array" and call in _TIME_ARRAYS)])
def test_a_scalar_that_is_not_one_real_number_refused(call, value):
    """A bool, complex, string, None or array is refused as a scalar with a ZenosimError,
    never a TypeError or ValueError, and with no warning; a sector index as out of range."""
    error = IndexOutOfRange if call.endswith(("sector", "projector")) else ZenosimError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            _SCALAR_CALLS[call](value)


@pytest.mark.parametrize("call", [
    lambda: evolve_kicked(_PSI3, CHAIN, np.eye(3), np.float64(1.0), np.int64(8)),
    lambda: evolve_kicked(_PSI3, CHAIN, np.eye(3), np.float32(1.0), np.uint8(8)),
    lambda: evolve_zeno_limit(_RHO3, CHAIN, RES3, np.float32(1.0)),
    lambda: evolve_zeno_limit(_RHO3, CHAIN, RES3, np.array(0.0)),
    lambda: evolve_continuous(_PSI4, np.eye(4), _HC4, np.array(2.0), np.array(1.0)),
    lambda: evolve_continuous(_PSI4, np.eye(4), _HC4, 10**30, 1.0),
    lambda: kicked_propagator(CHAIN, np.eye(3), 1.0, np.array(8)),
    lambda: kicked_propagator(CHAIN, np.eye(3), 1.0, [np.int32(2), 4.0, np.array(8)]),
    lambda: continuous_propagator(np.eye(4), _HC4, [0, np.float32(2.0), 10**30], 1.0),
    lambda: decay_model(tau_z=np.float32(1.0), gamma=np.float32(0.1)),
    lambda: four_level_continuous(np.float32(1.0), np.int64(2), 10**30),
    lambda: ModelBundle(H=np.eye(4), H_c=_HC4, K=np.array(10**6)),
    lambda: decay_protection_sweep(0, np.float32(1.0), 0.1, 0, [0, 10, 10**30], 5, 0),
    lambda: ResolutionOfIdentity(RES3.projectors, [np.int64(1), np.array(2.5)]),
    lambda: RES3.projector(np.int64(1)),
    lambda: linalg.hermitian_evolution(CHAIN).states(np.arange(3, dtype=np.float32), _PSI3),
    lambda: propagator(CHAIN, np.array([0.5, 1.0])),
], ids=["numpy-int-float", "float32-t-uint8-N", "float32-zeno-t", "zeno-0d-zero", "0d-K-t",
        "int-1e30-K", "0d-N", "mixed-Ns", "mixed-Ks", "float32-parameters", "mixed-parameters",
        "0d-bundle-K", "sweep-ints", "0d-labels", "numpy-sector", "float32-times",
        "array-of-times"])
def test_every_real_number_in_the_domain_accepted(call):
    """numpy ints and floats, float32 with no warning, 0-d arrays and Python ints of any
    size inside the magnitude domain are each one real number; an evaluator takes an array."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()


@pytest.mark.parametrize("n", [2**63, 10**20, np.uint64(2**63), np.float64(2.0**63)],
                         ids=["2**63", "10**20", "uint64", "float64"])
@pytest.mark.parametrize("call", sorted(_STEP_COUNT_CALLS))
def test_step_count_beyond_int64_refused(call, n):
    with pytest.raises(InvalidParameter, match="N must be a positive integer"):
        _STEP_COUNT_CALLS[call](n)


@pytest.mark.parametrize("n", [np.array([4, 8]), [4, 8]], ids=["array", "list"])
@pytest.mark.parametrize("call", ["evolve_projective", "evolve_kicked", "projective_survival"])
def test_one_count_engine_refuses_an_array_of_counts(call, n):
    with pytest.raises(InvalidParameter, match=r"^N must be a count, got shape \(2,\)$"):
        _STEP_COUNT_CALLS[call](n)


def test_largest_int64_step_count_accepted():
    u = kicked_propagator(CHAIN, np.diag([1.0, 1.0, -1.0]), 1.0, 2**63 - 1)
    assert np.abs(dagger(u) @ u - np.eye(3)).max() <= 1e-14


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("call", sorted(_NON_FINITE_CALLS))
def test_non_finite_time_or_coupling_refused(call, value):
    with pytest.raises(InvalidParameter):
        _NON_FINITE_CALLS[call](value)


# each call takes the value as its t; propagator and zeno_propagators take any finite t
_TIME_CALLS = {name: call for name, call in _NON_FINITE_CALLS.items()
               if not name.endswith("-K") and name not in ("propagator", "zeno_propagators")}
_TIME_CALLS.update({
    "evolve_projective": lambda t: evolve_projective(np.outer(_PSI3, _PSI3), CHAIN, RES3, t, 8),
    "evolve_kicked": lambda t: evolve_kicked(_PSI3, CHAIN, np.eye(3), t, 8),
    "kicked_propagator": lambda t: kicked_propagator(CHAIN, np.eye(3), t, 8),
    "extracted_kick_limit": lambda t: extracted_kick_limit(CHAIN, np.eye(3), t, 8),
    "asymptotic_continuous_propagator": lambda t: asymptotic_continuous_propagator(
        CHAIN, RES3, t, 2.0),
})


@pytest.mark.parametrize("call", sorted(_TIME_CALLS))
def test_time_below_the_smallest_normal_float_refused(call):
    # linspace(0, t, S) of a subnormal t repeats values; the domain's least t, 2**-128,
    # is far above every subnormal and the smallest normal float
    tiny = np.finfo(float).tiny
    for t in (5e-324, tiny / 2, -tiny, tiny, 2.0**-129):
        with pytest.raises(InvalidParameter, match=r"^t must be finite and positive, with "
                                                   r"magnitude in \[2\*\*-128, 2\*\*128\]"):
            _TIME_CALLS[call](t)
    _TIME_CALLS[call](2.0**-128)


_SAMPLED_CALLS = {
    "evolve_projective": lambda s: evolve_projective(np.outer(_PSI3, _PSI3), CHAIN, RES3,
                                                     1.0, 8, samples=s),
    "evolve_kicked": lambda s: evolve_kicked(_PSI3, CHAIN, np.eye(3), 1.0, 8, samples=s),
    "evolve_continuous": lambda s: evolve_continuous(_PSI4, np.eye(4), _HC4, 2.0, 1.0,
                                                     samples=s),
    "evolve_zeno_limit": lambda s: evolve_zeno_limit(np.outer(_PSI3, _PSI3), CHAIN, RES3,
                                                     1.0, samples=s),
}


@pytest.mark.parametrize("samples", [2.5, 2.0])
@pytest.mark.parametrize("call", sorted(_SAMPLED_CALLS))
def test_non_integer_samples_refused(call, samples):
    with pytest.raises(InvalidParameter, match="samples must be an integer"):
        _SAMPLED_CALLS[call](samples)
    assert len(_SAMPLED_CALLS[call](np.int64(3))) == 3


@pytest.mark.parametrize("samples", [2**53 + 1, 2**62, np.uint64(2**64 - 1), 10**29])
@pytest.mark.parametrize("call", sorted(_SAMPLED_CALLS))
def test_sample_count_past_float64_counting_refused(call, samples):
    # np.linspace counts samples in float64; past 2**60 numpy would raise a ValueError
    with pytest.raises(InvalidParameter, match=r"^samples must be an integer in \[2, 2\*\*53\], "):
        _SAMPLED_CALLS[call](samples)


@pytest.mark.parametrize("samples", [2, 33, 1000])
def test_sampled_states_match_propagator(samples):
    """States rotated once into the eigenbasis equal u(x) psi and u(x) rho u(x)†."""
    rng = np.random.default_rng(samples)
    bundle = four_level_kicked()
    h_c = random_hermitian(rng, 4)
    psi0, rho0 = random_state(rng, 4), random_density(rng, 4)
    k, t, dim, eps = 50.0, 1.3, 4, np.finfo(float).eps
    h_k = bundle.H + k * h_c
    h_z = zeno_hamiltonian(bundle.H, RES4)
    cases = [
        (evolve_continuous(psi0, bundle.H, h_c, k, t, samples), h_k, psi0),
        (evolve_continuous(rho0, bundle.H, h_c, k, t, samples), h_k, rho0),
        (evolve_zeno_limit(rho0, bundle.H, RES4, t, samples), h_z, pinch(rho0, RES4)),
    ]
    for rec, gen, state in cases:
        assert len(rec) == samples
        bound = 64 * dim * eps * (1 + opnorm(gen) * t)
        for x, got in zip(rec.times_or_steps, rec.states):
            u = propagator(gen, x)
            expect = u @ state @ dagger(u) if state.ndim == 2 else u @ state
            assert np.max(np.abs(got - expect)) <= bound


class TestAsymptoticPropagators:
    def test_kicked_asymptotic_close_at_large_n(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = h[1, 0] = 1.0
        h[1, 2] = h[2, 1] = 1.0
        lam2 = 1.0
        uk = np.zeros((4, 4), dtype=complex)
        uk[0, 0] = uk[1, 1] = 1.0
        uk[2, 2] = uk[3, 3] = np.cos(lam2)
        uk[2, 3] = uk[3, 2] = -1j * np.sin(lam2)
        from zenosim.spectral import projections_of_unitary
        res = projections_of_unitary(uk)
        n = 1024
        exact = kicked_propagator(h, uk, 1.0, n)
        asym = asymptotic_kicked_propagator(h, res, 1.0, n)
        assert opnorm(exact - asym) <= 0.02
        assert opnorm(dagger(asym) @ asym - np.eye(4)) <= 1e-12

    def test_kicked_asymptotic_stacks_an_array_of_counts(self):
        # three counts on a 3-level model: a stack, not a broadcast over columns
        ns = [4, 64, 1024]
        res = ResolutionOfIdentity(RES3.projectors, [0.3, 1.7])
        np.testing.assert_array_equal(
            asymptotic_kicked_propagator(CHAIN, res, 1.0, ns),
            [asymptotic_kicked_propagator(CHAIN, res, 1.0, n) for n in ns])

    def test_continuous_asymptotic_stacks_an_array_of_couplings(self):
        # three couplings on a 3-level model: a stack, not a broadcast over columns
        ks = np.array([4.0, 8.0, 16.0])
        for couplings in (ks, ks.tolist()):
            np.testing.assert_array_equal(
                asymptotic_continuous_propagator(CHAIN, RES3, 1.0, couplings),
                [asymptotic_continuous_propagator(CHAIN, RES3, 1.0, k) for k in ks])

    @pytest.mark.parametrize("rank1", [1, 2])
    def test_asymptotic_forms_phase_each_rotated_sector(self, rank1):
        # W diag(e^{-i x l}) W† U_Z(t) is the sector sum on a rotated resolution too
        rng = np.random.default_rng(rank1)
        res = random_two_block_resolution(rng, 3, rank1)
        h, t = random_hermitian(rng, 3), 0.7
        vs = zeno_propagators(h, res, t)
        for x, got in ((5, asymptotic_kicked_propagator(h, res, t, 5)),
                       (3.0 * t, asymptotic_continuous_propagator(h, res, t, 3.0))):
            expect = sum(np.exp(-1j * x * lab) * v for lab, v in zip(res.labels, vs))
            assert np.abs(got - expect).max() <= 1e-14

    def test_overflowing_sector_phase_refused_not_warned(self):
        # K eta_2 t = 1e310 would overflow: K = 1e300 is refused where it enters; at the
        # domain's edge K t = 2**256 and the phases stay finite, with no warning
        b = simplified_continuous(eta2=1e10)
        with pytest.raises(InvalidParameter, match="^K must be a finite real >= 0"):
            asymptotic_continuous_propagator(b.H, b.resolution(), 1.0, 1e300)
        u = asymptotic_continuous_propagator(b.H, b.resolution(), 2.0**128, 2.0**128)
        assert np.abs(dagger(u) @ u - np.eye(3)).max() <= 1e-14

    def test_continuous_asymptotic_close_at_large_k(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = h[1, 0] = 1.0
        h[1, 2] = h[2, 1] = 1.0
        h_c = np.zeros((4, 4), dtype=complex)
        h_c[2, 3] = h_c[3, 2] = 1.0
        from zenosim.spectral import projections_of_hermitian
        res = projections_of_hermitian(h_c)
        k = 1024.0
        exact = continuous_propagator(h, h_c, k, 1.0)
        asym = asymptotic_continuous_propagator(h, res, 1.0, k)
        assert opnorm(exact - asym) <= 0.02
        assert opnorm(dagger(asym) @ asym - np.eye(4)) <= 1e-12


class TestExtractedLimits:
    def test_single_kick_extraction_is_free_evolution(self):
        rng = np.random.default_rng(17)
        uk = random_unitary(rng, 3)
        v = extracted_kick_limit(CHAIN, uk, t=0.8, n=1)
        assert frobenius(v - propagator(CHAIN, 0.8)) <= 1e-12

    def test_commuting_kick_extraction_exact(self):
        # H already block diagonal for the kick: no transient at any N
        h = np.diag([0.3, 0.3, -0.2]).astype(complex)
        h[0, 1] = h[1, 0] = 1.0
        uk = np.diag([1.0, 1.0, np.exp(-1j)]).astype(complex)
        for n in (1, 5, 64):
            v = extracted_kick_limit(h, uk, t=1.0, n=n)
            assert frobenius(v - propagator(h, 1.0)) <= 1e-11

    def test_kick_extraction_ignores_global_phase(self):
        # (e^{i theta} U)† cancels against (e^{i theta} U) cycle by cycle
        rng = np.random.default_rng(31)
        uk = random_unitary(rng, 3)
        a = extracted_kick_limit(CHAIN, uk, t=1.0, n=16)
        b = extracted_kick_limit(CHAIN, np.exp(1j * 0.7) * uk, t=1.0, n=16)
        assert frobenius(a - b) <= 1e-12

    def test_kick_extraction_converges(self):
        uk = np.diag([1.0, 1.0, np.exp(-1j)]).astype(complex)
        from zenosim.spectral import projections_of_unitary
        res = projections_of_unitary(uk)
        target = propagator(zeno_hamiltonian(CHAIN, res), 1.0)
        d64 = opnorm(extracted_kick_limit(CHAIN, uk, 1.0, 64) - target)
        d256 = opnorm(extracted_kick_limit(CHAIN, uk, 1.0, 256) - target)
        assert d256 < d64 / 2

    def test_zero_coupling_extraction_is_free_evolution(self):
        h_c = np.diag([0.0, 0.0, 1.0]).astype(complex)
        v = extracted_continuous_limit(CHAIN, h_c, t=0.8, coupling=0.0)
        assert frobenius(v - propagator(CHAIN, 0.8)) <= 1e-12

    def test_commuting_coupling_extraction_exact(self):
        h = np.diag([0.3, 0.3, -0.2]).astype(complex)
        h[0, 1] = h[1, 0] = 1.0
        h_c = np.diag([0.0, 0.0, 1.0]).astype(complex)
        for k in (0.0, 3.0, 50.0):
            v = extracted_continuous_limit(h, h_c, t=1.0, coupling=k)
            assert frobenius(v - propagator(h, 1.0)) <= 1e-11

    def test_continuous_extraction_converges(self):
        h_c = np.diag([0.0, 0.0, 1.0]).astype(complex)
        from zenosim.spectral import projections_of_hermitian
        res = projections_of_hermitian(h_c)
        target = propagator(zeno_hamiltonian(CHAIN, res), 1.0)
        d64 = opnorm(extracted_continuous_limit(CHAIN, h_c, 1.0, 64.0) - target)
        d256 = opnorm(extracted_continuous_limit(CHAIN, h_c, 1.0, 256.0) - target)
        assert d256 < d64 / 2


class TestProjectiveSurvival:
    RES2 = ResolutionOfIdentity(
        [np.diag([1.0, 0.0]).astype(complex),
         np.diag([0.0, 1.0]).astype(complex)], [1.0, 2.0])
    H2 = np.array([[0, 1], [1, 0]], dtype=complex)  # Omega = 1

    def test_closed_form(self):
        for n in (1, 2, 10, 100):
            s = projective_survival(basis_state(2, 0), self.H2, self.RES2,
                                    sector=0, t=1.0, n=n)
            assert abs(s - np.cos(1.0 / n) ** (2 * n)) <= 1e-12

    def test_survival_below_nonselective_population(self):
        # histories that leave and return count toward the population only
        n = 2
        s = projective_survival(basis_state(2, 0), self.H2, self.RES2,
                                sector=0, t=1.0, n=n)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rec = evolve_projective(rho0, self.H2, self.RES2, t=1.0, n=n)
        pop = sector_probs(rec.final_state, self.RES2)[0]
        c2, s2 = np.cos(0.5) ** 2, np.sin(0.5) ** 2
        assert abs(pop - (c2 ** 2 + s2 ** 2)) <= 1e-12
        assert s < pop

    def test_density_matches_vector(self):
        psi = basis_state(2, 0)
        rho = np.outer(psi, psi.conj())
        a = projective_survival(psi, self.H2, self.RES2, 0, t=1.0, n=7)
        b = projective_survival(rho, self.H2, self.RES2, 0, t=1.0, n=7)
        assert abs(a - b) <= 1e-13

    def test_sector_bounds(self):
        for sector in (2, 0.5):
            with pytest.raises(IndexOutOfRange):
                projective_survival(basis_state(2, 0), self.H2, self.RES2,
                                    sector=sector, t=1.0, n=2)
        assert projective_survival(basis_state(2, 0), self.H2, self.RES2,
                                   sector=np.int64(0), t=1.0, n=2) > 0.0
