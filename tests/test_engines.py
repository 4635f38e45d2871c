import copy
import dataclasses
import pickle
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
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
)
from zenosim import engines, linalg
from zenosim.analysis import (
    convergence_curve,
    decay_protection_sweep,
    projective_convergence_curve,
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
)
from zenosim.linalg import dagger, frobenius, opnorm, propagator
from zenosim.models import (
    decay_model,
    four_level_continuous,
    four_level_kicked,
    simplified_continuous,
    three_level_projective,
)
from zenosim.spectral import ResolutionOfIdentity, pinch, zeno_hamiltonian

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


_MP = mpmath.MPContext()
_MP.dps = 40


def _mp_lift(a):
    """complex128 array -> mpmath matrix, exactly (a vector becomes a column)."""
    rows = np.atleast_2d(a).T if np.ndim(a) == 1 else np.asarray(a)
    return _MP.matrix([[_MP.mpc(z.real, z.imag) for z in row] for row in rows])


def _mp_power(m, k: int):
    out = _MP.eye(m.rows)
    while k:
        if k & 1:
            out = out * m
        m = m * m
        k >>= 1
    return out


def _to_numpy(m) -> np.ndarray:
    return np.array(m.tolist(), dtype=complex)


def _mp_kron(a, b):
    return _MP.matrix([[a[i, j] * b[k, l] for j in range(a.cols) for l in range(b.cols)]
                       for i in range(a.rows) for k in range(b.rows)])


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
    u = _MP.expm(_mp_lift(-1j * bundle.H) * (_MP.mpf(t) / n))
    ps = [_mp_lift(p) for p in res.projectors]
    step = sum((_mp_kron(p * u, (u.H * p).T) for p in ps), _MP.zeros(dim * dim))
    pinched = sum((p * _mp_lift(rho0) * p for p in ps), _MP.zeros(dim))
    vec0 = _MP.matrix([pinched[i, j] for i in range(dim) for j in range(dim)])

    rec = evolve_projective(rho0, bundle.H, res, t, n, samples=5)
    assert len(rec) == min(5, n + 1)
    for time, state in zip(rec.times_or_steps, rec.states):
        k = int(round(time * n / t))
        ref = _to_numpy(_mp_power(step, k) * vec0).reshape(dim, dim)
        assert np.abs(state - ref).max() <= 64 * dim * np.finfo(float).eps * (1 + k)


@pytest.mark.parametrize("n", [16, 4096, 2**20, 2**30])
def test_projective_curve_matches_40_digit_oracle(n):
    """Each curve distance against a 40-digit one; tolerance 64 d eps (1 + N).

    The oracle powers the lifted round of ``test_projective_engine_matches_40_digit_oracle``
    and takes the distance to U_Z pinch(rho0) U_Z†, with U_Z = exp(-i H_Z t) to 40
    digits as well.
    """
    bundle = three_level_projective(1.0, 1.0)
    t, dim = 1.0, 3
    psi0 = straddle_state(dim)
    rho0 = np.outer(psi0, psi0.conj())
    ps = [_mp_lift(p) for p in bundle.res.projectors]
    pinched = sum((p * _mp_lift(rho0) * p for p in ps), _MP.zeros(dim))
    h = _mp_lift(bundle.H)
    u_z = _MP.expm(-1j * sum((p * h * p for p in ps), _MP.zeros(dim)) * _MP.mpf(t))
    limit = u_z * pinched * u_z.H
    u = _MP.expm(-1j * h * (_MP.mpf(t) / n))
    step = sum((_mp_kron(p * u, (u.H * p).T) for p in ps), _MP.zeros(dim * dim))
    vec0 = _MP.matrix([pinched[i, j] for i in range(dim) for j in range(dim)])
    final = _mp_power(step, n) * vec0
    ref = _MP.sqrt(sum(abs(final[i * dim + j] - limit[i, j]) ** 2
                       for i in range(dim) for j in range(dim)))
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
    "eigh": (lambda: linalg.eigh(np.zeros((0, 3, 3))), DimensionMismatch, "stack is empty"),
}


@pytest.mark.parametrize("call", sorted(_EMPTY_ARRAY_CALLS))
def test_empty_array_refused(call):
    make, error, message = _EMPTY_ARRAY_CALLS[call]
    with pytest.raises(error, match=message):
        make()


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
