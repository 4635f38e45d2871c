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
from zenosim import engines
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
    three_level_projective,
)
from zenosim.spectral import ResolutionOfIdentity, pinch, zeno_hamiltonian

CHAIN = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
RES3 = ResolutionOfIdentity.from_projectors(
    [np.diag([1.0, 1.0, 0.0]).astype(complex),
     np.diag([0.0, 0.0, 1.0]).astype(complex)], [1.0, 2.0])


RES4 = ResolutionOfIdentity.from_projectors(
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

    def test_final_state_and_len(self):
        rec = EvolutionRecord(np.array([0, 1]), (np.zeros((2, 2)), np.eye(2)))
        assert len(rec) == 2
        assert np.array_equal(rec.final_state, np.eye(2))


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


@pytest.mark.parametrize("n", [1, 4096])
def test_projective_survival_matches_40_digit_oracle(n):
    """||[P U(t/N)]^N psi0||² against a 40-digit power; tolerance 64 d eps (1 + N)."""
    bundle = three_level_projective(1.0, 1.0)
    t, dim = 1.0, 3
    psi0 = straddle_state(dim)
    factor = (_mp_lift(bundle.res.projector(0))
              * _MP.expm(_mp_lift(-1j * bundle.H) * (_MP.mpf(t) / n)))
    ref = float(sum(abs(z) ** 2 for z in _mp_power(factor, n) * _mp_lift(psi0)))
    tol = 64 * dim * np.finfo(float).eps * (1 + n)
    for state in (psi0, np.outer(psi0, psi0.conj())):
        assert abs(projective_survival(state, bundle.H, bundle.res, 0, t, n) - ref) <= tol


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


def test_defective_generator_takes_the_expm_fallback(expm_calls):
    """A Jordan block has one eigenvector: eig's V is singular, so expm runs."""
    h = np.array([[-1j, 1], [0, -1j]])
    psi0, samples = basis_state(2, 1), 7
    rec = evolve_continuous(psi0, h, np.zeros((2, 2)), 0.0, t=3.0, samples=samples)
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

    def test_propagator_refuses_negative_coupling_or_time(self):
        b = four_level_continuous()
        with pytest.raises(InvalidParameter, match="K must be"):
            continuous_propagator(b.H, b.H_c, -3.0, 1.0)
        with pytest.raises(InvalidParameter, match="t must be"):
            continuous_propagator(b.H, b.H_c, 2.0, -1.0)


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
    "projective_survival": lambda t: projective_survival(_PSI3, CHAIN, RES3, 0, t, 4),
    "extracted_continuous_limit": lambda t: extracted_continuous_limit(np.eye(4), _HC4, t, 2.0),
    "asymptotic_kicked_propagator": lambda t: asymptotic_kicked_propagator(CHAIN, RES3, t, 4),
    "propagator": lambda t: propagator(CHAIN, t),
    "zeno_propagators": lambda t: zeno_propagators(CHAIN, RES3, t),
    "asymptotic_continuous_propagator-K":
        lambda k: asymptotic_continuous_propagator(CHAIN, RES3, 1.0, k),
}


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("call", sorted(_NON_FINITE_CALLS))
def test_non_finite_time_or_coupling_refused(call, value):
    with pytest.raises(InvalidParameter):
        _NON_FINITE_CALLS[call](value)


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
    RES2 = ResolutionOfIdentity.from_projectors(
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
        with pytest.raises(IndexOutOfRange):
            projective_survival(basis_state(2, 0), self.H2, self.RES2,
                                sector=2, t=1.0, n=2)
