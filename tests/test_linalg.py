import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian, random_state, random_unitary
from zenosim.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParameter,
    InvalidState,
    NotHermitian,
    NotUnitary,
)
from zenosim.linalg import (
    check_density_matrix,
    check_state_vector,
    eigh,
    expm,
    frobenius,
    nonhermitian_evolution,
    opnorm,
    propagator,
    require_unitary,
    unitary_eig,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def chain_h(o1, o2, dim=3):
    h = np.zeros((dim, dim), dtype=complex)
    h[0, 1] = h[1, 0] = o1
    h[1, 2] = h[2, 1] = o2
    return h


class TestEigh:
    def test_zero_matrix(self):
        w, v = eigh(np.zeros((3, 3)))
        assert np.allclose(w, 0)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)

    def test_chain_spectrum(self):
        # characteristic polynomial x^3 - 2x = 0
        w, _ = eigh(chain_h(1, 1))
        assert np.allclose(w, [-np.sqrt(2), 0, np.sqrt(2)], atol=1e-12)

    def test_coupling_spectrum(self):
        h_c = np.zeros((4, 4), dtype=complex)
        h_c[2, 3] = h_c[3, 2] = 1.0
        w, _ = eigh(h_c)
        assert np.allclose(w, [-1, 0, 0, 1], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            eigh(np.zeros((2, 3)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 5)
        w, v = eigh(h)
        assert np.all(np.diff(w) >= 0)
        assert frobenius(v @ np.diag(w) @ v.conj().T - h) <= 1e-10 * max(1, frobenius(h))
        assert frobenius(v.conj().T @ v - np.eye(5)) <= 1e-12 * 5


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((4, 4))), np.eye(4), atol=1e-14)

    def test_pi_rotation(self):
        assert np.allclose(expm(-1j * np.pi * SX), -np.eye(2), atol=1e-12)

    def test_zeno_block_structure(self):
        # exp(-i t H_Z) acts as a cos/sin rotation on {a,b}, identity elsewhere
        hz = np.zeros((4, 4), dtype=complex)
        hz[0, 1] = hz[1, 0] = 1.0
        t = 0.7
        u = expm(-1j * hz * t)
        expect = np.eye(4, dtype=complex)
        expect[0, 0] = expect[1, 1] = np.cos(t)
        expect[0, 1] = expect[1, 0] = -1j * np.sin(t)
        assert np.allclose(u, expect, atol=1e-12)

    def test_general_path_matches_series(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)  # nilpotent
        assert np.allclose(expm(a), np.eye(2) + a, atol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameter):
            expm(np.array([[np.inf, 0], [0, 0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_unitarity_large_t(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 4)
        t = 1e3 / max(1.0, opnorm(h))
        u = expm(-1j * h * t)
        assert frobenius(u.conj().T @ u - np.eye(4)) <= 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_commuting_product_rule(self, seed):
        rng = np.random.default_rng(seed)
        a = np.zeros((4, 4), dtype=complex)
        b = np.zeros((4, 4), dtype=complex)
        a[:2, :2] = random_hermitian(rng, 2)
        b[2:, 2:] = random_hermitian(rng, 2)
        a, b = -1j * a, -1j * b  # commuting block-diagonal pair
        assert frobenius(expm(a + b) - expm(a) @ expm(b)) <= 1e-10


class TestOpnorm:
    def test_identity(self):
        assert opnorm(np.eye(4)) == pytest.approx(1.0, abs=1e-14)

    def test_scaled_projector(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        assert opnorm(2 * p) == pytest.approx(2.0, abs=1e-12)

    def test_zero_iff_zero(self):
        assert opnorm(np.zeros((3, 3))) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_frobenius_bounds(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert opnorm(a) <= frobenius(a) + 1e-12
        assert frobenius(a) <= np.sqrt(3) * opnorm(a) + 1e-12


def _circular_sorted(phases, ref):
    """phases sorted around the circle, cut in the middle of ref's widest gap."""
    r = np.sort(ref)
    gaps = np.diff(r, append=r[0] + 2 * np.pi)
    return np.sort((phases - r[np.argmax(gaps)] - gaps.max() / 2) % (2 * np.pi))


def _shift(d):
    """Cyclic shift: exact entries, eigenvalues the d-th roots of unity (-1 for even d)."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


class TestUnitaryEig:
    """Adversarial spectra for the Cayley route: -1 exactly, exact degeneracy,
    clusters split down to 1e-12, evenly spaced phases (the narrowest widest gap)."""

    @staticmethod
    def check(u):
        d = u.shape[0]
        tol = 16 * d * np.finfo(float).eps
        lam, z = unitary_eig(u)
        assert np.abs((z * np.exp(-1j * lam)) @ z.conj().T - u).max() <= tol
        assert np.abs(z.conj().T @ z - np.eye(d)).max() <= tol
        assert np.all((-np.pi <= lam) & (lam <= np.pi))
        ref = np.angle(np.linalg.eigvals(u))
        assert np.abs(_circular_sorted(-lam, ref) - _circular_sorted(ref, ref)).max() <= tol

    @pytest.mark.parametrize("u", [
        np.eye(1, dtype=complex), -np.eye(1, dtype=complex), np.array([[1j]]),
        -np.eye(3, dtype=complex), np.diag([-1, -1, 1j, 1]).astype(complex),
        np.diag([1, 1, -1, -1, 1j, -1j]).astype(complex),
        *[_shift(d) for d in range(1, 7)], *[-_shift(d) for d in range(1, 7)],
    ])
    def test_exact_inputs(self, u):
        self.check(u)

    @given(st.integers(1, 6),
           st.sampled_from(["random", "minus-one", "degenerate", "split", "even"]),
           st.sampled_from([0.0, 1e-6, 1e-9, 1e-12]), st.booleans(),
           st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_adversarial_spectra(self, d, kind, split, rotate, seed):
        rng = np.random.default_rng(seed)
        ph = {"random": rng.uniform(-np.pi, np.pi, d),
              "minus-one": np.where(rng.random(d) < 0.5, np.pi, rng.uniform(-np.pi, np.pi, d)),
              "degenerate": np.full(d, rng.uniform(-np.pi, np.pi)),
              "split": np.pi + split * rng.choice([-1.0, 0.0, 1.0], d),
              "even": 2 * np.pi * np.arange(d) / d + rng.choice([0.0, np.pi / d])}[kind]
        ph = ph + split * np.arange(d) * (kind != "split")
        u = np.diag(np.where(ph == np.pi, -1.0, np.exp(-1j * ph)))
        if rotate:
            q = random_unitary(rng, d)
            u = q @ u @ q.conj().T
        self.check(u)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary, match="kick has unitarity defect"):
            unitary_eig(np.diag([1.0, 2.0]), "kick")
        with pytest.raises(NotUnitary):
            require_unitary(np.diag([1.0, 1.0 + 1e-6]))
        assert np.array_equal(require_unitary(_shift(3)), _shift(3))


class TestPropagator:
    def test_matches_expm(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 4)
        assert np.allclose(propagator(h, 0.9), expm(-1j * h * 0.9), atol=1e-12)


class TestNonhermitianEvolution:
    def test_matches_pade_for_vectors_and_densities(self):
        # v⁻¹ ≠ v†: states() must rotate rho by v⁻¹ on the left and v⁻† on the right
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 4) - 0.5j * np.diag(rng.uniform(0.0, 2.0, 4))
        ev = nonhermitian_evolution(h)
        psi, rho = random_state(rng, 4), random_density(rng, 4)
        xs = np.array([0.0, 0.3, 1.7])
        for x, p, r in zip(xs, ev.states(xs, psi), ev.states(xs, rho)):
            u = expm(-1j * h * x)
            assert np.abs(ev(x) - u).max() <= 1e-12
            assert np.abs(p - u @ psi).max() <= 1e-12
            assert np.abs(r - u @ rho @ u.conj().T).max() <= 1e-12

    def test_refuses_a_jordan_block(self):
        # one eigenvector for a double eigenvalue: eig's V is singular
        assert nonhermitian_evolution(np.array([[-1j, 1], [0, -1j]])) is None


class TestStateChecks:
    def test_vector_norm_enforced(self):
        check_state_vector(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(InvalidState):
            check_state_vector(np.array([1.0, 1.0], dtype=complex))
        # one verdict for psi and |psi><psi|: |norm² - 1| <= 1e-9 in both
        ok = np.array([1 + 4e-10, 0.0], dtype=complex)
        bad = np.array([1 + 8e-10, 0.0], dtype=complex)
        check_state_vector(ok)
        check_density_matrix(np.outer(ok, ok.conj()))
        with pytest.raises(InvalidState):
            check_state_vector(bad)
        with pytest.raises(InvalidState):
            check_density_matrix(np.outer(bad, bad.conj()))

    def test_subnormalized_allowed_for_decay(self):
        psi = np.array([0.5, 0.5], dtype=complex)
        check_state_vector(psi, subnormalized=True)
        with pytest.raises(InvalidState):
            check_state_vector(1.5 * psi / np.linalg.norm(psi) * 1.1,
                               subnormalized=True)

    def test_density_checks(self):
        check_density_matrix(np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(InvalidState):
            check_density_matrix(np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(InvalidState):
            check_density_matrix(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(InvalidState):
            check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_state_vector(np.array([1.0, 0, 0], dtype=complex), dim=2)
