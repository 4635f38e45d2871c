import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian, random_state, random_unitary
from reference import _MP, _mp_evolved, _mp_lift, _to_numpy
from zenosim.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParameter,
    InvalidState,
    NotHermitian,
    NotUnitary,
)
from zenosim.linalg import (
    _cayley_eig,
    _norms,
    _SpectralEvaluator,
    as_square_matrix,
    check_density_matrix,
    check_state_vector,
    dagger,
    eigh,
    expm,
    frobenius,
    hermitian_evolution,
    hermiticity_defect,
    nonhermitian_evolution,
    opnorm,
    propagator,
    require_hermitian,
    require_unitary,
    unitary_eig,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def chain_h(o1, o2, dim=3):
    h = np.zeros((dim, dim), dtype=complex)
    h[0, 1] = h[1, 0] = o1
    h[1, 2] = h[2, 1] = o2
    return h


class TestAsSquareMatrix:
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_refused(self, bad, part):
        m = np.eye(3, dtype=complex)
        m[1, 2] = complex(bad, 0.5) if part == "real" else complex(0.5, bad)
        with pytest.raises(InvalidParameter, match="^H contains non-finite entries$"):
            as_square_matrix(m, "H")

    def test_overflowing_sum_of_squares_refused(self):
        # finite entries, but |1e200|² overflows the one sum of |m_ij|² the check takes
        with pytest.raises(InvalidParameter, match=r"^H has Frobenius norm past 2\*\*128$"):
            as_square_matrix(np.full((3, 3), 1e200 - 1e200j), "H")

    def test_frobenius_norm_bounded_at_2_128(self):
        # ‖m‖_F² = 2**256 passes; 2**256 (1 + 2**-48), just above, is refused
        edge = np.diag([2.0**128, 0.0])
        np.testing.assert_array_equal(as_square_matrix(edge, "H"), edge)
        with pytest.raises(InvalidParameter, match=r"^H has Frobenius norm past 2\*\*128$"):
            as_square_matrix(np.diag([2.0**128, 2.0**104]), "H")


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
        # entries at the domain's edge: no norm of the defect overflows
        for big in ([[0, 2.0**127], [0, 0]], [[2.0**126, 2.0**125], [0, 2.0**126]]):
            with pytest.raises(NotHermitian):
                require_hermitian(np.array(big))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            eigh(np.zeros((2, 3)))

    def test_complex_entry_past_the_float_range_refused_not_warned(self):
        # |1.7e308 (1 + i)| is inf: refused by the matrix bound, before any defect is taken;
        # at the domain's edge the defect of 2**127 (1 + i) is taken plainly
        with pytest.raises(InvalidParameter, match="^H has Frobenius norm past 2"):
            require_hermitian(np.array([[1.7e308 + 1.7e308j, 0], [0, 0]]), "H")
        big = np.array([[2.0**127 * (1 + 1j), 0], [0, 0]])
        assert hermiticity_defect(big) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        with pytest.raises(NotHermitian, match="relative asymmetry 1.414e"):
            require_hermitian(big)

    def test_entries_near_the_float_limit_not_overflowed(self):
        # entries near the float limit are refused by the matrix bound, not overflowed;
        # at the domain's edge the spectrum is exact
        with pytest.raises(InvalidParameter, match="^eigh input has Frobenius norm past"):
            eigh(np.diag([1e308, -1e308]))
        w, v = eigh(np.diag([2.0**127, -2.0**127]))
        assert w.tolist() == [-2.0**127, 2.0**127]
        assert np.array_equal(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidState, match="negative eigenvalue -1.701e"):
            check_density_matrix(np.array([[0.5, 2.0**127], [2.0**127, 0.5]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 5)
        w, v = eigh(h)
        assert np.all(np.diff(w) >= 0)
        assert frobenius(v @ np.diag(w) @ v.conj().T - h) <= 1e-10 * max(1, frobenius(h))
        assert frobenius(v.conj().T @ v - np.eye(5)) <= 1e-12 * 5


# near-coalescing eigenvalues, where scipy's Padé expm missed the 40-digit oracle by up
# to 6x, and far non-normal Jordan blocks, which a plain ‖A‖₁ scaling overscales
EXPM_CASES = {
    **{f"near-jordan-c{c:g}-s{s}": s * np.array([[-1j, c], [0, -1j - 1e-6]])
       for c in (1e-2, 1, 10, 100) for s in (1, 10, 30)},
    **{f"jordan-c{c:g}": np.array([[-1, c], [0, -1]], dtype=complex) for c in (1e3, 1e6, 1e12)},
}


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

    def test_overflow_raises(self):
        # e^1000 is past the float range: the squarings overflow, refused without a warning
        with pytest.raises(ConvergenceFailure):
            expm(1000 * np.eye(2))

    @pytest.mark.parametrize("a", EXPM_CASES.values(), ids=list(EXPM_CASES))
    def test_matches_40_digit_exponential(self, a):
        """Normwise against mpmath at 40 digits:
        max|expm(A) - e^A| <= 64 d eps (1 + ‖A‖_F) max(1, max|e^A|)."""
        ref = _to_numpy(_MP.expm(_mp_lift(a)))
        scale = (1 + frobenius(a)) * max(1.0, np.abs(ref).max())
        tol = 64 * len(a) * np.finfo(float).eps * scale
        assert np.abs(expm(a) - ref).max() <= tol

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
        assert np.all((-np.pi < lam) & (lam <= np.pi))  # the labels' range: an exact -1 is +pi
        ref = np.angle(np.linalg.eigvals(u))
        assert np.abs(_circular_sorted(-lam, ref) - _circular_sorted(ref, ref)).max() <= tol
        # the phases of one Cayley frame leave a gap across its cut of at least twice the
        # bound, which projections_of_unitary relies on to cluster them without a seam
        frame, _ = _cayley_eig(u)
        bound = min(np.pi / d, 2 * np.arcsin(np.sin(np.pi / (2 * d)) / np.sqrt(d)))
        assert 2 * np.pi - np.ptp(frame) >= 2 * (bound - 64 * d * np.finfo(float).eps)

    @pytest.mark.parametrize("u", [
        np.eye(1, dtype=complex), -np.eye(1, dtype=complex), np.array([[1j]]),
        -np.eye(3, dtype=complex), np.diag([-1, -1, 1j, 1]).astype(complex),
        np.diag([1, 1, -1, -1, 1j, -1j]).astype(complex),
        np.array([[-1 + 1e-200j]]),  # ‖(I + U)⁻¹‖_F overflows: the slice turns, unwarned
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

    def test_stack_decomposes_as_each_slice_alone(self):
        # an exact -1 eigenvalue (I + U singular), a slice turned for a phase near -1, a
        # random unitary and I, which keep r = 1: a stack's slices decompose bitwise alone
        q = random_unitary(np.random.default_rng(5), 3)
        stack = np.array([np.diag([-1, 1j, 1]).astype(complex),
                          (q * np.exp(-1j * np.array([3.1, -3.1, 0.5]))) @ q.conj().T,
                          q, np.eye(3, dtype=complex)])
        lam, z = _cayley_eig(stack)
        for k, u in enumerate(stack):
            alone = _cayley_eig(u)
            assert np.array_equal(lam[k], alone[0]) and np.array_equal(z[k], alone[1])
            self.check(u)
        assert _cayley_eig(stack[None])[0].shape == (1, 4, 3)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary, match="kick has unitarity defect"):
            unitary_eig(np.diag([1.0, 2.0]), "kick")
        with pytest.raises(NotUnitary):
            require_unitary(np.diag([1.0, 1.0 + 1e-6]))
        # U†U would overflow: refused by the matrix bound; at the domain's edge it does not
        with pytest.raises(InvalidParameter, match="^unitary has Frobenius norm past"):
            require_unitary(np.array([[1e200, 1e200], [1e200, -1e200]]))
        with pytest.raises(NotUnitary):
            require_unitary(np.array([[2.0**126, 2.0**126], [2.0**126, -2.0**126]]))
        assert np.array_equal(require_unitary(_shift(3)), _shift(3))


class TestPhaseGuard:
    @pytest.mark.parametrize("w, x", [
        (np.array([1.0 + 1e-20j]), 2.0**256),  # a roundoff-sized gain that exp overflows
        (np.array([1.0 + 1e-3j]), 4e4),  # a finite gain past 1/eps
    ], ids=["exp", "gain"])
    def test_refused_not_warned(self, w, x):
        evaluator = _SpectralEvaluator(w, np.eye(len(w), dtype=complex))
        with pytest.raises(ConvergenceFailure, match="^spectral phase exp"):
            evaluator(x)
        with pytest.raises(ConvergenceFailure, match="^spectral phase exp"):
            evaluator.states(np.array([0.0, x]), np.eye(len(w))[0].astype(complex))

    def test_time_past_the_domain_refused_not_warned(self):
        # w t would overflow for t = 1e308: propagator refuses any |t| past 2**256, the
        # largest K t; there its phases, for |w| up to 2**127, stay finite
        with pytest.raises(InvalidParameter, match=r"^t must be finite and of magnitude at "
                                                   r"most 2\*\*256, got 1e\+308$"):
            propagator(SX, 1e308)
        u = propagator(2.0**127 * SX, 2.0**256)
        assert np.abs(dagger(u) @ u - np.eye(2)).max() <= 1e-15

    def test_every_evaluator_refuses_a_time_past_the_domain(self):
        # the bound sits in the phases every evaluator takes, not in propagator alone;
        # the suite turns a RuntimeWarning into an error, so none is raised first
        h, psi = np.diag([2.0, 1.0]), np.array([1.0, 0.0], dtype=complex)
        refusal = r"^t must be finite and of magnitude at most 2\*\*256, got 1e\+308$"
        for ev in hermitian_evolution(h), nonhermitian_evolution((h - 0.5j * np.eye(2))[None]):
            with pytest.raises(InvalidParameter, match=refusal):
                ev(1e308)
            with pytest.raises(InvalidParameter, match=refusal):
                ev.states(np.array([0.0, 1e308]), psi)


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
        ev = nonhermitian_evolution(h[None])
        assert ev.ok.tolist() == [True]
        psi, rho = random_state(rng, 4), random_density(rng, 4)
        xs = np.array([0.0, 0.3, 1.7])
        for x, p, r in zip(xs, ev.states(xs, psi)[0], ev.states(xs, rho)[0]):
            u = expm(-1j * h * x)
            assert np.abs(ev(x)[0] - u).max() <= 1e-12
            assert np.abs(p - u @ psi).max() <= 1e-12
            assert np.abs(r - u @ rho @ u.conj().T).max() <= 1e-12

    def test_refuses_a_jordan_block(self):
        # one eigenvector for a double eigenvalue: eig's V is singular
        assert nonhermitian_evolution(np.array([[[-1j, 1], [0, -1j]]])).ok.tolist() == [False]

    def test_takes_only_a_stack(self):
        with pytest.raises(DimensionMismatch, match="generator stack must be"):
            nonhermitian_evolution(-1j * np.eye(2))


class TestStacks:
    """A stack (B, d, d) is one LAPACK call, with each slice as if alone."""

    def test_stacked_eigh_checks_and_matches_each_slice(self):
        rng = np.random.default_rng(5)
        hs = np.array([random_hermitian(rng, 4) for _ in range(5)])
        ev = hermitian_evolution(hs)
        xs = np.array([0.0, 0.4, 2.5])
        psi, rho = random_state(rng, 4), random_density(rng, 4)
        us, vecs, dens = ev(1.3), ev.states(xs, psi), ev.states(xs, rho)
        for b, h in enumerate(hs):
            one = hermitian_evolution(h)
            assert np.array_equal(us[b], one(1.3))
            assert np.array_equal(vecs[b], one.states(xs, psi))
            assert np.array_equal(dens[b], one.states(xs, rho))
        assert np.array_equal(hermitian_evolution(hs[0])(xs), [ev(x)[0] for x in xs])
        assert np.array_equal(propagator(hs[0], xs), [propagator(hs[0], x) for x in xs])
        bad = hs.copy()
        bad[3, 0, 1] += 1e-6
        with pytest.raises(NotHermitian, match="eigh input has relative asymmetry"):
            eigh(bad)
        assert np.allclose(hermiticity_defect(bad), [hermiticity_defect(h) for h in bad],
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spoil", ["asymmetric", "past-bound", "huge", "inf", "nan"])
    def test_stacked_eigh_refuses_the_first_failing_slice_as_alone(self, spoil):
        # the stack is checked in one pass, with no RuntimeWarning from its inf or huge
        # entries; slice 3 fails first, and slice 5 fails as well
        rng = np.random.default_rng(8)
        hs = np.array([random_hermitian(rng, 4) for _ in range(7)])
        value = {"asymmetric": hs[3, 0, 1] + 1e-6, "past-bound": 2.0**128,
                 "huge": 1e300, "inf": np.inf, "nan": np.nan}[spoil]
        hs[3, 0, 1] = value
        hs[5, 1, 2] = hs[5, 2, 1] = np.nan
        with pytest.raises(Exception) as alone:
            eigh(hs[3])
        assert isinstance(alone.value, (NotHermitian, InvalidParameter))
        with pytest.raises(type(alone.value)) as stacked:
            eigh(hs)
        assert str(stacked.value) == str(alone.value)

    def test_stacked_eigh_refuses_a_non_square_stack_as_its_slice(self):
        for hs in np.zeros((3, 2, 4)), np.full((3, 2, 4), np.nan):
            with pytest.raises(DimensionMismatch, match=r"^eigh input must be square, got "
                                                        r"shape \(2, 4\)$"):
                eigh(hs)

    def test_stacked_eig_guards_each_slice(self):
        rng = np.random.default_rng(6)
        jordan = np.zeros((3, 3), dtype=complex)
        jordan[:2, :2] = [[-1j, 1], [0, -1j]]
        hs = np.array([random_hermitian(rng, 3) - 0.3j * np.eye(3), jordan,
                       random_hermitian(rng, 3) - 0.1j * np.diag([0, 1, 2])])
        ev = nonhermitian_evolution(hs)
        assert ev.ok.tolist() == [True, False, True]
        psi, xs = random_state(rng, 3), np.array([0.0, 0.7])
        for b in (0, 2):
            one = nonhermitian_evolution(hs[b:b + 1])
            assert np.array_equal(ev(0.7)[b], one(0.7)[0])
            assert np.array_equal(ev.states(xs, psi)[b], one.states(xs, psi)[0])
        assert nonhermitian_evolution(hs[1:2]).ok.tolist() == [False]


class TestDensityRoute:
    """states() on a density matrix: each x one row of one GEMM over v ⊗ v*."""

    XS = np.array([0.0, 0.3, 1.7, 6.0])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_propagator_and_40_digits(self, d):
        rng = np.random.default_rng(30 + d)
        hs = np.array([random_hermitian(rng, d) for _ in range(3)])
        rho, eps = random_density(rng, d), np.finfo(float).eps
        stacked = hermitian_evolution(hs).states(self.XS, rho)
        for b, h in enumerate(hs):
            one = hermitian_evolution(h).states(self.XS, rho)
            assert np.array_equal(stacked[b], one)
            for x, got in zip(self.XS, one):
                u = propagator(h, x)
                bound = 64 * d * eps * (1 + opnorm(h) * x)
                assert np.abs(got - u @ rho @ dagger(u)).max() <= bound
                if b == 0 and x:
                    assert np.abs(got - _mp_evolved(h, rho, x)).max() <= bound

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_nonhermitian_stack_matches_each_slice(self, d):
        # v⁻¹ ≠ v†: the lift is v ⊗ v*, the state is rotated by v⁻¹ and v⁻†
        rng = np.random.default_rng(50 + d)
        hs = np.array([random_hermitian(rng, d) - 0.4j * np.diag(rng.uniform(0, 1, d))
                       for _ in range(3)])
        rho = random_density(rng, d)
        ev = nonhermitian_evolution(hs)
        assert ev.ok.all()
        stacked = ev.states(self.XS, rho)
        for b, h in enumerate(hs):
            assert np.array_equal(stacked[b], nonhermitian_evolution(h[None]).states(
                self.XS, rho)[0])
            for x, got in zip(self.XS, stacked[b]):
                u = expm(-1j * h * x)
                assert np.abs(got - u @ rho @ dagger(u)).max() <= 1e-12


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

    @pytest.mark.parametrize("subnormalized", [False, True])
    def test_norm_past_the_float_range_refused_not_warned(self, subnormalized):
        # ||psi||² overflows to inf, or to NaN for a complex entry: the norm check refuses
        # both, and the one BLAS sum it takes warns nothing
        for psi in ([1e200, 1e200j, 0.0, 0.0], [1.7e308, 1.7e308],
                    [1.7e308 + 1.7e308j, 0.0]):
            with pytest.raises(InvalidState, match=r"norm (inf|nan), expected"):
                check_state_vector(psi, subnormalized=subnormalized)

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

    def test_trace_past_the_float_range_refused_not_warned(self):
        # tr = 2e308 would be inf: the matrix bound refuses rho first; at the domain's edge
        # the trace is taken plainly and refused by its value
        with pytest.raises(InvalidParameter, match="^density matrix has Frobenius norm past"):
            check_density_matrix(np.diag([1e308, 1e308]).astype(complex))
        with pytest.raises(InvalidState, match=r"trace 3\.402823669209e\+38"):
            check_density_matrix(np.diag([2.0**128, 0.0]).astype(complex))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_state_vector(np.array([1.0, 0, 0], dtype=complex), dim=2)

    @pytest.mark.parametrize("check, state, error, message", [
        (check_state_vector, np.eye(2), InvalidState, r"must be 1-D, got shape \(2, 2\)"),
        (check_state_vector, np.array([1.0, np.nan]), InvalidState, "non-finite entries"),
        (lambda rho: check_density_matrix(rho, dim=3), np.eye(2) / 2, DimensionMismatch,
         "density matrix is 2-dim, expected 3"),
        # the norms would overflow: refused by the matrix bound before the asymmetry
        (check_density_matrix, np.array([[0.5, 1e200], [-1e200, 0.5]]), InvalidParameter,
         r"^density matrix has Frobenius norm past 2\*\*128$"),
    ], ids=["vector-2d", "vector-non-finite", "density-dimension", "density-overflowing"])
    def test_malformed_state_refused(self, check, state, error, message):
        with pytest.raises(error, match=message):
            check(state)


def test_norms_of_an_empty_stack_are_empty():
    assert _norms(np.zeros((0, 3, 3))).shape == (0,)
