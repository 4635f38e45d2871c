"""Dense complex linear algebra kernels.

Thin, validating wrappers around LAPACK via numpy.  A unitary is diagonalised
through the Hermitian Cayley transform of itself; scipy (imported on first use)
serves only the Padé exponential of a non-normal matrix.  Matrices are
complex128; states are 1-D vectors or square density matrices.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParameter,
    InvalidState,
    NotHermitian,
    NotUnitary,
)

# relative asymmetry ||A - A†|| / max(1, ||A||) of a required Hermitian input
HERMITICITY_TOL = 1e-10
# allowed ||U†U - I|| for a unitary input
UNITARITY_TOL = 1e-10
# trace unit: |tr rho - 1| and a state vector's |‖psi‖² - 1| may reach 10x this
TRACE_TOL = 1e-10
# magnitude of negative eigenvalues tolerated in a density matrix
POSITIVITY_TOL = 1e-10
# largest cond(V) nonhermitian_evolution accepts, so its roundoff, about cond(V) eps,
# stays below 1000 eps; the decay model passes it only within 2e-5 of its EP in K
EIG_COND_LIMIT = 1e3

__all__ = [
    "as_square_matrix",
    "dagger",
    "frobenius",
    "opnorm",
    "hermiticity_defect",
    "require_hermitian",
    "require_unitary",
    "eigh",
    "unitary_eig",
    "expm",
    "hermitian_evolution",
    "unitary_powers",
    "nonhermitian_evolution",
    "propagator",
    "check_state_vector",
    "check_density_matrix",
]


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameter(f"{name} contains non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def opnorm(a) -> float:
    """Operator (spectral) norm: the largest singular value."""
    m = as_square_matrix(a, "opnorm argument")
    return float(np.linalg.norm(m, 2))


def hermiticity_defect(a: np.ndarray) -> float:
    """Relative asymmetry ||A - A†|| / max(1, ||A||), Frobenius."""
    return frobenius(a - dagger(a)) / max(1.0, frobenius(a))


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    m = as_square_matrix(a, name)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"{name} has relative asymmetry {defect:.3e} "
                           f"(tolerance {HERMITICITY_TOL:.1e})")
    return m


def require_unitary(u, name: str = "unitary") -> np.ndarray:
    m = as_square_matrix(u, name)
    defect = frobenius(dagger(m) @ m - np.eye(m.shape[0]))  # ||U†U - I||
    if defect > UNITARITY_TOL:
        raise NotUnitary(f"{name} has unitarity defect {defect:.3e} "
                         f"(tolerance {UNITARITY_TOL:.1e})")
    return m


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w ascending and orthonormal eigenvector
    columns v, so h == v @ diag(w) @ v†.  The input is validated against
    HERMITICITY_TOL first and symmetrized before the LAPACK call so the
    result is exactly consistent with a Hermitian operator.
    """
    m = require_hermitian(h, "eigh input")
    m = 0.5 * (m + dagger(m))
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    return w, v


def unitary_eig(u, name: str = "unitary") -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases lam in [-pi, pi] and eigenvectors z with u = z diag(e^{-i lam}) z†.

    One eigh of the Hermitian Cayley transform A = i(B - B†), B = (I + r u)⁻¹,
    whose eigenvectors are u's and eigenvalues a = tan((arg r - lam)/2).  As
    ||(A + i)⁻¹|| <= 1, the backward error in u is at most 2 ||δA||, O(eps)
    while ||B|| is O(1).  The rotation r is 1 unless I + u is singular or
    ||B||_F² = sum (1 + a²)/4 puts the rms of a above cot(pi/2d); then r turns
    the middle of the widest gap between u's eigenphases, at least 2 pi/d
    wide, onto -1, which bounds every |a| by cot(pi/2d).
    """
    m = require_unitary(u, name)
    d, rot = m.shape[0], 0.0  # rot = arg r
    try:
        b = np.linalg.inv(np.eye(d) + m)
    except np.linalg.LinAlgError:  # u has eigenvalue -1
        b = np.full_like(m, np.nan)
    if not np.vdot(b, b).real <= d / (2.0 * np.sin(np.pi / (2 * d))) ** 2:  # NaN fails
        phi = np.sort(np.angle(np.linalg.eigvals(m)))
        gaps = np.diff(phi, append=phi[0] + 2.0 * np.pi)
        rot = np.pi - phi[np.argmax(gaps)] - 0.5 * gaps.max()
        b = np.linalg.inv(np.eye(d) + np.exp(1j * rot) * m)
    a, z = np.linalg.eigh(1j * (b - dagger(b)))
    lam = rot - 2.0 * np.arctan(a)
    if rot:  # wrap; unrotated phases already lie in (-pi, pi)
        lam = (lam + np.pi) % (2.0 * np.pi) - np.pi
    return lam, z


def expm(a) -> np.ndarray:
    """Matrix exponential exp(A) by scipy's Padé routine, imported on first use.

    Each generator has one route: a Hermitian one ``hermitian_evolution``, a
    unitary ``unitary_powers``, any other diagonalisable one
    ``nonhermitian_evolution``.  This is the fallback for a defective (or
    nearly defective) generator, whose eigenvectors that route refuses.
    """
    m = as_square_matrix(a, "expm input")
    import scipy.linalg
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out)):
        raise ConvergenceFailure("expm produced non-finite entries")
    return out


def hermitian_evolution(h):
    """Validate and eigendecompose Hermitian h once; return t -> exp(-i h t).

    Every evaluation is V exp(-i w t) V†, exactly unitary up to roundoff for
    any real t, so sampling many times costs one eigh.  The returned
    evaluator's ``states(ts, state)`` evolves one state to many times.
    """
    return _SpectralEvaluator(*eigh(h))


def unitary_powers(u, name: str = "unitary"):
    """Validate and diagonalise a unitary once (``unitary_eig``); return k -> u^k.

    Each Z diag(e^{-i k lam}) Z† is unitary up to roundoff at a cost
    independent of the integer k, which may be negative.  The returned
    evaluator's ``states(ks, state)`` applies many powers to one state.
    """
    return _SpectralEvaluator(*unitary_eig(u, name))


def nonhermitian_evolution(h):
    """One eig of any square h: t -> V exp(-i w t) V⁻¹, or None if ill-conditioned.

    Roundoff grows like cond(V) eps (Moler & Van Loan, SIAM Review 45, 2003) and V
    is singular where eigenvalues coalesce, at an exceptional point (EP): above
    EIG_COND_LIMIT this returns None and the caller falls back to ``expm``.
    """
    w, v = np.linalg.eig(as_square_matrix(h, "generator"))
    return (_SpectralEvaluator(w, v, np.linalg.inv(v))
            if np.linalg.cond(v) <= EIG_COND_LIMIT else None)


class _SpectralEvaluator:
    """x -> v diag(e^{-i w x}) v⁻¹; v⁻¹ defaults to v† (real w, unitary v)."""

    def __init__(self, w: np.ndarray, v: np.ndarray, v_inv=None):
        self.w, self.v, self._vd = w, v, dagger(v)
        self._vi, self._vid = (self._vd, v) if v_inv is None else (v_inv, dagger(v_inv))

    def __call__(self, x) -> np.ndarray:
        return (self.v * np.exp(-1j * self.w * x)) @ self._vi

    def states(self, xs, state: np.ndarray) -> np.ndarray:
        """u(x) psi, or u(x) rho u(x)†, stacked over xs.

        The state is rotated into the eigenbasis once and every x costs only
        its phases e(x) = e^{-i w x} inside one batched product, not a d×d
        propagator: psi(x) = v (e(x) ∘ v⁻¹ psi) and
        rho(x) = v ((e(x) e(x)†) ∘ v⁻¹ rho v⁻†) v†.
        """
        e = np.exp(-1j * self.w * np.asarray(xs)[:, None])
        if state.ndim == 1:
            return (e * (self._vi @ state)) @ self.v.T
        r = self._vi @ state @ self._vid
        return self.v @ (e[:, :, None] * r * e.conj()[:, None, :]) @ self._vd


def propagator(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h and finite t, exactly unitary up to roundoff."""
    if not (-np.inf < t < np.inf):
        raise InvalidParameter(f"t must be finite, got {t!r}")
    return hermitian_evolution(h)(t)


def check_state_vector(psi, dim: int | None = None, *,
                       subnormalized: bool = False) -> np.ndarray:
    """Validate a state vector: finite, right length, norm 1 (or ≤ 1).

    Norm 1 means |‖psi‖² - 1| ≤ 10 TRACE_TOL, the trace check on |psi><psi|.
    With ``subnormalized`` the norm may lie anywhere in (0, 1 + TRACE_TOL]; the
    deficit 1 - ||psi||² is then interpreted as probability leaked out of the
    modelled levels.
    """
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1:
        raise InvalidState(f"state vector must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"state vector has length {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise InvalidState("state vector contains non-finite entries")
    n = float(np.linalg.norm(v))
    if subnormalized:
        if not (0.0 < n <= 1.0 + TRACE_TOL):
            raise InvalidState(f"subnormalized state has norm {n:.6e}, expected in (0, 1]")
    elif abs(n * n - 1.0) > TRACE_TOL * 10:
        raise InvalidState(f"state vector has norm {n:.12e}, expected 1")
    return v


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite."""
    m = as_square_matrix(rho, "density matrix")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatch(f"density matrix is {m.shape[0]}-dim, expected {dim}")
    if hermiticity_defect(m) > HERMITICITY_TOL:
        raise InvalidState("density matrix is not Hermitian")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL * 10:
        raise InvalidState(f"density matrix has trace {tr:.12e}, expected 1")
    w = np.linalg.eigvalsh(0.5 * (m + dagger(m)))
    if w.min() < -POSITIVITY_TOL:
        raise InvalidState(f"density matrix has negative eigenvalue {w.min():.3e}")
    return m
