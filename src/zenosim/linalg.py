"""Dense complex linear algebra kernels.

Thin, validating wrappers around LAPACK via numpy, the only runtime dependency.  A
unitary is diagonalised through the Hermitian Cayley transform of itself, and a
defective generator exponentiated by a scaled and squared Taylor polynomial.
Matrices are complex128; states are 1-D vectors or square density matrices.
"""

from __future__ import annotations

import math

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
# the magnitude domain: every scalar input (t, K, a model parameter) is 0 or of magnitude
# in [1 / MAGNITUDE_BOUND, MAGNITUDE_BOUND], and every matrix of Frobenius norm at most it
MAGNITUDE_BOUND = 3.402823669209385e38  # 2**128
# largest growth exponent Re(-i w x) of a spectral phase: log(1/eps), about 36.04
_MAX_GAIN = -math.log(np.finfo(float).eps)
# largest ‖V‖_F ‖V⁻¹‖_F >= cond₂(V) nonhermitian_evolution accepts, so its roundoff,
# about cond(V) eps, stays below 1000 eps; the decay model passes it within 4e-5 of its EP
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
    "nonhermitian_evolution",
    "propagator",
    "check_state_vector",
    "check_density_matrix",
]


def _is_real(x) -> bool:
    """Whether x is one real number: a Python or numpy int or float, or a 0-d array of one."""
    return type(x) in (float, int) or (isinstance(x, (np.generic, np.ndarray))
                                       and x.ndim == 0 and x.dtype.kind in "iuf")


def _check_scalar(x, name: str, least: str = ""):
    """x if ``_is_real``, 0 or of magnitude in [2**-128, 2**128], and > 0 or >= 0 per ``least``."""
    v = (x if type(x) is int else float(x)) if _is_real(x) else np.nan  # float64 or any int
    if ((v == 0 or 1.0 / MAGNITUDE_BOUND <= abs(v) <= MAGNITUDE_BOUND)  # NaN fails
            and (v > 0 or not least or (v == 0 and least == ">= 0"))):
        return x
    sign = {"": "finite", ">= 0": "a finite real >= 0", "> 0": "finite and positive"}[least]
    raise InvalidParameter(f"{name} must be {sign}, with magnitude {'0 or ' * (least != '> 0')}"
                           f"in [2**-128, 2**128], got {x!r}")


def _as_array(x, name: str, ndim=(2,), dtype=np.dtype(complex), what: str = "square",
              error=DimensionMismatch) -> np.ndarray:
    """x as a non-empty ndarray of ``dtype`` with ndim in ``ndim``, else ``error``: ``name``
    must be ``what``.  ``dtype`` None keeps x's own, which must be an int or float one, so
    int64 counts stay exact.  What numpy cannot convert (a ragged list, a dict, a malformed
    string, an int past the float range) is refused here, the one place an input converts."""
    try:
        a = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be {what}, got {type(x).__name__}: {exc}") from None
    if a.ndim in ndim and a.size and (dtype is not None or a.dtype.kind in "iuf"):
        return a
    got = ("an empty array" if not a.size else f"shape {a.shape}" if a.ndim not in ndim
           else f"dtype {a.dtype}")
    raise error(f"{name} must be {what}, got {got}")


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array; refuse it unless finite with ‖m‖_F <= 2**128."""
    m = _as_array(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return _bounded(m, name)


def _bounded(m: np.ndarray, name: str) -> np.ndarray:
    """m, if finite with ‖m‖_F <= 2**128 (a stack counts as one matrix); else the error."""
    if not np.vdot(m, m).real <= MAGNITUDE_BOUND * MAGNITUDE_BOUND:  # NaN fails
        raise InvalidParameter(f"{name} contains non-finite entries" if not np.isfinite(m).all()
                               else f"{name} has Frobenius norm past 2**128")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix in a stack (B, d, d) too."""
    return a.conj().swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m†) / 2, each half taken first so no entry near the float limit overflows."""
    return 0.5 * m + 0.5 * dagger(m)


def frobenius(a) -> float:
    """Frobenius norm of a vector, matrix or stack: one BLAS sum, inf past 2**512, no warning."""
    m = _as_array(a, "frobenius argument", (1, 2, 3), what="a vector, a matrix or a stack")
    return float(np.sqrt(np.vdot(m, m).real))


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix in a stack."""
    flat = x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])  # a (0, d, d) stack too
    return np.sqrt(np.vecdot(flat, flat).real)


def opnorm(a) -> float:
    """Operator (spectral) norm: the largest singular value."""
    m = as_square_matrix(a, "opnorm argument")
    return float(np.linalg.norm(m, 2))


def hermiticity_defect(a: np.ndarray):
    """Relative asymmetry ||A - A†|| / max(1, ||A||), Frobenius; (B,) for a stack."""
    return _norms(a - dagger(a)) / np.maximum(1.0, _norms(a))


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    m = as_square_matrix(a, name)
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:  # a NaN defect fails
        raise NotHermitian(f"{name} has relative asymmetry {defect:.3e} "
                           f"(tolerance {HERMITICITY_TOL:.1e})")
    return m


def require_unitary(u, name: str = "unitary") -> np.ndarray:
    m = as_square_matrix(u, name)
    defect = frobenius(dagger(m) @ m - np.eye(m.shape[0]))  # ||U†U - I||
    if not defect <= UNITARITY_TOL:
        raise NotUnitary(f"{name} has unitarity defect {defect:.3e} "
                         f"(tolerance {UNITARITY_TOL:.1e})")
    return m


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, v) with eigenvalues w ascending and orthonormal eigenvector
    columns v, so h == v @ diag(w) @ v†.  The input is validated against
    HERMITICITY_TOL first and symmetrized before the LAPACK call so the
    result is exactly consistent with a Hermitian operator.  A stack (B, d, d)
    is checked in one pass and decomposed in one call: w (B, d), v (B, d, d).
    """
    m = _as_array(h, "eigh input", (2, 3), what="square or a stack of square matrices")
    if m.ndim != 3 or m.shape[1] != m.shape[2]:  # a non-square stack fails at slice 0
        require_hermitian(m[0] if m.ndim == 3 else m, "eigh input")
    else:  # one pass; the first slice that fails is refused as it would be alone
        with np.errstate(over="ignore", invalid="ignore"):  # a test of inf or NaN fails
            ok = (_norms(m) <= MAGNITUDE_BOUND) & (hermiticity_defect(m) <= HERMITICITY_TOL)
        if not ok.all():
            require_hermitian(m[np.argmin(ok)], "eigh input")
    m = _hermitian_part(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    return w, v


def unitary_eig(u, name: str = "unitary") -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases lam in (-pi, pi] and eigenvectors z with u = z diag(e^{-i lam}) z†.

    One eigh of the Hermitian Cayley transform A = i(B - B†), B = (I + r u)⁻¹,
    whose eigenvectors are u's and eigenvalues a = tan((arg r - lam)/2).  As
    ||(A + i)⁻¹|| <= 1, the backward error in u is at most 2 ||δA||, O(eps)
    while ||B|| is O(1).  The rotation r is 1 unless I + u is singular or
    ||B||_F² = sum (1 + a²)/4 puts the rms of a above cot(pi/2d); then r turns
    the middle of the widest gap between u's eigenphases, at least 2 pi/d
    wide, onto -1, which bounds every |a| by cot(pi/2d).  So the cut of the
    circle, at arg r ± pi, lies at least min(pi/d, 2 asin(sin(pi/2d)/√d)) from
    every phase, and the phases are wrapped once, by ``_wrap_phase``.
    """
    lam, z = _cayley_eig(require_unitary(u, name))
    return _wrap_phase(lam), z


def _wrap_phase(x):
    """Map each phase to (-pi, pi]."""
    y = (x + np.pi) % (2.0 * np.pi) - np.pi
    return np.where(y <= -np.pi, y + 2.0 * np.pi, y)


def _cayley_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``unitary_eig`` of each unitary of a stack (..., d, d) that passed ``require_unitary``,
    unwrapped in its own frame (arg r - pi, arg r + pi), bitwise as the slice alone."""
    eye = np.eye(d := m.shape[-1])
    try:
        b = np.linalg.inv(c := eye + m)
    except np.linalg.LinAlgError:  # a slice has eigenvalue -1: its NaN turns it below
        ok = (np.linalg.slogdet(c)[0] != 0)[..., None, None]
        b = np.where(ok, np.linalg.inv(np.where(ok, c, eye)), np.nan)
    with np.errstate(over="ignore"):  # an inf or NaN ‖B‖_F turns
        turn = ~(_norms(b) <= d**0.5 / (2.0 * np.sin(np.pi / (2 * d))))
    rot = np.zeros(turn.shape)  # arg r
    if turn.any():
        phi = np.sort(np.angle(np.linalg.eigvals(m[turn])))
        gaps = np.diff(phi, append=phi[:, :1] + 2.0 * np.pi)
        rot[turn] = np.pi - phi[range(len(phi)), gaps.argmax(1)] - 0.5 * gaps.max(1)
        b[turn] = np.linalg.inv(eye + np.exp(1j * rot[turn])[:, None, None] * m[turn])
    a, z = np.linalg.eigh(1j * (b - dagger(b)))
    return rot[..., None] - 2.0 * np.arctan(a), z


def expm(a) -> np.ndarray:
    """Matrix exponential exp(A) by scaling and squaring a degree-18 Taylor polynomial.

    Each generator has one route: a Hermitian one ``hermitian_evolution``, a
    unitary's powers ``unitary_eig``, any other diagonalisable one
    ``nonhermitian_evolution``.  This is the fallback for a defective (or
    nearly defective) generator, a slice that route's ``ok`` marks False.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005) by the least s >= 0
    with α = max(‖A⁴‖₁^(1/4), ‖A⁵‖₁^(1/5)) < 2^s, which overscales a non-normal A far less
    than ‖A‖₁ (Al-Mohy and Higham, ibid. 31, 2009).  Error: max|expm(A) - e^A| <= 64 d eps
    (1 + ‖A‖_F) max(1, max|e^A|); the squarings lose about 2^s eps on a large A, as scipy's
    did on a non-triangular one, and a squaring that overflows raises ConvergenceFailure.
    """
    m = as_square_matrix(a, "expm input")
    c = max(np.linalg.norm(m, 1), 1.0)  # the powers of m / c are at most 1: no overflow
    x4 = np.linalg.matrix_power(m / c, 4)
    alpha = c * max(np.linalg.norm(x4, 1) ** 0.25, np.linalg.norm(x4 @ m / c, 1) ** 0.2)
    # α(X) < 1 for X = A / 2^s bounds the remainder sum_{k>=19} X^k / k! by sum_{k>=19}
    # 1 / k! < eps / 16 (Al-Mohy and Higham's Theorem 4.2, as 19 >= 4 * 3): degree 18
    s = max(0, math.frexp(alpha)[1])
    x, out = m / 2.0 ** s, (eye := np.eye(len(m)))
    for k in range(18, 0, -1):
        out = eye + x @ out / k
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves inf or NaN
        out = np.linalg.matrix_power(out, 2 ** s)  # s squarings
    if not np.all(np.isfinite(out)):
        raise ConvergenceFailure("expm produced non-finite entries")
    return out


def hermitian_evolution(h):
    """Validate and eigendecompose Hermitian h once; return t -> exp(-i h t).

    Every evaluation is V exp(-i w t) V†, exactly unitary up to roundoff for
    any |t| <= 2**256, so sampling many times costs one eigh.  The returned
    evaluator's ``states(ts, state)`` evolves one state to many times.
    """
    return _SpectralEvaluator(*eigh(h))


def nonhermitian_evolution(h):
    """One batched eig of a stack h (B, d, d): slice b gives t -> V exp(-i w t) V⁻¹.

    Roundoff grows like cond(V) eps (Moler & Van Loan, SIAM Review 45, 2003) and V
    is singular where eigenvalues coalesce, at an exceptional point (EP).  One eig
    and inv serve the stack; ``ok`` marks the slices whose ‖V‖_F ‖V⁻¹‖_F >= cond₂(V)
    is within EIG_COND_LIMIT, the rest take V = I and the caller's ``expm``.
    """
    m = _as_array(h, "generator stack", (3,), what="(B, d, d)")
    with np.errstate(over="ignore", invalid="ignore"):  # the first slice that fails, as alone
        as_square_matrix(m[np.argmin(_norms(m) <= MAGNITUDE_BOUND)], "generator stack")
    w, v = np.linalg.eig(m)
    eye = np.eye(m.shape[-1])
    # unit columns make cond₂(V) >= |det V|^(-1/d): I replaces such a V, lest inv raise
    ok = np.linalg.slogdet(v)[1] >= -m.shape[-1] * np.log(EIG_COND_LIMIT)
    v_inv = np.linalg.inv(np.where(ok[:, None, None], v, eye))
    ok &= _norms(v) * _norms(v_inv) <= EIG_COND_LIMIT
    v, v_inv = (np.where(ok[:, None, None], x, eye) for x in (v, v_inv))
    return _SpectralEvaluator(w, v, v_inv, ok)


def _lift(u: np.ndarray) -> np.ndarray:
    """u ⊗ u*, entry (i d + k, j d + l) u_ij u*_kl: row-major vec(u x u†), stacks too."""
    uu = u[..., :, None, :, None] * u.conj()[..., None, :, None, :]
    return uu.reshape(*u.shape[:-2], u.shape[-1] ** 2, -1)


def _phases(w: np.ndarray, x, ndim) -> np.ndarray:
    """e^{-i w x} on a new last axis of a real x (a complex x grows or shrinks e) of ndim in
    ``ndim`` and |x| <= 2**256, the largest K t, so w x stays finite; refused where |e| passes
    1/eps (lifting the roundoff along an eigenvector above the state; real w: |e| = 1) or NaN."""
    x = _as_array(x, "t", ndim, None, "real: " + "a number or " * (0 in ndim) + "a 1-D array",
                  InvalidParameter)[..., None]
    if not np.all(inside := np.abs(x, dtype=float) <= MAGNITUDE_BOUND * MAGNITUDE_BOUND):
        raise InvalidParameter(f"t must be finite and of magnitude at most 2**256, "
                               f"got {float(x[~inside][0])!r}")
    z = -1j * w * x
    if w.dtype.kind == "c" and not z.real.max() <= _MAX_GAIN:
        raise ConvergenceFailure(f"spectral phase exp(-i w x): growth exponent "
                                 f"{z.real.max():.3e} passes 1/eps")
    return np.exp(z)


class _SpectralEvaluator:
    """x -> v diag(e^{-i w x}) v⁻¹; v⁻¹ defaults to v† (real w, unitary v).

    An array x (B,) gives the stack (B, d, d) of u(x[b]).  So does a batch axis,
    w (B, d) and v, v⁻¹ (B, d, d): slice b is a generator of its own.  Every phase
    passes ``_phases``: an x past 2**256 raises InvalidParameter, and a phase that
    grows past 1/eps ConvergenceFailure.
    """

    def __init__(self, w: np.ndarray, v: np.ndarray, v_inv=None, ok=True):
        self.w, self.v, self.ok = w, v, ok
        self._vi, self._vid = (dagger(v), v) if v_inv is None else (v_inv, dagger(v_inv))

    def __call__(self, x) -> np.ndarray:
        e = _phases(self.w, x, (0, 1))[..., None, :]
        return (self.v * e) @ self._vi

    def states(self, xs, state: np.ndarray) -> np.ndarray:
        """u(x) psi, or u(x) rho u(x)†, stacked over xs (after any batch axis).

        The state is rotated into the eigenbasis once, so each x costs its phases
        e(x) = e^{-i w x}: psi(x) = v (e(x) ∘ v⁻¹ psi), and on the row-major vec each
        rho(x) = (v ⊗ v*) (vec(e(x) e(x)†) ∘ vec(v⁻¹ rho v⁻†)) is one row of one GEMM.
        """
        e = _phases(self.w[..., None, :], xs, (1,))
        if state.ndim == 1:
            return (e * (self._vi @ state)[..., None, :]) @ self.v.swapaxes(-1, -2)
        r = (self._vi @ state @ self._vid).reshape(*self.w.shape[:-1], -1, 1)
        ee = (e[..., :, None] * e.conj()[..., None, :]).reshape(*e.shape[:-1], -1)
        return (ee @ (r * _lift(self.v).swapaxes(-1, -2))).reshape(*e.shape, -1)


def propagator(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h and |t| <= 2**256, exactly unitary up to roundoff.

    A stack h (B, d, d) or an array t (B,) gives a stack (B, d, d).
    """
    return hermitian_evolution(h)(t)


def check_state_vector(psi, dim: int | None = None, *,
                       subnormalized: bool = False) -> np.ndarray:
    """Validate a state vector: finite, right length, norm 1 (or ≤ 1).

    Norm 1 means |‖psi‖² - 1| ≤ 10 TRACE_TOL, the trace check on |psi><psi|.
    With ``subnormalized`` the norm may lie anywhere in (0, 1 + TRACE_TOL]; the
    deficit 1 - ||psi||² is then interpreted as probability leaked out of the
    modelled levels.
    """
    v = _as_array(psi, "state vector", (1,), what="1-D", error=InvalidState)
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"state vector has length {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise InvalidState("state vector contains non-finite entries")
    n = float(np.sqrt(np.vdot(v, v).real))  # one BLAS sum: inf or NaN past 2**512, no warning
    if subnormalized:
        if not (0.0 < n <= 1.0 + TRACE_TOL):
            raise InvalidState(f"subnormalized state has norm {n:.6e}, expected in (0, 1]")
    elif not abs(n * n - 1.0) <= TRACE_TOL * 10:  # NaN fails
        raise InvalidState(f"state vector has norm {n:.12e}, expected 1")
    return v


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite."""
    m = as_square_matrix(rho, "density matrix")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatch(f"density matrix is {m.shape[0]}-dim, expected {dim}")
    if not hermiticity_defect(m) <= HERMITICITY_TOL:
        raise InvalidState("density matrix is not Hermitian")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL * 10:
        raise InvalidState(f"density matrix has trace {tr:.12e}, expected 1")
    w = np.linalg.eigvalsh(_hermitian_part(m))
    if w.min() < -POSITIVITY_TOL:
        raise InvalidState(f"density matrix has negative eigenvalue {w.min():.3e}")
    return m


def _check_state(state, dim: int, *, subnormalized: bool = False) -> np.ndarray:
    """A 2-D state checked as a density matrix, a 1-D one as a state vector."""
    s = _as_array(state, "state", (1, 2), what="a vector or a square matrix", error=InvalidState)
    return (check_density_matrix(s, dim) if s.ndim == 2
            else check_state_vector(s, dim, subnormalized=subnormalized))
