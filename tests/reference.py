"""40-digit mpmath references shared by the oracle and certificate tests.

Every float input is lifted exactly into the one 40-digit context ``_MP``, so a
reference shares no rounding with the numpy code it judges.
"""

import mpmath
import numpy as np

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


def _mp_evolved(h, rho, x) -> np.ndarray:
    """exp(-i h x) rho exp(-i h x)† at 40 digits, from the exact float inputs."""
    u = _MP.expm(_mp_lift(h) * _MP.mpc(0, -x))
    return _to_numpy(u * _mp_lift(rho) * u.H)


def projective_curve_distance(h, projectors, rho0, t: float, n: int):
    """Frobenius distance of the N-round measured state to U_Z pinch(rho0) U_Z†, 40 digits.

    With row-major vec, one round pinch ∘ U(t/N) is sum_n (P_n U) ⊗ (U† P_n)ᵀ, powered
    by squaring; U_Z = exp(-i H_Z t) with H_Z = sum_n P_n H P_n.
    """
    dim, n = len(h), int(n)
    ps = [_mp_lift(p) for p in projectors]
    pinched = sum((p * _mp_lift(rho0) * p for p in ps), _MP.zeros(dim))
    hm = _mp_lift(h)
    u_z = _MP.expm(-1j * sum((p * hm * p for p in ps), _MP.zeros(dim)) * _MP.mpf(t))
    limit = u_z * pinched * u_z.H
    u = _MP.expm(-1j * hm * (_MP.mpf(t) / n))
    step = sum((_mp_kron(p * u, (u.H * p).T) for p in ps), _MP.zeros(dim * dim))
    vec0 = _MP.matrix([pinched[i, j] for i in range(dim) for j in range(dim)])
    final = _mp_power(step, n) * vec0
    return _MP.sqrt(sum(abs(final[i * dim + j] - limit[i, j]) ** 2
                        for i in range(dim) for j in range(dim)))
