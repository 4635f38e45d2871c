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


def _mp_measured(h, projectors, rho0, t: float, n: int):
    """(P_n lifted, vec(pinch rho0), one round pinch ∘ U(t/N)) at 40 digits.

    With row-major vec, one round is sum_n (P_n U) ⊗ (U† P_n)ᵀ.
    """
    dim, ps, hm = len(h), [_mp_lift(p) for p in projectors], _mp_lift(h)
    pinched = sum((p * _mp_lift(rho0) * p for p in ps), _MP.zeros(dim))
    u = _MP.expm(-1j * hm * (_MP.mpf(t) / int(n)))
    step = sum((_mp_kron(p * u, (u.H * p).T) for p in ps), _MP.zeros(dim * dim))
    return ps, _MP.matrix([pinched[i, j] for i in range(dim) for j in range(dim)]), step


def _mp_unvec(vec, dim: int):
    return _MP.matrix([[vec[i * dim + j] for j in range(dim)] for i in range(dim)])


def _mp_zeno_propagator(h, projectors, t: float):
    """U_Z = exp(-i H_Z t) with H_Z = sum_n P_n H P_n, 40 digits."""
    ps, hm = [_mp_lift(p) for p in projectors], _mp_lift(h)
    return _MP.expm(-1j * sum((p * hm * p for p in ps), _MP.zeros(len(h))) * _MP.mpf(t))


def projective_curve_distance(h, projectors, rho0, t: float, n: int):
    """Frobenius distance of the N-round measured state to U_Z pinch(rho0) U_Z†, 40 digits.

    The round of ``_mp_measured`` is powered by squaring.
    """
    dim = len(h)
    _, vec0, step = _mp_measured(h, projectors, rho0, t, n)
    u_z, pinched = _mp_zeno_propagator(h, projectors, t), _mp_unvec(vec0, dim)
    final = _mp_unvec(_mp_power(step, int(n)) * vec0, dim)
    return _MP.mnorm(final - u_z * pinched * u_z.H, "f")


def projective_series_rows(h, projectors, rho0, t: float, n: int, steps):
    """Rows (p_1, .., p_k, purity, then ‖P_n rho P_m‖_F for n < m) of the measured state
    after each of the ascending ``steps`` rounds out of N in time t, 40 digits."""
    dim = len(h)
    ps, vec, step = _mp_measured(h, projectors, rho0, t, n)
    rows, done, powers = [], 0, {}
    for k in steps:
        if k - done not in powers:
            powers[k - done] = _mp_power(step, k - done)
        vec, done = powers[k - done] * vec, k
        rho = _mp_unvec(vec, dim)
        rows.append([_MP.re(sum((p * rho)[i, i] for i in range(dim))) for p in ps]
                    + [_MP.re(sum((rho * rho)[i, i] for i in range(dim)))]
                    + [_MP.mnorm(ps[a] * rho * ps[b], "f")
                       for a in range(len(ps)) for b in range(a + 1, len(ps))])
    return rows


def kick_limit_distance(h, u_kick, projectors, t: float, n: int):
    """Spectral-norm distance of U_kick^-N [U_kick U(t/N)]^N to U_Z, 40 digits; U_Z is
    ``_mp_zeno_propagator`` of the kick's projectors."""
    n, uk = int(n), _mp_lift(u_kick)
    cycle = uk * _MP.expm(-1j * _mp_lift(h) * (_MP.mpf(t) / n))
    gap = _mp_power(_MP.inverse(uk), n) * _mp_power(cycle, n) - _mp_zeno_propagator(
        h, projectors, t)
    return max(_MP.svd_c(gap, compute_uv=False))
