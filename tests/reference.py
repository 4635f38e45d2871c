"""40-digit mpmath references shared by the oracle and certificate tests.

Every float input is lifted exactly into the one 40-digit context ``_MP``, so a
reference shares no rounding with the numpy code it judges.  A power N of a round
close to the identity loses about log10 N digits, so such references run inside
``scaled_digits(N)``, at 45 + log10 N digits.
"""

import math

import mpmath
import numpy as np

_MP = mpmath.MPContext()
_MP.dps = 40


def _mp_lift(a):
    """complex128 array -> mpmath matrix, exactly (a vector becomes a column); an mpmath
    matrix is returned as it is."""
    if isinstance(a, _MP.matrix):
        return a
    rows = np.atleast_2d(a).T if np.ndim(a) == 1 else np.asarray(a)
    return _MP.matrix([[_MP.mpc(z.real, z.imag) for z in row] for row in rows])


def scaled_digits(n: int):
    """Context in which ``_MP`` works at 45 + log10 N digits, for a power N of a round."""
    return _MP.workdps(45 + int(math.log10(n)))


def sector_projectors(res):
    """Projectors onto the sectors of ``res`` that are exact to the working digits: its
    ``basis`` columns orthonormalised by an mpmath QR.  The float projectors are idempotent
    only to eps, so a power N of P U(t/N) built from them drifts by about N eps."""
    q, _ = _MP.qr(_mp_lift(res.basis))
    return [q[:, s] * q[:, s].H for s in res.sector_columns]


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


def projective_survival_probability(h, projector, psi0, t: float, n: int):
    """||[P U(t/N)]^N psi0||² at the working digits, P a float or an mpmath projector."""
    factor = _mp_lift(projector) * _MP.expm(_mp_lift(-1j * h) * (_MP.mpf(t) / int(n)))
    return sum(abs(z) ** 2 for z in _mp_power(factor, int(n)) * _mp_lift(psi0))


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


def dark_state_survival(g, big_gamma, k, t: float):
    """|<b|exp(-iGt)|b>|² in closed form, 40 digits, for the decay model with ω1 = ω_b = 0.

    Level a decouples; on (b, c, M) the generator is G = [[0, g, 0], [g, -iΓ, K], [0, K, 0]].
    Its eigenvalue 0 carries the dark state K|b> - g|M>, and λ± = (-iΓ ± √(4(K² + g²) - Γ²))/2
    the bright pair, so, G being complex symmetric,
    <b|exp(-iGt)|b> = [K² + g²(λ+ e^{-iλ-t} - λ- e^{-iλ+t})/(λ+ - λ-)] / (K² + g²)
    off the exceptional point 4(K² + g²) = Γ² (there λ+ = λ- = λ, and the fraction's limit
    is (1 + iλt)e^{-iλt}).
    """
    g, big_gamma, k, t = (_MP.mpf(x) for x in (g, big_gamma, k, t))
    root = _MP.sqrt(_MP.mpc(4 * (k * k + g * g) - big_gamma * big_gamma))
    plus, minus = (_MP.mpc(0, -big_gamma) + root) / 2, (_MP.mpc(0, -big_gamma) - root) / 2
    bright = (plus * _MP.exp(-1j * minus * t) - minus * _MP.exp(-1j * plus * t)) / root
    return abs((k * k + g * g * bright) / (k * k + g * g)) ** 2


def zeno_limit_propagator(omega1, t: float, dim: int) -> np.ndarray:
    """U_Z(t) = exp(-i H_Z t) in closed form, at 40 digits rounded once to complex128, for
    every non-decay registry model: its sectors cut the b--c coupling, so
    H_Z = ω1(|a><b| + |b><a|), and U_Z is cos(ω1 t) and -i sin(ω1 t) on span{a, b} and the
    identity on the other levels."""
    phase = _MP.mpf(omega1) * _MP.mpf(t)
    u = _MP.eye(dim)
    u[0, 0] = u[1, 1] = _MP.cos(phase)
    u[0, 1] = u[1, 0] = _MP.mpc(0, -_MP.sin(phase))
    return _to_numpy(u)
