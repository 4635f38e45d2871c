"""40-digit references for the benchmark's correctness checks.

Every operator is rebuilt here from the model parameters in mpmath; nothing
is imported from zenosim, so a defect in the package cannot leak into the
reference it is checked against.  Finite-N results come from repeated
squaring of the exact step map, exponentials from a Taylor series with
scaling and squaring.  References are computed once per operation during
set-up and rounded to complex128 for the comparison.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 40
_M = mpmath.MPContext()
_M.dps = DIGITS
_EPS = np.finfo(np.float64).eps


def tolerance(n_steps: float, dim: int) -> float:
    """Allowed deviation of a complex128 result after n_steps roundings.

    Fixed before any result is seen: every step may add a few ulps per
    matrix entry, and those errors add up at most linearly in the number of
    steps.  For exponentials of a generator G at time t, pass n_steps =
    ||G|| t, the phase the rounding of G is multiplied by.
    """
    return 64.0 * dim * _EPS * (1.0 + float(n_steps))


def to_numpy(a) -> np.ndarray:
    """Round an mpmath matrix (or column vector) to complex128."""
    out = np.array([[complex(a[i, j]) for j in range(a.cols)]
                    for i in range(a.rows)], dtype=complex)
    return out[:, 0] if a.cols == 1 else out


# ---- model operators, transcribed from the model definitions --------------

def chain_hamiltonian(omega1: float, omega2: float, dim: int):
    h = _M.zeros(dim, dim)
    h[0, 1] = h[1, 0] = _M.mpf(omega1)
    h[1, 2] = h[2, 1] = _M.mpf(omega2)
    return h


def kick_unitary(lambda1: float, lambda2: float):
    """The four-level kick: phase lambda1 on {a, b}, rotation lambda2 on {c, M}."""
    u = _M.zeros(4, 4)
    u[0, 0] = u[1, 1] = _M.expj(-_M.mpf(lambda1))
    u[2, 2] = u[3, 3] = _M.cos(_M.mpf(lambda2))
    u[2, 3] = u[3, 2] = _M.mpc(0, -1) * _M.sin(_M.mpf(lambda2))
    return u


def probe_coupling():
    """H_c = |c><M| + |M><c| on the four-level basis."""
    h_c = _M.zeros(4, 4)
    h_c[2, 3] = h_c[3, 2] = 1
    return h_c


def decay_hamiltonian(omega1: float, tau_z: float, gamma: float, omega_b: float):
    h = _M.zeros(4, 4)
    h[0, 1] = h[1, 0] = _M.mpf(omega1)
    h[1, 1] = _M.mpf(omega_b)
    h[1, 2] = h[2, 1] = 1 / _M.mpf(tau_z)
    h[2, 2] = _M.mpc(0, -2) / (_M.mpf(tau_z) ** 2 * _M.mpf(gamma))
    return h


def measured_sectors():
    """Projectors of the three-level measurement: span{a, b} and |c>."""
    p1 = _M.zeros(3, 3)
    p1[0, 0] = p1[1, 1] = 1
    p2 = _M.zeros(3, 3)
    p2[2, 2] = 1
    return [p1, p2]


def probe_sectors():
    """Eigenprojectors shared by the four-level kick and probe coupling:
    span{a, b} and (|c> +/- |M>)/sqrt(2)."""
    p_ab = _M.zeros(4, 4)
    p_ab[0, 0] = p_ab[1, 1] = 1
    out = [p_ab]
    for sign in (1, -1):
        p = _M.zeros(4, 4)
        p[2, 2] = p[3, 3] = _M.mpf(1) / 2
        p[2, 3] = p[3, 2] = _M.mpf(sign) / 2
        out.append(p)
    return out


def from_numpy(a: np.ndarray):
    """Lift a complex128 array (initial states only) to mpmath exactly."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        return _M.matrix([[_M.mpc(z.real, z.imag)] for z in a])
    return _M.matrix([[_M.mpc(z.real, z.imag) for z in row] for row in a])


# ---- exact maps ------------------------------------------------------------

def expm(a):
    """exp(a) by a Taylor series on a / 2^s, then s squarings.

    With ||a / 2^s||_1 <= 1/4, the 30-term series leaves a remainder below
    0.25^31 / 31! < 1e-50, well under the working precision.
    """
    norm = _M.mnorm(a, 1)
    s = 0
    while norm > 0.25:
        norm /= 2
        s += 1
    x = a / _M.mpf(2) ** s
    term = _M.eye(a.rows)
    total = _M.eye(a.rows)
    for k in range(1, 31):
        term = term * x / k
        total = total + term
    for _ in range(s):
        total = total * total
    return total


def step_propagator(h, t: float):
    """exp(-i h t) for the free evolution between disturbances."""
    return expm(_M.mpc(0, -1) * _M.mpf(t) * h)


def power(m, n: int):
    """m**n by repeated squaring."""
    result = _M.eye(m.rows)
    base = m
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _kron(a, b):
    out = _M.zeros(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] == 0:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k, j * b.cols + l] = a[i, j] * b[k, l]
    return out


def _vec(x):
    return _M.matrix([[x[i, j]] for i in range(x.rows) for j in range(x.cols)])


def _unvec(v, dim: int):
    return _M.matrix([[v[i * dim + j] for j in range(dim)] for i in range(dim)])


def pinch(x, sectors):
    out = _M.zeros(x.rows, x.cols)
    for p in sectors:
        out = out + p * x * p
    return out


def projective_state(rho0, h, sectors, t: float, n: int):
    """(pinch o Ad_U(t/N))^N applied to pinch(rho0), via the superoperator.

    With row-major vec, vec(A X B) = (A kron B^T) vec(X), so one measurement
    round is sum_n (P_n U) kron (U^dag P_n)^T.
    """
    u = step_propagator(h, t / n)
    step = None
    for p in sectors:
        term = _kron(p * u, (u.H * p).T)
        step = term if step is None else step + term
    v = power(step, n) * _vec(pinch(rho0, sectors))
    return _unvec(v, rho0.rows)


def zeno_state(rho0, h, sectors, t: float):
    """sum_n V_n rho0 V_n^dag with V_n = P_n exp(-i P_n H P_n t)."""
    out = _M.zeros(rho0.rows, rho0.cols)
    for p in sectors:
        v = p * step_propagator(p * h * p, t)
        out = out + v * rho0 * v.H
    return out


def kicked_step(h, u_kick, t: float, n: int):
    return u_kick * step_propagator(h, t / n)


def zeno_propagator(h, sectors, t: float):
    return step_propagator(pinch(h, sectors), t)


def opnorm(a) -> float:
    return float(max(_M.svd_c(a, compute_uv=False)))


def frobenius(a) -> float:
    """Frobenius norm; also the bound on ||G|| that sizes tolerances."""
    return float(_M.mnorm(a, "f"))


def probabilities(rho, sectors) -> np.ndarray:
    return np.array([float(_M.re(sum((p * rho)[i, i] for i in range(rho.rows))))
                     for p in sectors])


def purity(rho) -> float:
    sq = rho * rho
    return float(_M.re(sum(sq[i, i] for i in range(rho.rows))))


def density(psi):
    return psi * psi.H
