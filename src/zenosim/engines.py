"""Evolution engines for the three Zeno mechanisms and their common limit.

Three finite-parameter drives are implemented: repeated nonselective
measurements (pinches), unitary kicks, and strong continuous coupling.  Each
has an extracted-limit sequence that converges to the same block-diagonal
propagator exp(-i H_Z t) built from the Zeno Hamiltonian, and an exact
limit engine evolves with that propagator directly.  Kick powers are
evaluated from one eigendecomposition, the Cayley-transform ``eigh`` of
``linalg.unitary_eig``, so their cost does not grow with N, and a sampled
run rotates its state into the eigenbasis once, so each sample costs phases
rather than a d×d propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidState,
    NonHermitianDensityEvolution,
)
from .linalg import (
    HERMITICITY_TOL,
    as_square_matrix,
    check_density_matrix,
    check_state_vector,
    dagger,
    expm,
    hermitian_evolution,
    hermiticity_defect,
    nonhermitian_evolution,
    propagator,
    require_hermitian,
    require_unitary,
    unitary_powers,
)
from .spectral import ResolutionOfIdentity, pinch, zeno_hamiltonian

__all__ = [
    "EvolutionRecord",
    "evolve_projective",
    "evolve_kicked",
    "evolve_continuous",
    "evolve_zeno_limit",
    "zeno_propagators",
    "kicked_propagator",
    "continuous_propagator",
    "asymptotic_kicked_propagator",
    "asymptotic_continuous_propagator",
    "extracted_kick_limit",
    "extracted_continuous_limit",
    "projective_survival",
]

# trace drift in long pinch sequences is checked this often at most
_RENORM_INTERVAL = 10_000
# trace drift that triggers renormalization in long step sequences
TRACE_DRIFT = 1e-12
# norm growth above 1 at which a non-Hermitian run is refused as amplifying
NORM_GROWTH_TOL = 1e-8


@dataclass(frozen=True)
class EvolutionRecord:
    """Sampled trajectory of one evolution run.

    ``times_or_steps`` holds real times for the projective, continuous and
    zeno-limit engines and integer step counts for the kicked engine;
    ``states`` is the matching tuple of state vectors or density matrices
    (for the spectral engines, the rows of one stacked array).
    ``trace_corrections`` lists (step, drift) pairs where the projective
    engine renormalized a density matrix to counter accumulated roundoff.
    The mechanism and run parameters stay with the caller that chose them.
    """

    times_or_steps: np.ndarray
    states: tuple[np.ndarray, ...]
    trace_corrections: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if len(self.times_or_steps) != len(self.states):
            raise DimensionMismatch("times and states lengths differ")
        diffs = np.diff(np.asarray(self.times_or_steps, dtype=float))
        if len(diffs) and diffs.min() <= 0:
            raise InvalidParameter("times_or_steps must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.states)


def _check_samples(samples: int) -> None:
    if samples < 2:
        raise InvalidParameter(f"samples must be >= 2, got {samples}")


def _check_positive_t(t: float) -> None:
    if not (0 < t < np.inf):
        raise InvalidParameter(f"t must be positive and finite, got {t!r}")


def _check_coupling(coupling: float) -> None:
    if not (0 <= coupling < np.inf):
        raise InvalidParameter(f"K must be a finite real >= 0, got {coupling!r}")


def _checkpoints(n_steps: int, samples: int) -> np.ndarray:
    """Step indices to record: ~samples points, always including 0 and N."""
    _check_samples(samples)
    return np.unique(np.round(
        np.linspace(0, n_steps, min(samples, n_steps + 1))).astype(int))


def _validate_step_args(t: float, n: int) -> tuple[float, int]:
    _check_positive_t(t)
    if int(n) != n or n < 1:
        raise InvalidParameter(f"N must be a positive integer, got {n!r}")
    return float(t), int(n)


def _kick_step(h, u_kick, t: float, n: int):
    """Validate kicks; return (t, N, U_kick, k -> [U_kick U(t/N)]^k)."""
    t, n = _validate_step_args(t, n)
    hm = require_hermitian(h, "H")
    uk = require_unitary(u_kick, "U_kick")
    if uk.shape != hm.shape:
        raise DimensionMismatch("H and U_kick dimensions differ")
    step = unitary_powers(uk @ propagator(hm, t / n), "U_kick U(t/N)")
    return t, n, uk, step


def evolve_projective(rho0, h, res: ResolutionOfIdentity, t: float, n: int,
                      samples: int = 50) -> EvolutionRecord:
    """Evolve under N equally spaced nonselective measurements in time t.

    A preparatory pinch is applied first, then N rounds of free evolution
    over t/N followed by a pinch:  rho_k = (pinch ∘ U_{t/N})^k pinch(rho0).
    Callers who want no preparatory measurement can pass an already pinched
    state; the pinch is idempotent.  Cross-sector coherences die, sector
    probabilities drift only through the unitary factors (O(1/N)), and
    purity never increases along the sequence.
    """
    t, n = _validate_step_args(t, n)
    hm = require_hermitian(h, "H")
    rho = check_density_matrix(rho0, res.dim)
    if hm.shape[0] != res.dim:
        raise DimensionMismatch("H and resolution dimensions differ")
    u = propagator(hm, t / n)
    ud = dagger(u)

    keep = _checkpoints(n, samples)
    keep_set = set(int(k) for k in keep)
    corrections: list[tuple[int, float]] = []

    rho = pinch(rho, res)
    states = [rho.copy()]  # step 0 is always a checkpoint
    for k in range(1, n + 1):
        rho = pinch(u @ rho @ ud, res)
        if k % _RENORM_INTERVAL == 0:
            tr = float(np.trace(rho).real)
            if abs(tr - 1.0) > TRACE_DRIFT:
                corrections.append((k, abs(tr - 1.0)))
                rho = rho / tr
        if k in keep_set:
            states.append(rho.copy())
    return EvolutionRecord(keep.astype(float) * (t / n), tuple(states),
                           trace_corrections=tuple(corrections))


def evolve_kicked(state0, h, u_kick, t: float, n: int,
                  samples: int = 50) -> EvolutionRecord:
    """Evolve by N kick cycles: state after k steps is [U_kick U(t/N)]^k.

    Accepts a state vector or a density matrix.  The dynamics is unitary,
    so norm, trace and purity are conserved up to roundoff.
    """
    _, n, _, step = _kick_step(h, u_kick, t, n)
    dim = np.asarray(u_kick).shape[0]
    if np.asarray(state0).ndim == 2:
        state = check_density_matrix(state0, dim)
    else:
        state = check_state_vector(state0, dim)
    keep = _checkpoints(n, samples)
    return EvolutionRecord(keep, tuple(step.states(keep, state)))


def evolve_continuous(state0, h, h_c, coupling: float, t: float,
                      samples: int = 50) -> EvolutionRecord:
    """Evolve under H + K*H_c, sampled on a uniform time grid up to t.

    Hermitian generators take the spectral route (one eigh, exactly unitary
    at every sample).  A non-Hermitian H models decay at amplitude level and
    is accepted for state vectors only; its norm must not grow.  It costs one
    guarded eig, or one ``expm`` per sample near an exceptional point.
    """
    _check_positive_t(t)
    _check_coupling(coupling)
    _check_samples(samples)
    hm = as_square_matrix(h, "H")
    hcm = require_hermitian(h_c, "H_c")
    if hm.shape != hcm.shape:
        raise DimensionMismatch("H and H_c dimensions differ")
    h_k = hm + coupling * hcm
    dim = hm.shape[0]
    times = np.linspace(0.0, t, samples)
    hermitian = hermiticity_defect(h_k) <= HERMITICITY_TOL

    if np.asarray(state0).ndim == 2:
        if not hermitian:
            raise NonHermitianDensityEvolution(
                "density-matrix input requires a Hermitian generator; "
                "propagate a state vector instead")
        state = check_density_matrix(state0, dim)
    else:
        state = check_state_vector(state0, dim, subnormalized=not hermitian)
    if hermitian:
        states = hermitian_evolution(h_k).states(times, state)
    elif (spectral := nonhermitian_evolution(h_k)) is not None:
        states = spectral.states(times, state)
    else:  # near an exceptional point: one Padé expm per sample after tau = 0
        states = np.array([state] + [expm(-1j * h_k * tau) @ state
                                     for tau in times[1:]])
    limit = 1.0 + NORM_GROWTH_TOL
    if not hermitian and (nrm := np.linalg.norm(states, axis=1)).max() > limit:
        raise InvalidState(
            f"non-Hermitian generator amplified the state to norm "
            f"{nrm[nrm > limit][0]:.6f}; only decaying models are supported")
    return EvolutionRecord(times, tuple(states))


def zeno_propagators(h, res: ResolutionOfIdentity, t: float) -> list[np.ndarray]:
    """Sector propagators V_n(t) = P_n exp(-i H_Z t) = P_n exp(-i P_n H P_n t).

    H_Z commutes with every P_n, so each V_n is unitary within its sector
    and vanishes outside it; sum_n V_n† V_n = I.
    """
    u_z = propagator(zeno_hamiltonian(h, res), t)
    return [p @ u_z for p in res.projectors]


def evolve_zeno_limit(rho0, h, res: ResolutionOfIdentity, t: float,
                      samples: int = 50) -> EvolutionRecord:
    """Exact Zeno-limit dynamics rho(tau) = U_Z(tau) pinch(rho0) U_Z(tau)†.

    U_Z(tau) = exp(-i H_Z tau) is block diagonal, so this equals
    sum_n V_n(tau) rho0 V_n(tau)†.  Subspace probabilities are constant for
    all times; cross-sector coherences are removed at tau = 0+, so the first
    sample is pinch(rho0).  t = 0 is allowed and returns that single sample.
    """
    if not (0 <= t < np.inf):
        raise InvalidParameter(f"t must be finite and >= 0, got {t!r}")
    _check_samples(samples)
    rho = check_density_matrix(rho0, res.dim)
    u_z = hermitian_evolution(zeno_hamiltonian(h, res))
    times = np.array([0.0]) if t == 0 else np.linspace(0.0, t, samples)
    return EvolutionRecord(times, tuple(u_z.states(times, pinch(rho, res))))


def asymptotic_kicked_propagator(h, res: ResolutionOfIdentity, t: float,
                                 n: int) -> np.ndarray:
    """Large-N form of the kicked propagator, sum_n e^{-i N λ_n} V_n(t).

    ``res`` must carry the kick eigenphases as labels.  Sector populations
    follow the Zeno dynamics; cross-sector phases advance by N λ_n.
    """
    t, n = _validate_step_args(t, n)
    vs = zeno_propagators(h, res, t)
    return sum(np.exp(-1j * n * lam) * v for lam, v in zip(res.labels, vs))


def asymptotic_continuous_propagator(h, res: ResolutionOfIdentity, t: float,
                                     coupling: float) -> np.ndarray:
    """Large-K form of the coupled propagator, sum_n e^{-i K η_n t} V_n(t).

    ``res`` must carry the coupling eigenvalues as labels; K t plays the
    role the kick count N plays in the kicked mechanism.
    """
    _check_positive_t(t)
    _check_coupling(coupling)
    vs = zeno_propagators(h, res, t)
    return sum(np.exp(-1j * coupling * eta * t) * v
               for eta, v in zip(res.labels, vs))


def kicked_propagator(h, u_kick, t: float, n: int) -> np.ndarray:
    """Lab-frame propagator after N kick cycles, U_N(t) = [U_kick U(t/N)]^N."""
    _, n, _, step = _kick_step(h, u_kick, t, n)
    return step(n)


def continuous_propagator(h, h_c, coupling: float, t: float) -> np.ndarray:
    """Lab-frame propagator U_K(t) = exp(-i (H + K H_c) t), Hermitian case."""
    _check_positive_t(t)
    _check_coupling(coupling)
    hm = require_hermitian(h, "H")
    hcm = require_hermitian(h_c, "H_c")
    if hm.shape != hcm.shape:
        raise DimensionMismatch("H and H_c dimensions differ")
    return propagator(hm + coupling * hcm, t)


def extracted_kick_limit(h, u_kick, t: float, n: int) -> np.ndarray:
    """Kick-frame propagator V_N(t) = U_kick^{-N} [U_kick U(t/N)]^N.

    Converges to exp(-i H_Z t) at rate O(1/N), where H_Z is the pinching of
    H by the kick's spectral projectors.
    """
    _, n, uk, step = _kick_step(h, u_kick, t, n)
    return unitary_powers(uk, "U_kick")(-n) @ step(n)


def extracted_continuous_limit(h, h_c, t: float, coupling: float) -> np.ndarray:
    """Coupling-frame propagator exp(i K H_c t) exp(-i (H + K H_c) t).

    Converges to exp(-i H_Z t) at rate O(1/K), where H_Z is the pinching of
    H by the eigenprojections of H_c.
    """
    u_k = continuous_propagator(h, h_c, coupling, t)
    return propagator(h_c, -coupling * t) @ u_k


def projective_survival(state0, h, res: ResolutionOfIdentity, sector: int,
                        t: float, n: int) -> float:
    """Probability of being found in one sector at every one of N measurements.

    This is the survival probability of the Zeno setup proper: the product
    of conditional outcomes, tr([P U]^N rho0 ([P U]^N)†) with U = U(t/N).
    It differs from the sector population of the nonselective record, which
    also counts histories that leave the sector and return.  For a rank-1
    sector and a 2-level Hamiltonian Omega sigma_x it reduces to the
    classic cos^{2N}(Omega t / N).
    """
    t, n = _validate_step_args(t, n)
    hm = require_hermitian(h, "H")
    if hm.shape[0] != res.dim:
        raise DimensionMismatch("H and resolution dimensions differ")
    p = res.projector(sector)
    factor = p @ propagator(hm, t / n)
    v = np.linalg.matrix_power(factor, n)
    if np.asarray(state0).ndim == 2:
        rho = check_density_matrix(state0, res.dim)
        return float(np.trace(v @ rho @ dagger(v)).real)
    psi = check_state_vector(state0, res.dim)
    return float(np.linalg.norm(v @ psi) ** 2)
