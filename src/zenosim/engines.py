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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidState,
    NonHermitianDensityEvolution,
)
from .linalg import (
    HERMITICITY_TOL,
    _as_array,
    _bounded,
    _cayley_eig,
    _check_scalar,
    _check_state,
    _hermitian_part,
    _is_real,
    _lift,
    _norms,
    _phases,
    _SpectralEvaluator,
    as_square_matrix,
    check_density_matrix,
    dagger,
    expm,
    hermitian_evolution,
    hermiticity_defect,
    nonhermitian_evolution,
    propagator,
    require_hermitian,
    require_unitary,
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

# trace drift in long pinch sequences is checked at every multiple of this step
_RENORM_INTERVAL = 10_000
# trace drift that triggers renormalization in long step sequences
TRACE_DRIFT = 1e-12
# norm growth above 1 at which a non-Hermitian run is refused as amplifying
NORM_GROWTH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    """Sampled trajectory of one evolution run.

    ``times_or_steps`` holds real times for the projective, continuous and
    zeno-limit engines and integer step counts for the kicked engine;
    ``states`` is the matching tuple of state vectors or density matrices.  The
    record keeps them as one complex (S, ...) array, for ``observables`` (a tuple is
    stacked once; states of mixed shapes are refused); the tuple of its rows is built
    and cached on the first read of ``states``, and left out of a pickle or copy.
    ``trace_corrections`` lists (step, drift) pairs where the projective
    engine renormalized a density matrix to counter accumulated roundoff.
    The mechanism and run parameters stay with the caller that chose them.
    """

    times_or_steps: np.ndarray
    states: tuple[np.ndarray, ...]
    trace_corrections: tuple[tuple[int, float], ...] = ()
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack = _as_array(self.states, "states", (2, 3), what="vectors or matrices of one shape")
        times = _increasing(self.times_or_steps, "times_or_steps")
        object.__setattr__(self, "times_or_steps", times)
        object.__setattr__(self, "_stack", stack)  # no copy of an engine's complex stack
        object.__delattr__(self, "states")  # __getattr__ builds the tuple
        if len(times) != len(stack):
            raise DimensionMismatch("times and states lengths differ")

    def __getattr__(self, name: str):  # reached only where no instance value is set
        if name != "states":
            raise AttributeError(f"'EvolutionRecord' object has no attribute {name!r}")
        return self.__dict__.setdefault("states", tuple(self._stack))

    @property
    def final_state(self) -> np.ndarray:
        return self._stack[-1]

    def __len__(self) -> int:
        return len(self._stack)

    def __getstate__(self):  # the cached rows are views of _stack: pickle the stack alone
        return {k: v for k, v in self.__dict__.items() if k != "states"}


# each check below is the whole range of one schedule fact; ``config`` calls it too
def _increasing(values, what: str, least: int = 0) -> np.ndarray:
    """``values`` as a 1-D array of their own real dtype, so int64 counts compare exactly;
    refused with fewer than ``least``, or unless each exceeds the one before (NaN fails)."""
    v = _as_array(values, what, (1,), None, "a 1-D array of real numbers", InvalidParameter)
    if len(v) < least:
        raise InvalidParameter(f"{what}: need at least {least}, got {len(v)}")
    if not np.all(v[1:] > v[:-1]):  # compared, not np.diff: inf - inf warns
        raise InvalidParameter(f"{what} must be strictly increasing")
    return v


def _check_samples(samples: int) -> int:
    """An integer in [2, 2**53]: np.linspace counts the samples in float64, exact to 2**53."""
    if not (isinstance(samples, (int, np.integer)) and 2 <= samples <= 2**53):
        raise InvalidParameter(f"samples must be an integer in [2, 2**53], got {samples!r}")
    return samples


def _check_positive_t(t: float) -> float:
    return float(_check_scalar(t, "t", "> 0"))


def _check_coupling(coupling, ndim: int = 1):
    """One K, or (ndim 1) an array of them, each a ``_check_scalar`` >= 0, as float64; each
    judged as given (dtype object), as each N is: True is not 1, [2, [3]] is 2 and [3]."""
    k = _as_array(coupling, "K", range(ndim + 1), object,
                  "a number" + " or a 1-D array" * ndim, InvalidParameter)
    for x in k.flat:
        _check_scalar(x, "K", ">= 0")
    return k.astype(float)


def _check_counts(n, ndim: int = 1):
    """One N as an int, or an array of them as int64, each an integer in [1, 2**63)."""
    k = _as_array(n, "N", range(ndim + 1), object, "a count" + " or a 1-D array" * ndim,
                  InvalidParameter)
    for x in k.flat:
        if not (_is_real(x) and 1 <= x < 2**63 and int(x) == x):  # NaN fails
            raise InvalidParameter(f"N must be a positive integer below 2**63, got {x!r}")
    return int(k[()]) if k.ndim == 0 else k.astype(np.int64)


def _checkpoints(n_steps: int, samples: int) -> np.ndarray:
    """Steps k N / D rounded, k = 0..D = min(samples, N + 1) - 1, exact in int64 for any
    N < 2**63; a tie goes the way np.rint takes the float k (N / D), as in np.linspace."""
    d = min(_check_samples(samples), n_steps + 1) - 1
    k = np.arange(d + 1, dtype=np.int64)
    steps, rem = np.divmod(2 * k * (n_steps % d) + d, 2 * d)  # half up; rem 0: a tie
    steps += k * (n_steps // d)
    return steps - ((rem == 0) & (np.rint(k * (n_steps / d)) < steps))


def _free_step(h, payload: str, dim: int, t: float, n, ndim: int = 1):
    """Checked (t, N, H) for an H as wide as the payload's ``dim``; N (B,) for ndim 1."""
    t, n = _check_positive_t(t), _check_counts(n, ndim)
    hm = require_hermitian(h, "H")
    if hm.shape[0] != dim:
        raise DimensionMismatch(f"H and {payload} dimensions differ")
    return t, n, hm


def _kick_step(h, u_kick, t: float, n, ndim: int = 1):
    """Validate kicks; return (N, U_kick, k -> [U_kick U(t/N)]^k), batched over N (B,)."""
    uk = require_unitary(u_kick, "U_kick")
    t, n, hm = _free_step(h, "U_kick", len(uk), t, n, ndim)
    return n, uk, _SpectralEvaluator(*_cayley_eig(uk @ propagator(hm, t / n)))  # unitary as uk


def _small_part(hm: np.ndarray, res: ResolutionOfIdentity, tau) -> np.ndarray:
    """E = W†(U(tau) - I)W, W = ``res.basis``, (B, d, d) for tau (B,), from one eigh of H: each
    e^{-i tau w} - 1 as -2i sin(tau w/2) e^{-i tau w/2}, relatively exact however small tau w."""
    vw = dagger(res.basis) @ (free := hermitian_evolution(hm)).v
    half = _phases(free.w, 0.5 * tau, (0, 1))  # sin(tau w/2) = -Im e^{-i tau w/2}
    return (vw * (2j * half.imag * half)[..., None, :]) @ dagger(vw)


def _measured_power(x: np.ndarray, n) -> np.ndarray:
    """(I + X_b)^{N_b} for small parts X (B, m, m), counts N (B,): V (1 + nu)^N V⁻¹ from one
    guarded eig, log(1 + nu) = log1p(2 Re nu + |nu|²)/2 + i arg(1 + nu) as exact as nu (numpy's
    complex log1p is not).  A slice that ``ok`` refuses, or with a 1 + nu = 0, falls back."""
    spectral = nonhermitian_evolution(x)
    mag = 2.0 * (nu := spectral.w).real + abs(nu) ** 2  # |1 + nu|² - 1
    ok = spectral.ok & np.all(mag > -1.0, axis=-1)
    w = 0.5j * np.log1p(np.where(ok[:, None], mag, 0.0)) - np.arctan2(nu.imag, 1.0 + nu.real)
    out = _SpectralEvaluator(w, spectral.v, spectral._vi)(n)
    for b in np.flatnonzero(~ok):  # X near defective, or I + X singular
        out[b] = np.linalg.matrix_power(np.eye(x.shape[-1]) + x[b], n[b])
    return out


def evolve_projective(rho0, h, res: ResolutionOfIdentity, t: float, n: int,
                      samples: int = 50) -> EvolutionRecord:
    """Evolve under N equally spaced nonselective measurements in time t.

    A preparatory pinch is applied first, then N rounds of free evolution
    over t/N followed by a pinch:  rho_k = (pinch ∘ U_{t/N})^k pinch(rho0).
    Callers who want no preparatory measurement can pass an already pinched
    state; the pinch is idempotent.  Cross-sector coherences die, sector
    probabilities drift only through the unitary factors (O(1/N)), and
    purity never increases along the sequence.  On the row-major vec(rho)
    a round is two d²×d² products: U ⊗ U* for the free evolution, then the
    resolution's pinching map inside ``pinch``.
    """
    t, n, hm = _free_step(h, "resolution", res.dim, t, n, ndim=0)
    rho, uu = check_density_matrix(rho0, res.dim), _lift(propagator(hm, t / n))
    keep = _checkpoints(n, samples)
    states = np.empty((len(keep), *rho.shape), dtype=complex)
    corrections: list[tuple[int, float]] = []
    rho = states[0] = pinch(rho, res)  # steps 0 and N are always checkpoints
    marks, i = keep.tolist(), 1
    for k in range(1, n + 1):
        rho = pinch(uu.dot(rho.reshape(-1)).reshape(rho.shape), res)
        if k % _RENORM_INTERVAL == 0:
            tr = float(np.trace(rho).real)
            if abs(tr - 1.0) > TRACE_DRIFT:
                corrections.append((k, abs(tr - 1.0)))
                rho = rho / tr
        if k == marks[i]:  # stored after the trace check
            states[i] = rho
            i += 1
    return EvolutionRecord(keep.astype(float) * (t / n), states,
                           trace_corrections=tuple(corrections))


def _measured_finals(rho0, h, res: ResolutionOfIdentity, t: float, ns) -> np.ndarray:
    """Final states (B, d, d) of ``evolve_projective`` for N (B,), not renormalised: a round
    maps the sum r_n² block-diagonal entries (i, k) of W† rho W, W = ``res.basis``, by I + X,
    X those entries of E ⊗ I + I ⊗ E* + E ⊗ E*, E the ``_small_part``, raised once per N."""
    t, ns, hm = _free_step(h, "resolution", res.dim, t, ns)
    rho, w = check_density_matrix(rho0, res.dim), res.basis
    i, k = np.divmod(np.flatnonzero(res.column_sectors[:, None] == res.column_sectors), res.dim)
    ek = (e := _small_part(hm, res, t / ns)).conj()[:, k[:, None], k]  # (a, b): E*_{k_a k_b}
    x = e[:, i[:, None], i] * ((k[:, None] == k) + ek) + (i[:, None] == i) * ek
    s = _measured_power(x, ns) @ (dagger(w) @ rho @ w)[i, k]  # the N-round entries
    return (w[:, i] * s[:, None, :]) @ dagger(w[:, k])  # sum_a s_a w_{i_a} w_{k_a}†


def evolve_kicked(state0, h, u_kick, t: float, n: int,
                  samples: int = 50) -> EvolutionRecord:
    """Evolve by N kick cycles: state after k steps is [U_kick U(t/N)]^k.

    Accepts a state vector or a density matrix.  The dynamics is unitary,
    so norm, trace and purity are conserved up to roundoff.
    """
    n, uk, step = _kick_step(h, u_kick, t, n, ndim=0)
    state = _check_state(state0, len(uk))
    keep = _checkpoints(n, samples)
    return EvolutionRecord(keep, step.states(keep, state))


def _continuous_generator(h, h_c, coupling, t: float, ndim: int = 1):
    """Checked H + K H_c, (d, d) for one K or (B, d, d) for many (ndim 1), its largest slice
    bounded, and whether H is Hermitian, which decides the route at every K (H_c must be)."""
    _check_positive_t(t)
    coupling = _check_coupling(coupling, ndim)
    hm = as_square_matrix(h, "H")
    hcm = require_hermitian(h_c, "H_c")
    if hm.shape != hcm.shape:
        raise DimensionMismatch("H and H_c dimensions differ")
    gens = hm + np.multiply.outer(coupling, hcm)
    _bounded(gens.reshape(-1, *hm.shape)[np.argmax(_norms(gens))], "H + K H_c")
    return gens, hermiticity_defect(hm) <= HERMITICITY_TOL


def _sample_continuous(gens: np.ndarray, hermitian, state0, times) -> np.ndarray:
    """exp(-i G_b tau) state0 for each slice G_b and time tau, stacked (B, S, ...).

    The builder's ``hermitian`` picks the route of ``evolve_continuous`` for every slice.
    """
    state = _check_state(state0, gens.shape[-1], subnormalized=not hermitian)
    if hermitian:
        return hermitian_evolution(_hermitian_part(gens)).states(times, state)
    if state.ndim == 2:
        raise NonHermitianDensityEvolution("density-matrix input requires a Hermitian "
                                           "generator; propagate a state vector instead")
    spectral = nonhermitian_evolution(gens)
    states = spectral.states(times, state)
    for b in np.flatnonzero(~spectral.ok):
        # near an exceptional point: one expm per sample after tau = 0
        states[b] = [state] + [expm(-1j * gens[b] * tau) @ state for tau in times[1:]]
    limit = 1.0 + NORM_GROWTH_TOL
    if not (nrm := _norms(states[..., None])).max() <= limit:  # NaN fails
        raise InvalidState(
            f"non-Hermitian generator amplified the state to norm "
            f"{nrm[~(nrm <= limit)][0]:.6f}; only decaying models are supported")
    return states


def evolve_continuous(state0, h, h_c, coupling: float, t: float,
                      samples: int = 50) -> EvolutionRecord:
    """Evolve under H + K*H_c, sampled on a uniform time grid up to t.

    H alone picks the route, at every K.  A Hermitian H takes one eigh of the
    generator's Hermitian part, exactly unitary at every sample.  A non-Hermitian H
    models decay at amplitude level, for state vectors only; its norm must not grow.
    It costs one guarded eig, or one ``expm`` per sample near an exceptional point.
    """
    h_k, hermitian = _continuous_generator(h, h_c, coupling, t, ndim=0)
    times = np.linspace(0.0, t, _check_samples(samples))
    return EvolutionRecord(times, _sample_continuous(h_k[None], hermitian, state0, times)[0])


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
    t, samples = t if _is_real(t) and t == 0 else _check_positive_t(t), _check_samples(samples)
    times = np.linspace(0.0, t, samples if t else 1)
    rho = check_density_matrix(rho0, res.dim)
    u_z = hermitian_evolution(zeno_hamiltonian(h, res))
    return EvolutionRecord(times, u_z.states(times, pinch(rho, res)))


def _sector_phases(h, res: ResolutionOfIdentity, t: float, x) -> np.ndarray:
    """sum_n e^{-i x l_n} V_n(t) = W diag(e^{-i x l}) W† U_Z(t), x (B,) stacking, with
    each ``res.basis`` column of W given its sector's label: one guarded evaluator."""
    return (_SpectralEvaluator(np.take(res.labels, res.column_sectors), res.basis)(x)
            @ propagator(zeno_hamiltonian(h, res), t))


def asymptotic_kicked_propagator(h, res: ResolutionOfIdentity, t: float,
                                 n: int) -> np.ndarray:
    """Large-N form of the kicked propagator, sum_n e^{-i N λ_n} V_n(t); N (B,) stacks.

    ``res`` must carry the kick eigenphases as labels.  Sector populations
    follow the Zeno dynamics; cross-sector phases advance by N λ_n.
    """
    return _sector_phases(h, res, _check_positive_t(t), _check_counts(n))


def asymptotic_continuous_propagator(h, res: ResolutionOfIdentity, t: float,
                                     coupling: float) -> np.ndarray:
    """Large-K form of the coupled propagator, sum_n e^{-i K η_n t} V_n(t); K (B,) stacks.

    ``res`` must carry the coupling eigenvalues as labels; K t plays the
    role the kick count N plays in the kicked mechanism.
    """
    t = _check_positive_t(t)
    return _sector_phases(h, res, t, _check_coupling(coupling) * t)


def kicked_propagator(h, u_kick, t: float, n: int) -> np.ndarray:
    """Lab-frame propagator after N kick cycles, U_N(t) = [U_kick U(t/N)]^N."""
    n, _, step = _kick_step(h, u_kick, t, n)
    return step(n)


def continuous_propagator(h, h_c, coupling: float, t: float) -> np.ndarray:
    """Lab-frame propagator U_K(t) = exp(-i (H + K H_c) t), Hermitian case.

    Couplings K (B,) give the stack (B, d, d), from one stacked eigh.
    """
    h_k, _ = _continuous_generator(h, h_c, coupling, t)
    require_hermitian(h, "H")
    return propagator(_hermitian_part(h_k), t)


def extracted_kick_limit(h, u_kick, t: float, n) -> np.ndarray:
    """Kick-frame propagator V_N(t) = U_kick^{-N} [U_kick U(t/N)]^N.

    Converges to exp(-i H_Z t) at rate O(1/N), where H_Z is the pinching of
    H by the kick's spectral projectors.  An array of kick counts (B,) gives
    the stack (B, d, d), with H and U_kick checked and decomposed once.
    """
    return _kick_limits(h, u_kick, t, n)


# the kicked curve's route: perfbench's tracer takes a public engine's n as one count
def _kick_limits(h, u_kick, t: float, n) -> np.ndarray:
    n, uk, step = _kick_step(h, u_kick, t, n)
    return _SpectralEvaluator(*_cayley_eig(uk))(-n) @ step(n)  # _kick_step checked uk


def extracted_continuous_limit(h, h_c, t: float, coupling: float) -> np.ndarray:
    """Coupling-frame propagator exp(i K H_c t) exp(-i (H + K H_c) t).

    Converges to exp(-i H_Z t) at rate O(1/K), where H_Z is the pinching of
    H by the eigenprojections of H_c.  An array of couplings (B,) gives the
    stack (B, d, d) from one stacked eigh and one eigh of H_c.
    """
    u_k = continuous_propagator(h, h_c, coupling, t)
    return propagator(h_c, -_check_coupling(coupling) * t) @ u_k


def projective_survival(state0, h, res: ResolutionOfIdentity, sector: int,
                        t: float, n: int) -> float:
    """Probability of being found in one sector at every one of N measurements.

    This is the survival probability of the Zeno setup proper: the product
    of conditional outcomes, tr([P U]^N rho0 ([P U]^N)†) with U = U(t/N).
    It differs from the sector population of the nonselective record, which
    also counts histories that leave the sector and return.  For a rank-1
    sector and a 2-level Hamiltonian Omega sigma_x it reduces to the
    classic cos^{2N}(Omega t / N).  With W = ``res.basis``, c the sector's columns and E the
    ``_small_part``, W_c† [P U]^N = (I + X)^{N-1} (I + E)[c, :] W†: only X = E[c, c] is raised.
    """
    t, n, hm = _free_step(h, "resolution", res.dim, t, n, ndim=0)
    res.projector(sector)  # refuses a sector out of range
    e, c, w = _small_part(hm, res, t / n), res.sector_columns[sector], res.basis
    v = _measured_power(e[None, c, c], [n - 1])[0] @ (e[c] + np.eye(len(w))[c]) @ dagger(w)
    state = _check_state(state0, res.dim)
    if state.ndim == 2:
        return float(np.trace(v @ state @ dagger(v)).real)
    return float(np.linalg.norm(v @ state) ** 2)
