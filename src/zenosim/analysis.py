"""Observables, convergence measurements, and parameter sweeps.

Connects the engines to numbers one can plot: sector probabilities, purity,
cross-sector coherence norms, distance-to-limit curves with fitted rates,
and the decay-protection sweep over coupling strength.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engines import (
    _continuous_generator,
    _increasing,
    _kick_limits,
    _measured_finals,
    _sample_continuous,
    evolve_zeno_limit,
    extracted_continuous_limit,
)
from .errors import (
    DimensionMismatch,
    InvalidParameter,
    InvalidState,
)
from .linalg import _bounded, _lift, check_density_matrix, dagger, propagator
from .models import ModelBundle, decay_model
from .spectral import ResolutionOfIdentity

# imaginary residue, relative to max(1, |value|), allowed on a real observable
IMAG_RESIDUE = 1e-12
# convergence distances at or below this are reported as exact (no rate fit)
EXACT_DISTANCE = 1e-10

__all__ = [
    "ConvergenceCurve",
    "ObservableSeries",
    "DecayProtectionResult",
    "subspace_probabilities",
    "purity",
    "coherence_block_norm",
    "observables",
    "convergence_curve",
    "projective_convergence_curve",
    "decay_protection_sweep",
]


@dataclass(frozen=True, eq=False)
class ConvergenceCurve:
    """Distance to the Zeno-limit propagator as the drive parameter grows.

    Construction checks the arrays and derives ``exact``, every distance at most
    EXACT_DISTANCE (roundoff, nothing to fit), and ``fitted_rate``: the least-squares
    slope of log(distance, floored at 1e-300) against log(parameter), the two smallest
    parameter values (pre-asymptotic) dropped while at least two points stay, and a
    zero parameter too; NaN when ``exact``, with fewer than 2 fitted points, or when
    their logs are rank deficient (int64 counts that one float64 cannot tell apart).
    """

    parameter_name: str
    parameter_values: np.ndarray
    distances: np.ndarray
    fitted_rate: float = field(init=False)
    exact: bool = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.parameter_values)
        d = np.asarray(self.distances, dtype=float)
        if p.shape != d.shape:
            raise DimensionMismatch("parameter and distance lengths differ")
        _increasing(p, "parameter_values")  # in p's dtype: int64 counts stay exact
        if not np.all((p >= 0) & (p < np.inf)):  # a NaN fails both
            raise InvalidParameter("parameter_values must be finite and non-negative")
        if not np.all(np.isfinite(d)) or np.any(d < 0):
            raise InvalidParameter("distances must be finite and non-negative")
        exact = bool(np.all(d <= EXACT_DISTANCE))
        fit = (np.arange(len(p)) >= min(2, len(p) - 2)) & (p > 0)
        rate = rank = np.nan  # full: a rank-deficient fit reports its rank, not a warning
        if not exact and fit.sum() >= 2:
            (rate, _), _, rank, *_ = np.polyfit(
                np.log(p[fit]), np.log(np.maximum(d[fit], 1e-300)), 1, full=True)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "fitted_rate", float(rate if rank == 2 else np.nan))

    @property
    def doubling_factor(self) -> float:
        """Mean factor by which the distance shrinks per parameter doubling.

        Geometric mean over the whole sweep: the raw step-to-step ratios
        oscillate because the leading error term carries a phase that spins
        with the parameter, but the aggregate factor is stable and equals
        2^(-fitted slope) for clean first-order convergence.  The sweep starts
        at the first positive parameter; NaN with fewer than 2 such points, or with
        a first and last that are one float64.
        """
        p = np.asarray(self.parameter_values, dtype=float)
        d = np.asarray(self.distances, dtype=float)[p > 0]
        p = p[p > 0]
        if self.exact or len(d) < 2 or d[-1] == 0.0 or p[-1] == p[0]:
            return float("nan")
        with np.errstate(over="ignore"):  # inf: a factor past the float range
            return float((d[0] / d[-1]) ** (1.0 / np.log2(p[-1] / p[0])))


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """Per-sample observables extracted from an EvolutionRecord.

    ``subspace_probabilities`` has one row per time and one column per
    sector; ``coherence_blocks`` maps sector pairs (n, m), n < m, to the
    Frobenius norm of the cross block P_n rho P_m over time.  ``leakage``
    is 1 - sum_n p_n, nonzero only when amplitude has left the modelled
    levels (the decay model).  Every field is a float array with one entry
    (or row) per sample, computed for all samples at once by ``observables``.
    """

    times: np.ndarray
    subspace_probabilities: np.ndarray
    purity: np.ndarray
    coherence_blocks: dict[tuple[int, int], np.ndarray]
    leakage: np.ndarray


@dataclass(frozen=True, eq=False)
class DecayProtectionResult:
    """Survival of the decaying level at each protective coupling strength; construction
    derives ``protective_coupling``, the first K with survival >= ``threshold``, or None."""

    couplings: np.ndarray
    survivals: np.ndarray
    threshold: float
    protective_coupling: float | None = field(init=False)

    def __post_init__(self):
        if np.shape(self.couplings) != np.shape(self.survivals):
            raise DimensionMismatch("coupling and survival lengths differ")
        hit = np.flatnonzero(np.asarray(self.survivals) >= self.threshold)
        object.__setattr__(self, "protective_coupling",
                           float(np.asarray(self.couplings)[hit[0]]) if len(hit) else None)

    @property
    def points(self) -> list[tuple[float, float]]:
        return [(float(k), float(s)) for k, s in zip(self.couplings, self.survivals)]


def _checked(x: np.ndarray, dim: int, vectors: bool = False) -> np.ndarray:
    """A stack (S, d, d) of dim×dim matrices, or (S, d) of vectors, bounded; else the error."""
    if not vectors and (x.ndim != 3 or x.shape[1] != x.shape[2]):
        raise DimensionMismatch(f"rho must be square, got shape {x.shape[1:]}")
    _bounded(x, "rho")
    if x.shape[1] != dim:
        raise DimensionMismatch(f"rho is {x.shape[1]}-dim, resolution is {dim}-dim")
    return x


def _rotated(x: np.ndarray, res: ResolutionOfIdentity) -> np.ndarray:
    """The stack in the sector basis W: rows (W† psi_s)ᵀ, or W† x_s W by the lift W† ⊗ Wᵀ."""
    if x.ndim == 2:
        return x @ res.basis.conj()
    return (x.reshape(-1, res.dim ** 2) @ _lift(dagger(res.basis)).T).reshape(x.shape)


def _probabilities(y: np.ndarray, res: ResolutionOfIdentity) -> np.ndarray:
    """(S, sectors) p_n of a rotated stack, one product with the 0/1 sector selector:
    ||block n||² of a vector's float view, the complex trace of a density's block (n, n)."""
    select = np.repeat(np.eye(res.nsectors), res.ranks, axis=0)
    if y.ndim == 2:
        return np.square(y.view(float)) @ np.repeat(select, 2, axis=0)
    return np.diagonal(y, axis1=1, axis2=2) @ select


def _purities(x: np.ndarray) -> np.ndarray:
    """(S,) complex tr(x_s x_s)."""
    return np.einsum("sij,sji->s", x, x)


def _coherences(y: np.ndarray, res: ResolutionOfIdentity, pairs) -> dict:
    """{(n, m): (S,) ‖P_n x_s P_m‖_F}, each the norm of block (n, m) of y = W† x_s W."""
    edge = np.cumsum((0,) + res.ranks)
    blocks = {(n, m): y[:, edge[n]:edge[n + 1], edge[m]:edge[m + 1]].view(float)
              for n, m in pairs}
    return {nm: np.sqrt(np.einsum("sij,sij->s", r, r)) for nm, r in blocks.items()}


def _real_parts(values: np.ndarray, names: list[str]) -> np.ndarray:
    """Real part of (S, k) values whose column j is called names[j].

    The first value, in sample then column order, whose imaginary part
    exceeds IMAG_RESIDUE·max(1, |value|) raises InvalidState.
    """
    if np.abs(values.imag).max(initial=0.0) <= IMAG_RESIDUE:
        return values.real  # passes at any |value|, so skip the scaled test
    bad = np.abs(values.imag) > IMAG_RESIDUE * np.maximum(1.0, np.abs(values))
    if bad.any():
        s, j = divmod(int(np.argmax(bad)), values.shape[1])
        raise InvalidState(f"{names[j]} has imaginary residue {values[s, j].imag:.3e}")
    return values.real


def _sector_names(res: ResolutionOfIdentity) -> list[str]:
    return [f"p_{i + 1}" for i in range(res.nsectors)]


def subspace_probabilities(rho, res: ResolutionOfIdentity) -> list[float]:
    """Sector populations p_n = trace(rho P_n); they sum to trace(rho)."""
    y = _rotated(_checked(np.asarray(rho, dtype=complex)[None], res.dim), res)
    return _real_parts(_probabilities(y, res), _sector_names(res))[0].tolist()


def purity(rho) -> float:
    """trace(rho^2): 1 for pure states, 1/d for the maximally mixed state."""
    x = check_density_matrix(rho)[None]
    return float(_real_parts(_purities(x)[:, None], ["purity"])[0, 0])


def coherence_block_norm(rho, res: ResolutionOfIdentity, n: int, m: int) -> float:
    """Frobenius norm of the cross block P_n rho P_m (n != m)."""
    if n == m:
        raise InvalidParameter("coherence block needs two distinct sectors")
    res.projector(n), res.projector(m)  # IndexOutOfRange unless both are sectors
    y = _rotated(_checked(np.asarray(rho, dtype=complex)[None], res.dim), res)
    return float(_coherences(y, res, [(n, m)])[n, m][0])


def observables(record, res: ResolutionOfIdentity) -> ObservableSeries:
    """Evaluate probabilities, purity, coherences, and leakage on a record.

    The states are the one stack the record keeps.  One rotation into
    ``res.basis`` W gives W†psi for state vectors (S, d), or W† rho W for
    densities (S, d, d).  p_n is one product of it with the 0/1 sector
    selector, ||P_n rho P_m||_F the norm of block (n, m), sqrt(p_n p_m) for a
    vector.  Purity is (Σ p_n)² for a vector and tr(rho²) on the unrotated
    stack for a density; a subnormalized vector (decay model) leaks 1 - Σ p_n.
    The stack is checked as a whole, with the errors and messages of the
    single-state functions: shape, finite entries, dimension, then the
    imaginary residue of each p_n and of the purity, first sample first.
    """
    times = np.asarray(record.times_or_steps, dtype=float)
    x = record._stack
    if len(x) == 0:
        x = x.reshape(0, res.dim, res.dim)
    k = res.nsectors
    pairs = [(n, m) for n in range(k) for m in range(n + 1, k)]
    y = _rotated(_checked(x, res.dim, vectors=x.ndim == 2), res)
    if y.ndim == 2:
        probs = _probabilities(y, res)
        coherences = {(n, m): np.sqrt(probs[:, n] * probs[:, m]) for n, m in pairs}
    else:
        values = _real_parts(np.column_stack([_probabilities(y, res), _purities(x)]),
                             _sector_names(res) + ["purity"])
        probs, purities = values[:, :k], values[:, k]
        coherences = _coherences(y, res, pairs)
    total = probs @ np.ones(k)
    if y.ndim == 2:
        purities = total ** 2
    return ObservableSeries(times=times, subspace_probabilities=probs, purity=purities,
                            coherence_blocks=coherences, leakage=1.0 - total)


def _sweep_values(parameter_values) -> np.ndarray:
    """A curve's sweep: 3 or more increasing values, in their dtype (N stays int64)."""
    return _increasing(parameter_values, "parameter values", least=3)


def convergence_curve(bundle: ModelBundle, t: float,
                      parameter_values) -> ConvergenceCurve:
    """Operator-norm distance of the extracted limit to exp(-i H_Z t).

    Works on kicked bundles (parameter N, integer kick counts) and continuous
    bundles (parameter K); either sweep is one stacked call.  First-order
    convergence shows up as fitted_rate near -1 and a doubling_factor near 2.
    """
    if bundle.mechanism not in ("kicked", "continuous"):
        raise InvalidParameter(
            f"convergence_curve needs a kicked or continuous bundle, "
            f"got {bundle.mechanism!r}")
    u_z = propagator(bundle.zeno_hamiltonian(), t)
    if bundle.mechanism == "kicked":  # the engine checks each value, then the sweep's order
        name, limits = "N", _kick_limits(bundle.H, bundle.U_kick, t, parameter_values)
    else:
        name, limits = "K", extracted_continuous_limit(bundle.H, bundle.H_c, t,
                                                       parameter_values)
    return ConvergenceCurve(name, _sweep_values(parameter_values),
                            np.linalg.norm(limits - u_z, 2, axis=(1, 2)))


def projective_convergence_curve(bundle: ModelBundle, rho0, t: float,
                                 n_values) -> ConvergenceCurve:
    """Frobenius distance of the finite-N measured state to the Zeno limit, O(log N) per N."""
    if bundle.mechanism != "projective":
        raise InvalidParameter(
            f"projective_convergence_curve needs a projective bundle, "
            f"got {bundle.mechanism!r}")
    finals = _measured_finals(rho0, bundle.H, bundle.res, t, n_values)  # checks each N
    limit = evolve_zeno_limit(rho0, bundle.H, bundle.res, t, samples=2).final_state
    return ConvergenceCurve("N", _sweep_values(n_values),
                            np.linalg.norm(finals - limit, axis=(1, 2)))


def decay_protection_sweep(omega1: float, tau_z: float, gamma: float,
                           omega_b: float, k_values, t: float,
                           threshold: float = 0.9) -> DecayProtectionResult:
    """Survival |<b|psi(t)>|^2 of the decaying level over a coupling sweep.

    The initial state is |b>.  The result derives the smallest K whose
    survival reaches ``threshold`` (None if none does).  Only the tail
    (large K) is guaranteed monotone; weak coupling can accelerate decay.
    The stack H + K_b H_c takes the checks and the route of ``evolve_continuous``,
    which the decaying H fixes at every K, in one batched call.
    """
    ks = _increasing(np.asarray(k_values, dtype=float), "coupling values", least=1)
    bundle = decay_model(omega1, tau_z, gamma, 0.0, omega_b)  # H, H_c do not depend on K
    states = _sample_continuous(*_continuous_generator(bundle.H, bundle.H_c, ks, t),
                                np.eye(4, dtype=complex)[1], np.array([0.0, t]))
    # scalar abs, not np.abs: the vectorised one differs in the last bit on some inputs
    survivals = np.array([abs(amp) ** 2 for amp in states[:, -1, 1]])
    return DecayProtectionResult(couplings=ks, survivals=survivals, threshold=threshold)
