"""Concrete finite-dimensional systems, in dimensionless units (hbar = 1).

Basis ordering is (a, b, c) for the 3-level family and (a, b, c, M) when a
fourth ancilla level M is present.  The free Hamiltonian is a chain of two
couplings,

    H = [[0,  O1, 0 ],          a -- b with strength Omega_1,
         [O1, 0,  O2],          b -- c with strength Omega_2,
         [0,  O2, 0 ]]

and each model adds one disturbance that protects the {a, b} subspace:
repeated measurements of {P_1, P_2}, a kick unitary, or a strong coupling
K * H_c.  The decay variant replaces |c> with a continuum level of width
2/(tau_Z^2 gamma) at amplitude level, which makes H non-Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCouplingLevels,
    DegenerateKickPhases,
    DimensionMismatch,
    InvalidParameter,
    NotHermitian,
)
from .engines import _check_coupling
from .linalg import as_square_matrix, dagger, frobenius
from .spectral import (
    CLUSTER_WIDTH,
    ResolutionOfIdentity,
    projections_of_hermitian,
    projections_of_unitary,
    zeno_hamiltonian,
)

__all__ = [
    "ModelBundle",
    "three_level_projective",
    "four_level_kicked",
    "four_level_continuous",
    "simplified_kicked",
    "simplified_continuous",
    "decay_model",
]

_HERMITIAN_BUNDLE_TOL = 1e-12


@dataclass(frozen=True)
class ModelBundle:
    """A system Hamiltonian plus exactly one disturbance payload.

    The payload determines the mechanism: ``res`` for projective
    measurements, ``U_kick`` for kicks, ``(H_c, K)`` with a finite K >= 0
    for continuous coupling.  The Zeno sectors the payload induces are
    derived once, at construction, and returned by ``resolution()``.
    """

    name: str
    H: np.ndarray
    res: ResolutionOfIdentity | None = None
    U_kick: np.ndarray | None = None
    H_c: np.ndarray | None = None
    K: float | None = None
    non_hermitian: bool = False
    _resolution: ResolutionOfIdentity = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        present = [x is not None for x in (self.res, self.U_kick, self.H_c)]
        if sum(present) != 1 or (self.H_c is not None and self.K is None):
            raise InvalidParameter(
                f"bundle {self.name!r} must carry exactly one payload: "
                "res, U_kick, or H_c with K")
        if self.K is not None:
            _check_coupling(self.K)
        h = as_square_matrix(self.H, "H")
        object.__setattr__(self, "H", h)
        dim = h.shape[0]
        for other, label in ((self.res.dim if self.res else None, "res"),
                             (self.U_kick.shape[0] if self.U_kick is not None else None, "U_kick"),
                             (self.H_c.shape[0] if self.H_c is not None else None, "H_c")):
            if other is not None and other != dim:
                raise DimensionMismatch(f"{label} dimension {other} != H dimension {dim}")
        if not self.non_hermitian and frobenius(h - dagger(h)) > _HERMITIAN_BUNDLE_TOL:
            raise NotHermitian(f"bundle {self.name!r} has non-Hermitian H "
                               "without the non_hermitian flag")
        if self.mechanism == "projective":
            res = self.res
        elif self.mechanism == "kicked":
            res = projections_of_unitary(self.U_kick)
        else:
            res = projections_of_hermitian(self.H_c)
        object.__setattr__(self, "_resolution", res)

    @property
    def mechanism(self) -> str:
        """``projective``, ``kicked`` or ``continuous``, from the payload present."""
        if self.res is not None:
            return "projective"
        return "kicked" if self.U_kick is not None else "continuous"

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def H_K(self) -> np.ndarray:
        """Full generator H + K*H_c for a continuous-coupling bundle."""
        if self.H_c is None:
            raise InvalidParameter(f"bundle {self.name!r} has no coupling payload")
        return self.H + self.K * self.H_c

    def resolution(self) -> ResolutionOfIdentity:
        """Zeno sectors induced by this bundle's disturbance."""
        return self._resolution

    @property
    def protected_subspace_index(self) -> int:
        """Sector of the resolution that contains level |a>.

        That sector is the "open system" whose dynamics survives the limit.
        """
        return int(np.argmax([float(p[0, 0].real) for p in self._resolution.projectors]))

    def zeno_hamiltonian(self) -> np.ndarray:
        return zeno_hamiltonian(self.H, self._resolution)


def _chain_hamiltonian(omega1: float, omega2: float, dim: int) -> np.ndarray:
    h = np.zeros((dim, dim), dtype=complex)
    h[0, 1] = h[1, 0] = omega1
    h[1, 2] = h[2, 1] = omega2
    return h


def _two_block_resolution() -> ResolutionOfIdentity:
    p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    return ResolutionOfIdentity.from_projectors([p1, p2], [1.0, 2.0])


def _circular_gap(x: float, y: float) -> float:
    d = abs(x - y) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def three_level_projective(omega1: float = 1.0, omega2: float = 1.0) -> ModelBundle:
    """3-level chain measured with {P_1 = |a><a| + |b><b|, P_2 = |c><c|}.

    The measurement pins the dynamics inside the rank-2 sector, where only
    the a--b coupling survives: H_Z = [[0, O1, 0], [O1, 0, 0], [0, 0, 0]].
    """
    h = _chain_hamiltonian(omega1, omega2, 3)
    res = _two_block_resolution()
    return ModelBundle(name="three-level-projective", H=h, res=res)


def four_level_kicked(omega1: float = 1.0, omega2: float = 1.0,
                      lambda1: float = 0.0, lambda2: float = 1.0) -> ModelBundle:
    """3-level chain plus an ancilla M kicked against |c>.

    The kick acts as e^{-i lambda1} on span{a, b} and rotates the {c, M}
    pair by lambda2, giving eigenphases (lambda1, +lambda2, -lambda2) on
    sectors (span{a,b}, (|c>+|M>)/sqrt2, (|c>-|M>)/sqrt2).  All three
    phases must be distinct modulo 2 pi or the sectors merge.
    """
    phases = {"lambda1": lambda1, "+lambda2": lambda2, "-lambda2": -lambda2}
    names = list(phases)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if _circular_gap(phases[names[i]], phases[names[j]]) <= CLUSTER_WIDTH:
                raise DegenerateKickPhases(
                    f"kick eigenphases {names[i]} and {names[j]} coincide "
                    f"modulo 2*pi; pick lambda1, lambda2 with distinct "
                    f"(lambda1, +lambda2, -lambda2)")
    h = _chain_hamiltonian(omega1, omega2, 4)
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[1, 1] = np.exp(-1j * lambda1)
    u[2, 2] = u[3, 3] = np.cos(lambda2)
    u[2, 3] = u[3, 2] = -1j * np.sin(lambda2)
    return ModelBundle(name="four-level-kicked", H=h, U_kick=u)


def four_level_continuous(omega1: float = 1.0, omega2: float = 1.0,
                          coupling: float = 1.0) -> ModelBundle:
    """3-level chain plus an ancilla M coupled to |c> with strength K.

    H_c = |c><M| + |M><c| has eigenvalues (0, +1, -1) on the same sectors
    as the kicked variant, so the K -> infinity limit pins the identical
    Zeno Hamiltonian.
    """
    h = _chain_hamiltonian(omega1, omega2, 4)
    h_c = np.zeros((4, 4), dtype=complex)
    h_c[2, 3] = h_c[3, 2] = 1.0
    return ModelBundle(name="four-level-continuous", H=h, H_c=h_c, K=float(coupling))


def simplified_kicked(omega1: float = 1.0, omega2: float = 1.0,
                      lambda1: float = 0.0, lambda2: float = 1.0) -> ModelBundle:
    """Kicks acting in the original 3-level space, no ancilla.

    U_kick' = e^{-i lambda1} P_1 + e^{-i lambda2} P_2 with the projective
    model's two sectors.  For lambda1 = 0, lambda2 = 1 this is exactly
    exp(-i |c><c|).
    """
    if _circular_gap(lambda1, lambda2) <= CLUSTER_WIDTH:
        raise DegenerateKickPhases(
            "lambda1 and lambda2 coincide modulo 2*pi; the kick cannot "
            "distinguish the two sectors")
    h = _chain_hamiltonian(omega1, omega2, 3)
    res = _two_block_resolution()
    u = (np.exp(-1j * lambda1) * res.projectors[0]
         + np.exp(-1j * lambda2) * res.projectors[1])
    return ModelBundle(name="simplified-kicked", H=h, U_kick=u)


def simplified_continuous(omega1: float = 1.0, omega2: float = 1.0,
                          eta1: float = 0.0, eta2: float = 1.0,
                          coupling: float = 1.0) -> ModelBundle:
    """Continuous coupling acting in the original 3-level space.

    H_c' = eta1 P_1 + eta2 P_2; for eta1 = 0, eta2 = 1 this is |c><c|.
    """
    scale = max(1.0, abs(eta1), abs(eta2))
    if abs(eta1 - eta2) <= CLUSTER_WIDTH * scale:
        raise DegenerateCouplingLevels(
            "eta1 and eta2 coincide; the coupling cannot distinguish "
            "the two sectors")
    h = _chain_hamiltonian(omega1, omega2, 3)
    res = _two_block_resolution()
    h_c = eta1 * res.projectors[0] + eta2 * res.projectors[1]
    return ModelBundle(name="simplified-continuous", H=h, H_c=h_c, K=float(coupling))


def decay_model(omega1: float = 0.0, tau_z: float = 1.0, gamma: float = 0.1,
                coupling: float = 0.0, omega_b: float = 0.0) -> ModelBundle:
    """Decaying |b> protected by watching its decay product.

    |c> is replaced by a single continuum level of half-width
    2/(tau_Z^2 gamma) (a negative imaginary diagonal entry, amplitude
    level), reached from |b> at rate 1/tau_Z.  Coupling the continuum level
    to a probe M with strength K >> 1/(tau_Z^2 gamma) closes the decay
    channel.  The generator is non-Hermitian; propagate state vectors only.

    The printed model has no detuning.  An off-resonant decaying level is
    our interpretation: ``omega_b`` sits on the |b> diagonal, H[1, 1].
    """
    if not (tau_z > 0):
        raise InvalidParameter(f"tau_Z must be positive, got {tau_z!r}")
    if not (gamma > 0):
        raise InvalidParameter(f"gamma must be positive, got {gamma!r}")
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = omega1
    h[1, 1] = omega_b
    h[1, 2] = h[2, 1] = 1.0 / tau_z
    h[2, 2] = -2j / (tau_z ** 2 * gamma)
    h_c = np.zeros((4, 4), dtype=complex)
    h_c[2, 3] = h_c[3, 2] = 1.0
    return ModelBundle(name="decay", H=h, H_c=h_c, K=float(coupling),
                       non_hermitian=True)
