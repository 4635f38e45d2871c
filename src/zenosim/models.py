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
)
from .engines import _check_coupling
from .linalg import _in_domain, as_square_matrix, require_hermitian
from .spectral import (
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

@dataclass(frozen=True, eq=False)
class ModelBundle:
    """A system Hamiltonian plus exactly one disturbance payload.

    Construction checks H and the payload and derives, from the payload alone,
    the ``mechanism`` (``res``: projective measurements, ``U_kick``: kicks,
    ``(H_c, K)`` with a finite K >= 0: continuous coupling) and the Zeno sectors
    it induces, returned by ``resolution()``, whose dimension must be H's.  H must
    be Hermitian unless the payload is H_c, whose engines also take a decaying H.
    """

    H: np.ndarray
    res: ResolutionOfIdentity | None = None
    U_kick: np.ndarray | None = None
    H_c: np.ndarray | None = None
    K: float | None = None
    mechanism: str = field(init=False)
    _resolution: ResolutionOfIdentity = field(init=False, repr=False)

    def __post_init__(self):
        present = [x is not None for x in (self.res, self.U_kick, self.H_c)]
        if sum(present) != 1 or (self.H_c is not None and self.K is None):
            raise InvalidParameter("a bundle must carry exactly one payload: "
                                   "res, U_kick, or H_c with K")
        if self.K is not None:
            _check_coupling(self.K)
        h = as_square_matrix(self.H, "H")
        object.__setattr__(self, "H", h)
        if self.H_c is None:  # the engines' own test
            require_hermitian(h, "H")
        if self.res is not None:
            mechanism, label, res = "projective", "res", self.res
        elif self.U_kick is not None:
            mechanism, label, res = "kicked", "U_kick", projections_of_unitary(self.U_kick)
        else:
            mechanism, label, res = "continuous", "H_c", projections_of_hermitian(self.H_c)
        if res.dim != h.shape[0]:
            raise DimensionMismatch(f"{label} dimension {res.dim} != H dimension {h.shape[0]}")
        object.__setattr__(self, "mechanism", mechanism)
        object.__setattr__(self, "_resolution", res)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def resolution(self) -> ResolutionOfIdentity:
        """Zeno sectors induced by this bundle's disturbance."""
        return self._resolution

    def zeno_hamiltonian(self) -> np.ndarray:
        return zeno_hamiltonian(self.H, self._resolution)


def _check_finite(params: dict, positive: tuple[str, ...] = ()) -> None:
    """Refuse a parameter out of the magnitude domain, or a non-positive one in ``positive``."""
    for name, x in params.items():
        if not (_in_domain(x) and (x > 0 or name not in positive)):
            raise InvalidParameter(f"{name} must be finite{' and positive' * (name in positive)}"
                                   f", with magnitude 0 or in [2**-128, 2**128], got {x!r}")


def _chain_hamiltonian(omega1: float, omega2: float, dim: int) -> np.ndarray:
    h = np.zeros((dim, dim), dtype=complex)
    h[0, 1] = h[1, 0] = omega1
    h[1, 2] = h[2, 1] = omega2
    return h


def _probe_coupling() -> np.ndarray:
    """|c><M| + |M><c|, coupling level c to the ancilla M of a 4-level model."""
    h_c = np.zeros((4, 4), dtype=complex)
    h_c[2, 3] = h_c[3, 2] = 1.0
    return h_c


def _two_block_resolution() -> ResolutionOfIdentity:
    p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    return ResolutionOfIdentity([p1, p2], [1.0, 2.0])


def _with_sectors(bundle: ModelBundle, count: int, error, what: str) -> ModelBundle:
    """The bundle, if its disturbance splits the space into ``count`` Zeno sectors."""
    if (found := bundle.resolution().nsectors) != count:
        raise error(f"{what}: the {bundle.mechanism} disturbance has Zeno "
                    f"sector count {found}, not {count}")
    return bundle


def three_level_projective(omega1: float = 1.0, omega2: float = 1.0) -> ModelBundle:
    """3-level chain measured with {P_1 = |a><a| + |b><b|, P_2 = |c><c|}.

    The measurement pins the dynamics inside the rank-2 sector, where only
    the a--b coupling survives: H_Z = [[0, O1, 0], [O1, 0, 0], [0, 0, 0]].
    """
    _check_finite(locals())
    h = _chain_hamiltonian(omega1, omega2, 3)
    res = _two_block_resolution()
    return ModelBundle(H=h, res=res)


def four_level_kicked(omega1: float = 1.0, omega2: float = 1.0,
                      lambda1: float = 0.0, lambda2: float = 1.0) -> ModelBundle:
    """3-level chain plus an ancilla M kicked against |c>.

    The kick acts as e^{-i lambda1} on span{a, b} and rotates the {c, M}
    pair by lambda2, giving eigenphases (lambda1, +lambda2, -lambda2) on
    sectors (span{a,b}, (|c>+|M>)/sqrt2, (|c>-|M>)/sqrt2).  All three
    phases must be distinct modulo 2 pi or the sectors merge.
    """
    _check_finite(locals())
    h = _chain_hamiltonian(omega1, omega2, 4)
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[1, 1] = np.exp(-1j * lambda1)
    u[2, 2] = u[3, 3] = np.cos(lambda2)
    u[2, 3] = u[3, 2] = -1j * np.sin(lambda2)
    return _with_sectors(ModelBundle(H=h, U_kick=u), 3,
                         DegenerateKickPhases, "kick eigenphases lambda1, +lambda2 "
                         "and -lambda2 are not distinct modulo 2*pi")


def four_level_continuous(omega1: float = 1.0, omega2: float = 1.0,
                          coupling: float = 1.0) -> ModelBundle:
    """3-level chain plus an ancilla M coupled to |c> with strength K.

    H_c = |c><M| + |M><c| has eigenvalues (0, +1, -1) on the same sectors
    as the kicked variant, so the K -> infinity limit pins the identical
    Zeno Hamiltonian.
    """
    _check_finite(locals())
    h = _chain_hamiltonian(omega1, omega2, 4)
    return ModelBundle(H=h, H_c=_probe_coupling(), K=float(coupling))


def simplified_kicked(omega1: float = 1.0, omega2: float = 1.0,
                      lambda1: float = 0.0, lambda2: float = 1.0) -> ModelBundle:
    """Kicks acting in the original 3-level space, no ancilla.

    U_kick' = e^{-i lambda1} P_1 + e^{-i lambda2} P_2 with the projective
    model's two sectors.  For lambda1 = 0, lambda2 = 1 this is exactly
    exp(-i |c><c|).
    """
    _check_finite(locals())
    h = _chain_hamiltonian(omega1, omega2, 3)
    res = _two_block_resolution()
    u = (np.exp(-1j * lambda1) * res.projectors[0]
         + np.exp(-1j * lambda2) * res.projectors[1])
    return _with_sectors(ModelBundle(H=h, U_kick=u), 2, DegenerateKickPhases,
                         "lambda1 and lambda2 coincide modulo 2*pi")


def simplified_continuous(omega1: float = 1.0, omega2: float = 1.0,
                          eta1: float = 0.0, eta2: float = 1.0,
                          coupling: float = 1.0) -> ModelBundle:
    """Continuous coupling acting in the original 3-level space.

    H_c' = eta1 P_1 + eta2 P_2; for eta1 = 0, eta2 = 1 this is |c><c|.
    """
    _check_finite(locals())
    h = _chain_hamiltonian(omega1, omega2, 3)
    res = _two_block_resolution()
    h_c = eta1 * res.projectors[0] + eta2 * res.projectors[1]
    bundle = ModelBundle(H=h, H_c=h_c, K=float(coupling))
    return _with_sectors(bundle, 2, DegenerateCouplingLevels, "eta1 and eta2 coincide")


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
    _check_finite(locals(), positive=("tau_z", "gamma"))
    h = _chain_hamiltonian(omega1, 1.0 / tau_z, 4)
    h[1, 1] = omega_b
    h[2, 2] = -1j * (2.0 / (tau_z * tau_z * gamma))  # the continuum half-width
    return ModelBundle(H=h, H_c=_probe_coupling(), K=float(coupling))
