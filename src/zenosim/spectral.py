"""Spectral decompositions, pinching, and the Zeno Hamiltonian.

A disturbance (measurement, kick unitary, or strong coupling Hamiltonian)
defines a family of orthogonal projectors P_n summing to the identity; the
Zeno dynamics it induces lives inside those sectors and is generated by the
pinched Hamiltonian sum_n P_n H P_n.  This module builds such resolutions
of identity from Hermitian or unitary operators.  A ResolutionOfIdentity
checks its invariants when it is built, so one that exists is sound and
every engine and observable can take it as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateClustering,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
)
from .linalg import (
    MAGNITUDE_BOUND,
    _as_array,
    _bounded,
    _cayley_eig,
    _hermitian_part,
    _is_real,
    _norms,
    _wrap_phase,
    as_square_matrix,
    dagger,
    eigh,
    require_hermitian,
    require_unitary,
)

# eigenvalue clustering width, scaled by max(1, largest |eigenvalue|) for a
# Hermitian operator; gaps within [width/2, 2 width] are ambiguous and raise
CLUSTER_WIDTH = 1e-8
# idempotence / orthogonality / completeness slack for projectors
PROJECTOR_TOL = 1e-10

__all__ = [
    "ResolutionOfIdentity",
    "projections_of_hermitian",
    "projections_of_unitary",
    "pinch",
    "zeno_hamiltonian",
]


@dataclass(frozen=True, eq=False)
class ResolutionOfIdentity:
    """Orthogonal projectors P_n with sum_n P_n = I, each tagged by a label.

    Labels are the spectral values the projectors came from: eigenvalues for
    a Hermitian disturbance, eigenphases in (-pi, pi] for a unitary kick.
    Construction coerces the projectors to square complex matrices, derives
    ``dim``, ``pinching``, the d²×d² map sum_n P_n ⊗ P_nᵀ that takes the
    row-major vec(x) to vec(pinch(x)) (16·d⁴ bytes), and the sector layout from
    one eigh of sum_n n P_n: ``basis``, its unitary W; ``column_sectors``, its
    eigenvalues rounded, the n of the P_n each column spans, ascending; ``ranks``,
    their counts; and ``sector_columns``, the slice of W's columns spanning each
    P_n.  It refuses a family that is not a resolution with InvalidParameter,
    naming the first invariant that fails: each P_n Hermitian and idempotent,
    distinct P_n mutually orthogonal, the family summing to the identity
    (each to PROJECTOR_TOL, Frobenius), and labels real, finite, at most 2**128 in
    magnitude and pairwise further apart than CLUSTER_WIDTH.
    """

    projectors: tuple[np.ndarray, ...]
    labels: tuple[float, ...]
    dim: int = field(init=False)
    ranks: tuple[int, ...] = field(init=False)
    pinching: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)
    column_sectors: np.ndarray = field(init=False, repr=False)
    sector_columns: tuple[slice, ...] = field(init=False, repr=False)

    def __post_init__(self):
        p = _as_array(self.projectors, "projectors", (3,),
                      what="a sequence of square matrices, all of one size")
        if p.shape[1] != p.shape[2]:
            raise DimensionMismatch(f"projectors must be square, got shape {p.shape[1:]}")
        _bounded(p, "projectors")
        labels = tuple(_as_array(self.labels, "labels", (1,), None, "a 1-D array of real "
                                 "numbers", InvalidParameter).astype(float).tolist())
        if len(p) != len(labels):
            raise DimensionMismatch("projector and label counts differ")
        object.__setattr__(self, "projectors", tuple(p))
        object.__setattr__(self, "labels", labels)
        _check_resolution(p, labels)
        values, w = np.linalg.eigh(sum(n * q for n, q in enumerate(p)))
        object.__setattr__(self, "column_sectors", np.rint(values).astype(int))
        edge = np.searchsorted(self.column_sectors, np.arange(len(p) + 1)).tolist()
        object.__setattr__(self, "dim", d := p.shape[1])
        object.__setattr__(self, "ranks", tuple(b - a for a, b in zip(edge, edge[1:])))
        object.__setattr__(self, "pinching",
                           np.einsum("nij,nlk->ikjl", p, p).reshape(d * d, d * d))
        object.__setattr__(self, "basis", w)
        object.__setattr__(self, "sector_columns", tuple(map(slice, edge, edge[1:])))

    @property
    def nsectors(self) -> int:
        return len(self.projectors)

    def projector(self, n: int) -> np.ndarray:
        if not (_is_real(n) and isinstance(n, (int, np.integer)) and 0 <= n < self.nsectors):
            raise IndexOutOfRange(f"sector {n!r} not in 0..{self.nsectors - 1}")
        return self.projectors[n]


def _refuse_above(invariant: str, sizes, tol: float, name="P_{}".format) -> None:
    """Raise on the first of ``sizes`` above ``tol``; name(k) says whose it is."""
    for k, size in enumerate(np.ravel(sizes).tolist()):
        if size > tol:
            raise InvalidParameter(
                f"not a resolution of identity: {invariant} fails for {name(k)}, "
                f"defect {size:.3e} exceeds tolerance {tol:.0e}")


def _check_resolution(p: np.ndarray, labels: tuple[float, ...]) -> None:
    """Refuse the stacked projectors p[n] and their labels unless every invariant holds."""
    n, dim, _ = p.shape
    _refuse_above("hermiticity", _norms(p - p.conj().swapaxes(1, 2)), PROJECTOR_TOL)
    _refuse_above("idempotence", _norms(p @ p - p), PROJECTOR_TOL)
    overlaps = _norms(p[:, None] @ p)  # ||P_i P_j||; the diagonal is not an overlap
    np.fill_diagonal(overlaps, 0.0)
    _refuse_above("orthogonality", overlaps, PROJECTOR_TOL,
                  lambda k: "P_{} P_{}".format(*divmod(k, n)))
    _refuse_above("completeness", _norms(p.sum(axis=0) - np.eye(dim)), PROJECTOR_TOL,
                  lambda k: "sum_n P_n - I")
    for k, label in enumerate(labels):
        if not abs(label) <= MAGNITUDE_BOUND:  # NaN fails; N or K*t times it stays finite
            raise InvalidParameter(f"not a resolution of identity: label finiteness "
                                   f"fails for label {k}, value {label}, bound 2**128")
    order = sorted(range(n), key=labels.__getitem__)
    for i, j in zip(order, order[1:]):
        if labels[j] - labels[i] <= CLUSTER_WIDTH:
            raise InvalidParameter(
                f"not a resolution of identity: label distinctness fails for labels "
                f"{min(i, j)} and {max(i, j)}, gap {labels[j] - labels[i]:.3e} "
                f"within CLUSTER_WIDTH {CLUSTER_WIDTH:.0e}")


def _cluster_sorted(values: np.ndarray, width: float) -> list[np.ndarray]:
    """Group ascending values by consecutive gaps.

    Gaps above 2*width split, below width/2 merge; a gap inside [width/2,
    2*width] is ambiguous and raises, since nudging the tolerance would
    change the grouping.
    """
    gaps = np.diff(values)
    ambiguous = (gaps >= 0.5 * width) & (gaps <= 2.0 * width)
    if np.any(ambiguous):
        k = int(np.argmax(ambiguous))
        raise DegenerateClustering(
            f"eigenvalue gap {gaps[k]:.3e} lies inside the ambiguity band "
            f"[{0.5 * width:.3e}, {2.0 * width:.3e}] of the clustering tolerance")
    return np.split(np.arange(len(values)), np.flatnonzero(gaps > 2.0 * width) + 1)


def _cluster_projectors(values: np.ndarray, vectors: np.ndarray, width: float,
                        label) -> ResolutionOfIdentity:
    """One projector per cluster of the ascending values, by ascending label.

    Column i of ``vectors`` belongs to values[i]; a cluster is labelled
    label(mean of its values).
    """
    pairs = sorted(((label(float(values[c].mean())), vectors[:, c] @ dagger(vectors[:, c]))
                    for c in _cluster_sorted(values, width)), key=lambda lp: lp[0])
    return ResolutionOfIdentity([p for _, p in pairs], [l for l, _ in pairs])


def projections_of_hermitian(h) -> ResolutionOfIdentity:
    """Spectral projectors of a Hermitian operator, one per eigenvalue cluster.

    Eigenvalues closer than CLUSTER_WIDTH * max(1, ||h||) are merged into one
    degenerate sector.  Labels are the cluster means, ascending.
    """
    w, v = eigh(as_square_matrix(h, "eigh input"))  # one matrix, not a stack
    width = CLUSTER_WIDTH * max(1.0, float(np.abs(w).max()))
    return _cluster_projectors(w, v, width, float)


def projections_of_unitary(u) -> ResolutionOfIdentity:
    """Spectral projectors of a unitary, one per eigenphase cluster.

    The eigenphase of an eigenvalue e^{-i lambda} is lambda.  The phases are
    clustered in the frame of ``linalg._cayley_eig``, whose cut of the circle
    lies further from every phase than any gap the clustering merges or finds
    ambiguous, so no cluster straddles it; each cluster is labelled by its mean
    wrapped to (-pi, pi].  Sectors are returned in ascending label order.
    """
    lam, z = _cayley_eig(require_unitary(u, "projections_of_unitary input"))
    order = np.argsort(lam, kind="stable")
    return _cluster_projectors(lam[order], z[:, order], CLUSTER_WIDTH, _wrap_phase)


def pinch(x, res: ResolutionOfIdentity) -> np.ndarray:
    """Block-diagonal part sum_n P_n x P_n, one product with ``res.pinching``.

    Models a nonselective measurement: trace is preserved, cross-sector
    coherences are erased, purity cannot increase.
    """
    m = as_square_matrix(x, "pinch input")
    if m.shape[0] != res.dim:
        raise DimensionMismatch(
            f"pinch input is {m.shape[0]}-dim, resolution is {res.dim}-dim")
    return res.pinching.dot(m.reshape(-1)).reshape(m.shape)


def zeno_hamiltonian(h, res: ResolutionOfIdentity) -> np.ndarray:
    """Pinched Hamiltonian sum_n P_n h P_n; commutes with every P_n."""
    m = require_hermitian(h, "zeno_hamiltonian input")
    hz = pinch(m, res)
    return _hermitian_part(hz)
