"""Spectral decompositions, pinching, and the Zeno Hamiltonian.

A disturbance (measurement, kick unitary, or strong coupling Hamiltonian)
defines a family of orthogonal projectors P_n summing to the identity; the
Zeno dynamics it induces lives inside those sectors and is generated by the
pinched Hamiltonian sum_n P_n H P_n.  This module builds and validates such
resolutions of identity from Hermitian or unitary operators.
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
    as_square_matrix,
    dagger,
    eigh,
    frobenius,
    require_hermitian,
    unitary_eig,
)

# eigenvalue clustering width, scaled by max(1, largest |eigenvalue|) for a
# Hermitian operator; gaps within [width/2, 2 width] are ambiguous and raise
CLUSTER_WIDTH = 1e-8
# idempotence / orthogonality / completeness slack for projectors
PROJECTOR_TOL = 1e-10
# slack when rounding trace(P) to an integer rank; beyond this is an error
RANK_ROUND = 1e-6

__all__ = [
    "ResolutionOfIdentity",
    "Violation",
    "validate",
    "projections_of_hermitian",
    "projections_of_unitary",
    "pinch",
    "zeno_hamiltonian",
]


@dataclass(frozen=True)
class Violation:
    """One failed invariant of a resolution of identity."""

    invariant: str
    magnitude: float
    detail: str


@dataclass(frozen=True)
class ResolutionOfIdentity:
    """Orthogonal projectors P_n with sum_n P_n = I, each tagged by a label.

    Labels are the spectral values the projectors came from: eigenvalues for
    a Hermitian disturbance, eigenphases in (-pi, pi] for a unitary kick.
    Ranks are derived at construction as trace(P_n) rounded to the nearest
    integer; a trace further than RANK_ROUND from an integer is rejected.
    """

    dim: int
    projectors: tuple[np.ndarray, ...]
    labels: tuple[float, ...]
    ranks: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if len(self.projectors) == 0:
            raise InvalidParameter("resolution needs at least one projector")
        if len(self.projectors) != len(self.labels):
            raise DimensionMismatch("projector and label counts differ")
        object.__setattr__(self, "ranks", _ranks_from_traces(self.projectors))

    @classmethod
    def from_projectors(cls, projectors, labels) -> "ResolutionOfIdentity":
        projs = tuple(as_square_matrix(p, "projector") for p in projectors)
        dims = {p.shape[0] for p in projs}
        if len(dims) != 1:
            raise DimensionMismatch(f"projectors have mixed dimensions {sorted(dims)}")
        return cls(dim=dims.pop(), projectors=projs,
                   labels=tuple(float(x) for x in labels))

    @property
    def nsectors(self) -> int:
        return len(self.projectors)

    def projector(self, n: int) -> np.ndarray:
        if not 0 <= n < self.nsectors:
            raise IndexOutOfRange(f"sector {n} not in 0..{self.nsectors - 1}")
        return self.projectors[n]


def _ranks_from_traces(projectors) -> tuple[int, ...]:
    ranks = []
    for i, p in enumerate(projectors):
        tr = complex(np.trace(p))
        r = round(tr.real)
        if abs(tr - r) > RANK_ROUND:
            raise InvalidParameter(
                f"projector {i} has trace {tr:.8g}, not within "
                f"{RANK_ROUND:.0e} of an integer rank")
        ranks.append(int(r))
    return tuple(ranks)


def validate(res: ResolutionOfIdentity) -> list[Violation]:
    """Check every invariant of a resolution; return the violations found.

    An empty list means the resolution is sound.  Checked: each projector is
    Hermitian and idempotent, distinct projectors are mutually orthogonal,
    the family sums to the identity, ranks match traces and sum to dim, and
    labels are pairwise distinct beyond CLUSTER_WIDTH.  Projector identities
    are held to PROJECTOR_TOL and traces to RANK_ROUND.
    """
    out: list[Violation] = []
    eye = np.eye(res.dim)
    for i, p in enumerate(res.projectors):
        if p.shape != (res.dim, res.dim):
            out.append(Violation("shape", 0.0, f"P_{i} has shape {p.shape}"))
            continue
        d = frobenius(p - dagger(p))
        if d > PROJECTOR_TOL:
            out.append(Violation("hermiticity", d, f"P_{i} is not Hermitian"))
        d = frobenius(p @ p - p)
        if d > PROJECTOR_TOL:
            out.append(Violation("idempotence", d, f"P_{i}² differs from P_{i}"))
    for i in range(res.nsectors):
        for j in range(i + 1, res.nsectors):
            d = frobenius(res.projectors[i] @ res.projectors[j])
            if d > PROJECTOR_TOL:
                out.append(Violation("orthogonality", d, f"P_{i} P_{j} is nonzero"))
    d = frobenius(sum(res.projectors) - eye)
    if d > PROJECTOR_TOL:
        out.append(Violation("completeness", d, "projectors do not sum to identity"))
    for i, (p, r) in enumerate(zip(res.projectors, res.ranks)):
        d = abs(complex(np.trace(p)) - r)
        if d > RANK_ROUND:
            out.append(Violation("rank", d, f"trace(P_{i}) is far from rank {r}"))
    if sum(res.ranks) != res.dim:
        out.append(Violation("rank-sum", float(abs(sum(res.ranks) - res.dim)),
                             f"ranks {res.ranks} do not sum to dim {res.dim}"))
    labels = np.asarray(res.labels)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            gap = abs(labels[i] - labels[j])
            if gap <= CLUSTER_WIDTH:
                out.append(Violation("label-distinctness", gap,
                                     f"labels {i} and {j} coincide"))
    return out


def _cluster_sorted(values: np.ndarray, width: float) -> list[np.ndarray]:
    """Group ascending values by consecutive gaps.

    Gaps above 2*width split, below width/2 merge; a gap inside [width/2,
    2*width] is ambiguous and raises, since nudging the tolerance would
    change the grouping.
    """
    n = len(values)
    if n == 1:
        return [np.array([0])]
    gaps = np.diff(values)
    ambiguous = (gaps >= 0.5 * width) & (gaps <= 2.0 * width)
    if np.any(ambiguous):
        k = int(np.argmax(ambiguous))
        raise DegenerateClustering(
            f"eigenvalue gap {gaps[k]:.3e} lies inside the ambiguity band "
            f"[{0.5 * width:.3e}, {2.0 * width:.3e}] of the clustering tolerance")
    groups: list[np.ndarray] = []
    start = 0
    for i, g in enumerate(gaps):
        if g > width:
            groups.append(np.arange(start, i + 1))
            start = i + 1
    groups.append(np.arange(start, n))
    return groups


def _cluster_projectors(values: np.ndarray, vectors: np.ndarray, width: float,
                        label) -> ResolutionOfIdentity:
    """One projector per cluster of the ascending values, by ascending label.

    Column i of ``vectors`` belongs to values[i]; a cluster is labelled
    label(mean of its values).
    """
    pairs = []
    for idx in _cluster_sorted(values, width):
        cols = vectors[:, idx]
        pairs.append((label(float(values[idx].mean())), cols @ dagger(cols)))
    pairs.sort(key=lambda lp: lp[0])
    return ResolutionOfIdentity.from_projectors(
        [p for _, p in pairs], [l for l, _ in pairs])


def projections_of_hermitian(h) -> ResolutionOfIdentity:
    """Spectral projectors of a Hermitian operator, one per eigenvalue cluster.

    Eigenvalues closer than CLUSTER_WIDTH * max(1, ||h||) are merged into one
    degenerate sector.  Labels are the cluster means, ascending.
    """
    w, v = eigh(h)
    width = CLUSTER_WIDTH * max(1.0, float(np.abs(w).max()) if len(w) else 1.0)
    return _cluster_projectors(w, v, width, float)


def _wrap_phase(x: float) -> float:
    """Map to (-pi, pi]."""
    y = (x + np.pi) % (2.0 * np.pi) - np.pi
    if y <= -np.pi:
        y += 2.0 * np.pi
    return float(y)


def projections_of_unitary(u) -> ResolutionOfIdentity:
    """Spectral projectors of a unitary, one per eigenphase cluster.

    The eigenphase of an eigenvalue e^{-i lambda} is lambda, wrapped to
    (-pi, pi]; clustering is circular: when the gap across the -pi/pi seam
    is not a clear split, the circle is cut at its widest gap instead, so
    phases hugging the seam are grouped correctly.  Sectors are returned in
    ascending phase order.
    """
    lam, z = unitary_eig(u, "projections_of_unitary input")
    phases = np.array([_wrap_phase(x) for x in lam])
    order = np.argsort(phases, kind="stable")
    phases_sorted = phases[order]
    gaps = np.diff(phases_sorted, append=phases_sorted[0] + 2.0 * np.pi)
    if len(gaps) > 1 and gaps[-1] <= 2.0 * CLUSTER_WIDTH:
        # seam-straddling cluster: cut the circle at its widest gap, at least
        # 2 pi/d and so a clear split, to make the cluster contiguous; unwrap
        k = int(np.argmax(gaps)) + 1
        phases_sorted = np.concatenate([phases_sorted[k:] - 2.0 * np.pi, phases_sorted[:k]])
        order = np.roll(order, -k)
    return _cluster_projectors(phases_sorted, z[:, order], CLUSTER_WIDTH, _wrap_phase)


def pinch(x, res: ResolutionOfIdentity) -> np.ndarray:
    """Block-diagonal part sum_n P_n x P_n.

    Models a nonselective measurement: trace is preserved, cross-sector
    coherences are erased, purity cannot increase.
    """
    m = as_square_matrix(x, "pinch input")
    if m.shape[0] != res.dim:
        raise DimensionMismatch(
            f"pinch input is {m.shape[0]}-dim, resolution is {res.dim}-dim")
    out = np.zeros_like(m)
    for p in res.projectors:
        out += p @ m @ p
    return out


def zeno_hamiltonian(h, res: ResolutionOfIdentity) -> np.ndarray:
    """Pinched Hamiltonian sum_n P_n h P_n; commutes with every P_n."""
    m = require_hermitian(h, "zeno_hamiltonian input")
    hz = pinch(m, res)
    return 0.5 * (hz + dagger(hz))
