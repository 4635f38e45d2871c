"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from zenosim.spectral import ResolutionOfIdentity


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_two_block_resolution(rng: np.random.Generator, dim: int,
                                rank1: int) -> ResolutionOfIdentity:
    """Random orthogonal 2-block split of C^dim with given first rank."""
    u = random_unitary(rng, dim)
    p1 = u[:, :rank1] @ u[:, :rank1].conj().T
    p2 = u[:, rank1:] @ u[:, rank1:].conj().T
    return ResolutionOfIdentity([p1, p2], [1.0, 2.0])


def uneven_resolution(rng: np.random.Generator) -> ResolutionOfIdentity:
    """Ranks 1, 3, 2, 1 of C^7, labels 0..3, spanned by a random unitary's columns, so no
    sector lies on the axes."""
    u = random_unitary(rng, 7)
    return ResolutionOfIdentity([b @ b.conj().T for b in np.split(u, [1, 4, 6], axis=1)],
                                [0.0, 1.0, 2.0, 3.0])


def basis_state(dim: int, index: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def straddle_state(dim: int) -> np.ndarray:
    """(|b> + |c>)/sqrt(2): straddles the two Zeno sectors of every model."""
    psi = np.zeros(dim, dtype=complex)
    psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
    return psi
