from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_density,
    random_hermitian,
    random_two_block_resolution,
    random_unitary,
)
from zenosim.engines import evolve_projective
from zenosim.errors import (
    DegenerateClustering,
    DimensionMismatch,
    InvalidParameter,
    NotHermitian,
    NotUnitary,
)
from zenosim.linalg import expm, frobenius, propagator, unitary_eig
from zenosim.models import three_level_projective
from zenosim.spectral import (
    PROJECTOR_TOL,
    ResolutionOfIdentity,
    _cluster_sorted,
    pinch,
    projections_of_hermitian,
    projections_of_unitary,
    zeno_hamiltonian,
)

P1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
P2 = np.diag([0.0, 0.0, 1.0]).astype(complex)


def two_block():
    return ResolutionOfIdentity([P1, P2], [1.0, 2.0])


def coupling_4level():
    h_c = np.zeros((4, 4), dtype=complex)
    h_c[2, 3] = h_c[3, 2] = 1.0
    return h_c


def kick_4level(lam1=0.0, lam2=1.0):
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = u[1, 1] = np.exp(-1j * lam1)
    u[2, 2] = u[3, 3] = np.cos(lam2)
    u[2, 3] = u[3, 2] = -1j * np.sin(lam2)
    return u


def plus_minus_projectors():
    c = np.zeros(4, dtype=complex)
    m = np.zeros(4, dtype=complex)
    c[2] = m[3] = 1.0
    plus = (c + m) / np.sqrt(2)
    minus = (c - m) / np.sqrt(2)
    return np.outer(plus, plus.conj()), np.outer(minus, minus.conj())


class TestValidate:
    """A resolution checks its invariants when built and refuses a non-resolution."""

    def test_two_block_clean(self):
        res = two_block()
        assert (res.dim, res.ranks, res.labels) == (3, (2, 1), (1.0, 2.0))
        assert all(p.dtype == complex for p in res.projectors)

    def test_trivial_resolution(self):
        res = ResolutionOfIdentity([np.eye(3, dtype=complex)], [0.0])
        assert (res.dim, res.ranks) == (3, (3,))

    def test_init_fields_are_projectors_and_labels(self):
        assert [f.name for f in fields(ResolutionOfIdentity) if f.init] == [
            "projectors", "labels"]

    def test_duplicated_projector_reported(self):
        with pytest.raises(InvalidParameter, match="orthogonality fails for P_0 P_1"):
            ResolutionOfIdentity([P1, P1], [1.0, 2.0])

    def test_rank_sum_reported(self):
        with pytest.raises(InvalidParameter, match="completeness"):
            ResolutionOfIdentity([P1], [1.0])

    def test_close_labels_reported(self):
        with pytest.raises(InvalidParameter, match="label distinctness fails for labels 0 and 1"):
            ResolutionOfIdentity([P1, P2], [1.0, 1.0 + 1e-12])

    @pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_reported(self, label):
        # every distinctness comparison with NaN is false, so check finiteness first
        with pytest.raises(InvalidParameter, match="label finiteness fails for label 0"):
            ResolutionOfIdentity([P1, P2], [label, 1.0])

    def test_non_hermitian_reported(self):
        p = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # idempotent, oblique
        with pytest.raises(InvalidParameter, match="hermiticity fails for P_0"):
            ResolutionOfIdentity([p, np.eye(2) - p], [0.0, 1.0])

    def test_leaky_projector_reported(self):
        # Hermitian with trace 1 but not idempotent: measured with it,
        # evolve_projective at N=100 returns a "density matrix" of trace 5e5
        p2 = P2.copy()
        p2[0, 2] = p2[2, 0] = 0.3
        with pytest.raises(InvalidParameter, match="idempotence fails for P_1"):
            ResolutionOfIdentity([P1, p2], [1.0, 2.0])

    def test_fractional_trace_is_hard_error(self):
        with pytest.raises(InvalidParameter):
            ResolutionOfIdentity(
                [np.diag([0.7, 0.0]).astype(complex)], [0.0])

    @pytest.mark.parametrize("projectors", [
        [np.ones((3, 2)), np.eye(3)], [np.ones((2, 3))] * 2, [np.eye(2), np.eye(3)],
        [np.ones(3)]], ids=["non-square", "uniform-non-square", "mixed-dimensions", "vector"])
    def test_wrong_shape_reported(self, projectors):
        with pytest.raises(DimensionMismatch):
            ResolutionOfIdentity(projectors, [float(k) for k in range(len(projectors))])


@pytest.mark.parametrize("projectors, labels, error, message", [
    ([], [], DimensionMismatch, "^projectors must be .*, got an empty array$"),
    ([np.eye(2)], [0.0, 1.0], DimensionMismatch, "^projector and label counts differ$"),
], ids=["no-projectors", "label-count"])
def test_family_without_one_label_per_projector_refused(projectors, labels, error,
                                                        message):
    with pytest.raises(error, match=message):
        ResolutionOfIdentity(projectors, labels)


def _random_clusters(rng, d):
    """Cluster count m and each of d eigenvalues' cluster, every cluster used."""
    m = int(rng.integers(1, d + 1))
    return m, rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, d - m)]))


def _assert_sector_basis(res):
    """res.basis W is unitary and W† P_n W is the 0/1 selector of sector n's columns.

    A built resolution holds each invariant to PROJECTOR_TOL, so WW† = I, a
    complete family of the W_n W_n†, is held to it too.  With A = Σ_m m P_m,
    ‖(A − n) P_n‖_F ≤ Σ_m m·PROJECTOR_TOL ≤ k²·PROJECTOR_TOL / 2 (k sectors), and
    across A's unit eigenvalue gaps each of the k column blocks of W† P_n W
    leaves the selector by at most that: the bound is k³·PROJECTOR_TOL.  The layout is
    read from the resolution, and its ranks are the projectors' traces rounded.
    """
    w, k = res.basis, res.nsectors
    assert frobenius(w.conj().T @ w - np.eye(res.dim)) <= PROJECTOR_TOL
    traces = np.round(np.trace(res.projectors, axis1=1, axis2=2).real).astype(int).tolist()
    assert res.ranks == tuple(traces)
    columns = res.column_sectors
    assert columns.tolist() == np.repeat(np.arange(k), traces).tolist()
    assert [np.arange(res.dim)[c].tolist() for c in res.sector_columns] == [
        np.flatnonzero(columns == n).tolist() for n in range(k)]
    for n, p in enumerate(res.projectors):
        select = np.diag((columns == n).astype(float))
        assert frobenius(w.conj().T @ p @ w - select) <= k ** 3 * PROJECTOR_TOL


class TestBuiltResolutionsAreSound:
    """Spectral resolutions of random operators pass their own checks."""

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-3.0, 8.0))
    @settings(max_examples=300, deadline=None)
    def test_hermitian(self, d, seed, log_scale):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        m, which = _random_clusters(rng, d)
        centres = scale * (np.arange(m) + rng.uniform(-0.3, 0.3, m) - rng.uniform(0, m))
        w = centres[which] + 1e-13 * max(1.0, scale) * rng.standard_normal(d)
        v = random_unitary(rng, d)
        res = projections_of_hermitian((v * w) @ v.conj().T)
        assert res.ranks == tuple(np.bincount(which)[np.argsort(centres)])
        _assert_sector_basis(res)

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_unitary(self, d, seed, at_seam):
        rng = np.random.default_rng(seed)
        m, which = _random_clusters(rng, d)
        offsets = rng.uniform(-0.2, 0.2, m)
        if at_seam:
            offsets[0] = 0.0  # cluster 0 straddles the -pi/pi seam
        start = np.pi if at_seam else rng.uniform(-np.pi, np.pi)
        centres = start + 2.0 * np.pi * (np.arange(m) + offsets) / m
        phases = centres[which] + 1e-13 * rng.standard_normal(d)
        v = random_unitary(rng, d)
        res = projections_of_unitary((v * np.exp(-1j * phases)) @ v.conj().T)
        assert sorted(res.ranks) == sorted(np.bincount(which))
        _assert_sector_basis(res)


class TestProjectionsOfHermitian:
    def test_four_level_coupling(self):
        res = projections_of_hermitian(coupling_4level())
        assert res.labels == (-1.0, 0.0, 1.0)
        assert res.ranks == (1, 2, 1)
        p_plus, p_minus = plus_minus_projectors()
        assert frobenius(res.projectors[0] - p_minus) <= 1e-12
        assert frobenius(res.projectors[2] - p_plus) <= 1e-12

    def test_projector_coupling(self):
        res = projections_of_hermitian(P2)  # |c><c|
        assert res.labels == (0.0, 1.0)
        assert frobenius(res.projectors[0] - P1) <= 1e-12
        assert frobenius(res.projectors[1] - P2) <= 1e-12

    def test_zero_matrix(self):
        res = projections_of_hermitian(np.zeros((3, 3)))
        assert res.labels == (0.0,)
        assert frobenius(res.projectors[0] - np.eye(3)) <= 1e-12

    def test_near_degenerate_merge(self):
        res = projections_of_hermitian(np.diag([0.0, 1e-12, 5.0]).astype(complex))
        assert res.ranks == (2, 1)

    def test_cluster_label_near_the_float_limit(self):
        # -1e308 - 1e308 would overflow a label's mean or a gap: the matrix bound refuses
        # such an operator; at the domain's edge the mean and the gap are taken plainly
        with pytest.raises(InvalidParameter, match="^eigh input has Frobenius norm past"):
            projections_of_hermitian(np.diag([-1e308, -1e308, 0.0]).astype(complex))
        res = projections_of_hermitian(np.diag([-2.0**127, -2.0**127, 0.0]).astype(complex))
        assert res.labels == (-2.0**127, 0.0)
        assert res.ranks == (2, 1)
        res = projections_of_hermitian(np.diag([-2.0**127, 2.0**127]).astype(complex))
        assert res.labels == (-2.0**127, 2.0**127)

    def test_ambiguous_gap_raises(self):
        with pytest.raises(DegenerateClustering):
            projections_of_hermitian(np.diag([0.0, 1.2e-8, 1.0]).astype(complex))

    def test_gap_below_the_width_is_ambiguous_too(self):
        # the band starts at width/2: a gap in [width/2, width) raises, it is not merged
        with pytest.raises(DegenerateClustering):
            projections_of_hermitian(np.diag([0.0, 0.75e-8, 1.0]).astype(complex))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            projections_of_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("seed", range(10))
def test_cluster_groups_match_the_gap_loop(seed):
    def loop(values, width):  # the hand-written grouping np.split replaced
        groups, start = [], 0
        for i, g in enumerate(np.diff(values)):
            if g > width:
                groups.append(list(range(start, i + 1)))
                start = i + 1
        return groups + [list(range(start, len(values)))]

    rng = np.random.default_rng(seed)
    gaps = rng.choice([0.0, 1e-12, 1.0], size=int(rng.integers(0, 12)))
    values = np.cumsum(np.concatenate([[rng.normal()], gaps]))
    assert [g.tolist() for g in _cluster_sorted(values, 1e-8)] == loop(values, 1e-8)


class TestProjectionsOfUnitary:
    def test_kick_phases_and_projectors(self):
        res = projections_of_unitary(kick_4level())
        assert np.allclose(res.labels, (-1.0, 0.0, 1.0), atol=1e-12)
        assert res.ranks == (1, 2, 1)
        p_plus, p_minus = plus_minus_projectors()
        assert frobenius(res.projectors[0] - p_minus) <= 1e-10
        assert frobenius(res.projectors[2] - p_plus) <= 1e-10

    def test_identity(self):
        res = projections_of_unitary(np.eye(3))
        assert res.labels == (0.0,)
        assert res.ranks == (3,)

    def test_simplified_kick(self):
        u = P1 + np.exp(-1j) * P2  # exp(-i |c><c|)
        res = projections_of_unitary(u)
        assert np.allclose(res.labels, (0.0, 1.0), atol=1e-12)
        assert frobenius(res.projectors[0] - P1) <= 1e-12

    def test_wraparound_cluster_at_pi(self):
        delta = 1e-12
        u = np.diag([np.exp(-1j * (np.pi - delta)),
                     np.exp(-1j * (-np.pi + delta)), 1.0])
        res = projections_of_unitary(u)
        assert len(res.projectors) == 2
        assert np.allclose(sorted(res.labels), [0.0, np.pi], atol=1e-9)
        by_label = dict(zip(res.labels, res.ranks))
        assert by_label[max(res.labels)] == 2

    @pytest.mark.parametrize("lam", [-np.pi, np.pi, 3 * np.pi, -3 * np.pi])
    def test_labels_at_the_seam_land_in_the_half_open_circle(self, lam):
        res = projections_of_unitary(np.diag(np.exp(-1j * np.array([lam, 1.0, 0.0]))))
        assert all(-np.pi < x <= np.pi for x in res.labels)
        assert np.allclose(res.labels[:2], [0.0, 1.0], atol=1e-12)
        assert np.pi - abs(res.labels[2]) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_labels_match_the_scalar_wrap_bitwise(self, seed):
        def wrap(x):  # the one-phase-at-a-time formula the elementwise map replaced
            y = (x + np.pi) % (2.0 * np.pi) - np.pi
            if y <= -np.pi:
                y += 2.0 * np.pi
            return float(y)

        rng = np.random.default_rng(seed)
        d = 2 + seed % 4
        z = random_unitary(rng, d)
        u = z @ np.diag(np.exp(-1j * rng.uniform(-4 * np.pi, 4 * np.pi, d))) @ z.conj().T
        lam, _ = unitary_eig(u, "u")
        # distinct phases: every cluster is one phase, labelled by the wrap of its wrap
        assert projections_of_unitary(u).labels == tuple(sorted(wrap(wrap(x)) for x in lam))

    def test_ambiguous_circle_raises(self):
        phases = [np.pi - 0.6e-8, -np.pi + 0.6e-8, 0.0]  # seam gap in the ambiguity band
        with pytest.raises(DegenerateClustering):
            projections_of_unitary(np.diag(np.exp(-1j * np.array(phases))))

    def test_not_unitary(self):
        with pytest.raises(NotUnitary):
            projections_of_unitary(np.diag([1.0, 2.0]))

    def test_matches_hermitian_projections(self):
        # same sectors from H_c and from exp(-i H_c)
        h_c = coupling_4level()
        res_h = projections_of_hermitian(h_c)
        res_u = projections_of_unitary(expm(-1j * h_c))
        assert len(res_h.projectors) == len(res_u.projectors)
        for p, q in zip(res_h.projectors, res_u.projectors):
            assert frobenius(p - q) <= 1e-10
        assert np.allclose(res_h.labels, res_u.labels, atol=1e-12)


class TestPinch:
    def test_block_diagonal_fixed_point(self):
        x = np.diag([1.0, 2.0, 3.0]).astype(complex)
        x[0, 1] = x[1, 0] = 0.5  # inside P_1 block
        assert frobenius(pinch(x, two_block()) - x) <= 1e-14

    def test_chain_pinch_kills_bc_coupling(self):
        h = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        expect = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
        assert frobenius(pinch(h, two_block()) - expect) <= 1e-14

    def test_pure_cross_block_annihilated(self):
        x = np.zeros((3, 3), dtype=complex)
        x[1, 2] = x[2, 1] = 1.0
        assert frobenius(pinch(x, two_block())) <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pinch(np.eye(4), two_block())

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_sum_of_sector_products(self, d, seed):
        """pinch(x) = sum_n P_n x P_n to 8 d eps ||x||_F on random mixed-rank resolutions."""
        rng = np.random.default_rng(seed)
        m, which = _random_clusters(rng, d)
        v = random_unitary(rng, d)
        res = ResolutionOfIdentity(
            [v[:, which == k] @ v[:, which == k].conj().T for k in range(m)], range(m))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        ref = sum(p @ x @ p for p in res.projectors)
        assert frobenius(pinch(x, res) - ref) <= 8 * d * np.finfo(float).eps * frobenius(x)
        x[rng.integers(d), rng.integers(d)] = rng.choice([np.nan, np.inf])
        with pytest.raises(InvalidParameter, match="pinch input contains non-finite"):
            pinch(x, res)
        with pytest.raises(DimensionMismatch, match=f"{d + 1}-dim, resolution is {d}-dim"):
            pinch(np.eye(d + 1), res)

    @pytest.mark.parametrize("layout", [
        lambda x, big: x.T,  # transposed view
        lambda x, big: np.asfortranarray(x),
        lambda x, big: big[1::2, ::2],  # strided slice, copied by reshape(-1)
        lambda x, big: big[:3, ::2],  # rows as far apart as columns: a strided 1-D view
        lambda x, big: x.real,
        lambda x, big: x.tolist(),
    ], ids=["transposed", "fortran", "strided", "uniform-stride", "real", "list"])
    def test_layout_does_not_change_a_bit(self, layout):
        """Any memory layout, dtype or nesting of one matrix pinches to the same bits."""
        rng = np.random.default_rng(7)
        big = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        x = layout(big[:3, :3].copy(), big)
        assert np.array_equal(pinch(x, two_block()),
                              pinch(np.ascontiguousarray(x, dtype=complex), two_block()))

    @pytest.mark.parametrize("psi", [[0.6, 0.0, 0.8], [0.6, 0.48j, 0.64]],
                             ids=["real", "complex"])
    def test_projective_run_does_not_depend_on_the_initial_layout(self, psi):
        """rho0 as a transposed view, a list or a real array runs as its complex copy."""
        model = three_level_projective()
        psi = np.array(psi)
        rho = 0.9 * np.outer(psi, psi.conj()) + 0.1 * np.diag([0.2, 0.5, 0.3])  # mixed
        forms = (rho.T.copy().T, rho.tolist(), rho)  # a transposed view of rho first
        assert not forms[0].flags.c_contiguous
        ref = evolve_projective(rho.astype(complex), model.H, model.res, 1.3, 257, 9)._stack
        for form in forms:
            run = evolve_projective(form, model.H, model.res, 1.3, 257, 9)._stack
            assert np.array_equal(run, ref)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_trace_preserving(self, seed):
        rng = np.random.default_rng(seed)
        res = random_two_block_resolution(rng, 4, 2)
        x = random_hermitian(rng, 4)
        once = pinch(x, res)
        assert frobenius(pinch(once, res) - once) <= 1e-10
        assert abs(np.trace(once) - np.trace(x)) <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_purity_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        res = random_two_block_resolution(rng, 4, rng.integers(1, 4))
        rho = random_density(rng, 4)
        pinched = pinch(rho, res)
        assert np.trace(pinched @ pinched).real <= np.trace(rho @ rho).real + 1e-12


class TestZenoHamiltonian:
    def test_four_level_kick_sectors(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = h[1, 0] = 1.0
        h[1, 2] = h[2, 1] = 1.0
        res = projections_of_unitary(kick_4level())
        hz = zeno_hamiltonian(h, res)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 1] = expect[1, 0] = 1.0
        assert frobenius(hz - expect) <= 1e-12

    def test_entries_near_the_float_limit_not_overflowed(self):
        # refused by the matrix bound, not overflowed; at the domain's edge H_Z is exact
        res = ResolutionOfIdentity([np.eye(2, dtype=complex)], [0.0])
        with pytest.raises(InvalidParameter, match="^zeno_hamiltonian input has Frobenius"):
            zeno_hamiltonian(np.diag([1.5e308, -1.5e308]), res)
        h = np.diag([2.0**127, -2.0**127]).astype(complex)
        assert np.array_equal(zeno_hamiltonian(h, res), h)

    def test_trivial_resolution_returns_h(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 3)
        res = ResolutionOfIdentity([np.eye(3, dtype=complex)], [0.0])
        assert frobenius(zeno_hamiltonian(h, res) - h) <= 1e-12

    def test_own_eigenprojections_identity(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 4)
        res = projections_of_hermitian(h)
        assert frobenius(zeno_hamiltonian(h, res) - h) <= 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_projectors_and_disturbance(self, seed):
        rng = np.random.default_rng(seed)
        res = random_two_block_resolution(rng, 4, 2)
        h = random_hermitian(rng, 4)
        hz = zeno_hamiltonian(h, res)
        for p in res.projectors:
            assert frobenius(hz @ p - p @ hz) <= 1e-10
        disturbance = sum(lab * p for lab, p in zip(res.labels, res.projectors))
        assert frobenius(hz @ disturbance - disturbance @ hz) <= 1e-10

    def test_limit_propagator_commutes_with_disturbance(self):
        h_c = coupling_4level()
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = h[1, 0] = 1.0
        h[1, 2] = h[2, 1] = 1.0
        res = projections_of_hermitian(h_c)
        u_z = propagator(zeno_hamiltonian(h, res), 1.3)
        assert frobenius(u_z @ h_c - h_c @ u_z) <= 1e-10
        u_kick = kick_4level()
        assert frobenius(u_z @ u_kick - u_kick @ u_z) <= 1e-10
