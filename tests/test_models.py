import dataclasses
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim.errors import (
    DegenerateCouplingLevels,
    DegenerateKickPhases,
    DimensionMismatch,
    InvalidParameter,
    NotHermitian,
    NotUnitary,
    ZenosimError,
)
from zenosim.linalg import HERMITICITY_TOL, expm, frobenius, hermiticity_defect
from zenosim.models import (
    ModelBundle,
    decay_model,
    four_level_continuous,
    four_level_kicked,
    simplified_continuous,
    simplified_kicked,
    three_level_projective,
)


def sectors_holding_a(res):
    """Indices of the sectors whose projector keeps |a> = (1, 0, ...) fixed."""
    return [n for n, p in enumerate(res.projectors) if abs(p[0, 0] - 1.0) <= 1e-12]


class TestThreeLevelProjective:
    def test_hamiltonian_entries(self):
        b = three_level_projective(omega1=1.0, omega2=2.0)
        expect = np.array([[0, 1, 0], [1, 0, 2], [0, 2, 0]], dtype=complex)
        assert frobenius(b.H - expect) == 0.0

    def test_resolution_is_two_block(self):
        b = three_level_projective()
        res = b.resolution()
        assert res.ranks == (2, 1)
        assert frobenius(res.projectors[0] - np.diag([1, 1, 0])) == 0.0
        assert frobenius(res.projectors[1] - np.diag([0, 0, 1])) == 0.0

    def test_zeno_hamiltonian(self):
        b = three_level_projective(omega1=0.7)
        expect = np.array([[0, 0.7, 0], [0.7, 0, 0], [0, 0, 0]], dtype=complex)
        assert frobenius(b.zeno_hamiltonian() - expect) <= 1e-15

    def test_protected_index(self):
        assert sectors_holding_a(three_level_projective().resolution()) == [0]


class TestFourLevelKicked:
    def test_kick_matrix_entries(self):
        lam1, lam2 = 0.3, 1.1
        b = four_level_kicked(lambda1=lam1, lambda2=lam2)
        u = np.zeros((4, 4), dtype=complex)
        u[0, 0] = u[1, 1] = np.exp(-1j * lam1)
        u[2, 2] = u[3, 3] = np.cos(lam2)
        u[2, 3] = u[3, 2] = -1j * np.sin(lam2)
        assert frobenius(b.U_kick - u) <= 1e-15

    def test_kick_eigensectors(self):
        b = four_level_kicked(lambda1=0.0, lambda2=1.0)
        res = b.resolution()
        assert np.allclose(res.labels, (-1.0, 0.0, 1.0), atol=1e-12)
        assert res.ranks == (1, 2, 1)
        assert sectors_holding_a(res) == [1]

    def test_zeno_hamiltonian_matches_projective_model(self):
        bk = four_level_kicked(omega1=0.9, omega2=1.3)
        bp = three_level_projective(omega1=0.9, omega2=1.3)
        hz = bk.zeno_hamiltonian()
        assert frobenius(hz[:3, :3] - bp.zeno_hamiltonian()) <= 1e-12
        assert frobenius(hz[3:, :]) <= 1e-12

    def test_degenerate_phases_rejected(self):
        with pytest.raises(DegenerateKickPhases):
            four_level_kicked(lambda1=1.0, lambda2=1.0)
        with pytest.raises(DegenerateKickPhases):
            four_level_kicked(lambda2=0.0)  # +lambda2 meets -lambda2
        with pytest.raises(DegenerateKickPhases):
            four_level_kicked(lambda1=-1.0, lambda2=1.0)

    def test_wrapped_phase_collision_rejected(self):
        with pytest.raises(DegenerateKickPhases):
            four_level_kicked(lambda1=2 * np.pi, lambda2=2 * np.pi)


class TestFourLevelContinuous:
    def test_coupling_matrix(self):
        b = four_level_continuous(coupling=3.0)
        h_c = np.zeros((4, 4), dtype=complex)
        h_c[2, 3] = h_c[3, 2] = 1.0
        assert frobenius(b.H_c - h_c) == 0.0
        assert b.K == 3.0

    def test_coupling_eigensectors(self):
        res = four_level_continuous().resolution()
        assert np.allclose(res.labels, (-1.0, 0.0, 1.0), atol=1e-12)
        assert res.ranks == (1, 2, 1)

    def test_shares_zeno_hamiltonian_with_kicked(self):
        bc = four_level_continuous(omega1=0.8, omega2=1.7)
        bk = four_level_kicked(omega1=0.8, omega2=1.7)
        assert frobenius(bc.zeno_hamiltonian() - bk.zeno_hamiltonian()) <= 1e-12

    def test_negative_coupling_rejected(self):
        for coupling in (-1.0, np.inf, np.nan):
            with pytest.raises(InvalidParameter):
                four_level_continuous(coupling=coupling)


class TestSimplifiedModels:
    def test_kick_is_exponential_of_projector_sum(self):
        lam1, lam2 = 0.4, 1.9
        b = simplified_kicked(lambda1=lam1, lambda2=lam2)
        p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        assert frobenius(b.U_kick - expm(-1j * (lam1 * p1 + lam2 * p2))) <= 1e-12

    def test_kick_equal_phases_mod_2pi_rejected(self):
        with pytest.raises(DegenerateKickPhases):
            simplified_kicked(lambda1=0.5, lambda2=0.5)
        with pytest.raises(DegenerateKickPhases):
            simplified_kicked(lambda1=0.0, lambda2=2 * np.pi)

    def test_continuous_levels(self):
        b = simplified_continuous(eta1=-0.5, eta2=2.0)
        assert frobenius(b.H_c - np.diag([-0.5, -0.5, 2.0])) == 0.0
        res = b.resolution()
        assert np.allclose(res.labels, (-0.5, 2.0), atol=1e-12)
        assert res.ranks == (2, 1)

    @pytest.mark.parametrize("coupling", [-1.0, np.inf, np.nan])
    def test_continuous_bad_coupling_rejected(self, coupling):
        with pytest.raises(InvalidParameter):
            simplified_continuous(coupling=coupling)

    def test_continuous_equal_levels_rejected(self):
        with pytest.raises(DegenerateCouplingLevels):
            simplified_continuous(eta1=1.0, eta2=1.0)

    def test_both_reach_same_zeno_hamiltonian(self):
        hz_k = simplified_kicked(omega1=1.2).zeno_hamiltonian()
        hz_c = simplified_continuous(omega1=1.2).zeno_hamiltonian()
        hz_p = three_level_projective(omega1=1.2).zeno_hamiltonian()
        assert frobenius(hz_k - hz_p) <= 1e-12
        assert frobenius(hz_c - hz_p) <= 1e-12


class TestDecayModel:
    def test_matrix_entries(self):
        b = decay_model(omega1=1.0, tau_z=1.0, gamma=0.1, coupling=0.0)
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = h[1, 0] = 1.0
        h[1, 2] = h[2, 1] = 1.0  # 1/tau_Z
        h[2, 2] = -20.0j         # -2i / (tau_Z^2 gamma)
        assert frobenius(b.H - h) <= 1e-15
        assert hermiticity_defect(b.H) > HERMITICITY_TOL  # accepted: its payload is H_c

    def test_width_scales_with_parameters(self):
        b = decay_model(omega1=0.0, tau_z=2.0, gamma=0.5, coupling=0.0)
        assert abs(b.H[2, 2] - (-1.0j)) <= 1e-15   # 2/(4*0.5)
        assert abs(b.H[1, 2] - 0.5) <= 1e-15       # 1/tau_Z

    def test_protective_coupling_bridges_to_probe(self):
        b = decay_model(omega1=0.0, tau_z=1.0, gamma=0.1, coupling=7.0)
        h_k = b.H + b.K * b.H_c
        assert abs(h_k[2, 3] - 7.0) <= 1e-14
        assert abs(h_k[2, 2] - (-20.0j)) <= 1e-14
        h_c = np.zeros((4, 4), dtype=complex)
        h_c[2, 3] = h_c[3, 2] = 1.0
        assert frobenius(b.H_c - h_c) == 0.0

    def test_detuning_placement_is_flagged(self):
        b = decay_model(omega1=0.0, tau_z=1.0, gamma=0.1, coupling=0.0,
                        omega_b=0.4)
        assert abs(b.H[1, 1] - 0.4) <= 1e-15

    def test_parameter_guards(self):
        with pytest.raises(InvalidParameter):
            decay_model(omega1=0.0, tau_z=0.0, gamma=0.1, coupling=0.0)
        with pytest.raises(InvalidParameter):
            decay_model(omega1=0.0, tau_z=1.0, gamma=-0.1, coupling=0.0)
        for coupling in (-1.0, np.inf, np.nan):
            with pytest.raises(InvalidParameter):
                decay_model(omega1=0.0, tau_z=1.0, gamma=0.1, coupling=coupling)

    @pytest.mark.parametrize("tau_z, gamma", [(1e-170, 0.1), (1e-300, 1e-300),
                                              (1e155, 0.1), (1.0, 1e308)],
                             ids=["overflow", "overflow-both", "subnormal", "subnormal-gamma"])
    def test_width_outside_normal_floats_refused(self, tau_z, gamma):
        # 2/(tau_z**2 gamma) would be inf or subnormal: tau_z or gamma, each finite and
        # positive, lies outside the magnitude domain and is refused first
        with pytest.raises(InvalidParameter, match="^(tau_z|gamma) must be finite and "
                                                   "positive, with magnitude 0 or in"):
            decay_model(tau_z=tau_z, gamma=gamma)

    def test_width_inside_the_normal_floats_accepted(self):
        # inside the domain the width is a normal float, down to 2**-383; a width past
        # 2**128 takes H out of the matrix domain, and the bundle refuses H
        for tau_z, gamma, width in ((2.0**128, 2.0**128, 2.0**-383),
                                    (2.0**128, 2.0**-128, 2.0**-127),
                                    (2.0**-63, 1.0, 2.0**127), (1.0, 2.0**-126, 2.0**127)):
            b = decay_model(tau_z=tau_z, gamma=gamma)
            assert b.H[2, 2].real == 0.0
            assert b.H[2, 2].imag == -width
        with pytest.raises(InvalidParameter, match="^H has Frobenius norm past 2"):
            decay_model(tau_z=2.0**-128, gamma=2.0**-128)

    @pytest.mark.parametrize("tau_z, gamma", [(2.0**128, 3e-39), (1e-19, 2.0**128),
                                              (3.0, 7e-5)])
    def test_width_within_two_ulps_of_the_exact_quotient(self, tau_z, gamma):
        # inside the domain neither tau_z**2 gamma nor its reciprocal under- or overflows:
        # the three roundings of 2/(tau_z * tau_z * gamma) cost at most 2 ulps
        exact = float(2 / (Fraction(tau_z) ** 2 * Fraction(gamma)))
        width = -decay_model(tau_z=tau_z, gamma=gamma).H[2, 2].imag
        assert abs(width - exact) <= 2 * math.ulp(exact)


def _probe_coupling_literal():
    h_c = np.zeros((4, 4), dtype=complex)
    h_c[2, 3] = h_c[3, 2] = 1.0
    return h_c


def _decay_literal(omega1=0.0, tau_z=1.0, gamma=0.1, coupling=0.0, omega_b=0.0):
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = omega1
    h[1, 1] = omega_b
    h[1, 2] = h[2, 1] = 1.0 / tau_z
    h[2, 2] = -1j * (2.0 / (tau_z * tau_z * gamma))
    return h, _probe_coupling_literal()


def _four_level_continuous_literal(omega1=1.0, omega2=1.0, coupling=1.0):
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = omega1
    h[1, 2] = h[2, 1] = omega2
    return h, _probe_coupling_literal()


def _drawn_parameters(builder, rng):
    """Each parameter of builder log-uniform in [2**-30, 2**30], signed unless it must be
    positive (tau_z, gamma) or is the coupling."""
    return {name: 2.0 ** rng.uniform(-30.0, 30.0)
            * (1.0 if name in ("tau_z", "gamma", "coupling") else rng.choice([-1.0, 1.0]))
            for name in inspect.signature(builder).parameters}


@pytest.mark.parametrize("builder, literal", [
    (decay_model, _decay_literal),
    (four_level_continuous, _four_level_continuous_literal)], ids=["decay", "continuous"])
def test_shared_pieces_build_the_written_out_matrices(builder, literal):
    """The shared chain and probe coupling give, entry for entry, the matrices written
    out in full: at the defaults and at drawn parameters."""
    rng = np.random.default_rng(3)
    for params in [{}] + [_drawn_parameters(builder, rng) for _ in range(20)]:
        b = builder(**params)
        h, h_c = literal(**params)
        assert np.array_equal(b.H, h) and np.array_equal(b.H_c, h_c), params


class TestModelBundle:
    def test_every_hermitian_bundle_is_tight(self):
        for b in (three_level_projective(), four_level_kicked(),
                  four_level_continuous(), simplified_kicked(),
                  simplified_continuous()):
            assert hermiticity_defect(b.H) <= 1e-12
            assert b.dim == b.H.shape[0]

    @pytest.mark.parametrize("asymmetry, builds", [(5e-11, True), (1e-9, False)])
    def test_hermiticity_is_the_engines_relative_test(self, asymmetry, builds):
        """H is Hermitian to a bundle exactly when it is to every engine."""
        b = three_level_projective()
        h = b.H.copy()
        h[0, 2] = asymmetry * np.sqrt(2.0)  # ||H - H†|| / ||H|| with ||H|| = 2
        assert hermiticity_defect(h) == pytest.approx(asymmetry, rel=1e-6)
        if builds:
            assert ModelBundle(H=h, res=b.res).mechanism == "projective"
        else:
            with pytest.raises(NotHermitian):
                ModelBundle(H=h, res=b.res)

    @pytest.mark.parametrize("key", ["res", "U_kick", "H_c"])
    def test_nonhermitian_h_only_with_a_coupling(self, key):
        """Only the coupling's engines take a decaying H, so the payload decides whether
        H must be Hermitian."""
        h = np.array([[0, 1, 0], [1, 0, 1], [0, 1, -1j]], dtype=complex)
        parts = {"res": three_level_projective().res, "U_kick": simplified_kicked().U_kick,
                 "H_c": simplified_continuous().H_c}
        if key != "H_c":
            with pytest.raises(NotHermitian, match="^H has relative asymmetry"):
                ModelBundle(H=h, **{key: parts[key]})
        else:
            bundle = ModelBundle(H=h, H_c=parts[key], K=0.0)
            assert bundle.mechanism == "continuous"
            np.testing.assert_array_equal(bundle.H, h)

    @pytest.mark.parametrize("keys", [(), ("res", "U_kick"), ("H_c",)],
                             ids=["none", "res-and-U_kick", "H_c-without-K"])
    def test_bundle_needs_exactly_one_payload(self, keys):
        p, k, c = three_level_projective(), simplified_kicked(), simplified_continuous()
        parts = {"res": p.res, "U_kick": k.U_kick, "H_c": c.H_c}
        with pytest.raises(InvalidParameter, match="exactly one payload"):
            ModelBundle(H=p.H, **{key: parts[key] for key in keys})

    @pytest.mark.parametrize("key, listed", [("res", False), ("U_kick", False), ("H_c", False),
                                             ("U_kick", True), ("H_c", True)],
                             ids=["res", "U_kick", "H_c", "U_kick-list", "H_c-list"])
    def test_payload_dimension_must_match_h(self, key, listed):
        p, k, c = three_level_projective(), four_level_kicked(), four_level_continuous()
        parts = {"res": p.res, "U_kick": k.U_kick, "H_c": c.H_c}
        payload = parts[key].tolist() if listed else parts[key]
        with pytest.raises(DimensionMismatch, match=rf"^{key} dimension \d != H dimension 2$"):
            ModelBundle(H=np.eye(2), K=1.0, **{key: payload})

    @pytest.mark.parametrize("builder, key", [(four_level_kicked, "U_kick"),
                                              (four_level_continuous, "H_c")])
    def test_nested_list_payload_builds(self, builder, key):
        b = builder()
        listed = ModelBundle(H=b.H.tolist(), K=b.K, **{key: getattr(b, key).tolist()})
        assert listed.mechanism == b.mechanism
        for got, want in zip(listed.resolution().projectors, b.resolution().projectors):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("key, error", [("U_kick", NotUnitary), ("H_c", NotHermitian)])
    def test_payload_check_precedes_dimension(self, key, error):
        """A payload of the wrong size that fails its own check reports that check."""
        bad = np.triu(np.ones((4, 4)))  # neither unitary nor Hermitian
        with pytest.raises(error):
            ModelBundle(H=np.eye(2), K=1.0, **{key: bad})

    def test_mechanism_is_derived(self):
        assert [f.name for f in dataclasses.fields(ModelBundle) if f.init] == [
            "H", "res", "U_kick", "H_c", "K"]
        assert [b.mechanism for b in (three_level_projective(), four_level_kicked(),
                                      four_level_continuous())] == [
            "projective", "kicked", "continuous"]

    def test_projective_bundle_accepts_k(self):
        b = three_level_projective()
        assert ModelBundle(H=b.H, res=b.res, K=2.0).mechanism == "projective"


# builder -> (Zeno sector count, the keyword pair whose coincidence merges sectors)
_SPLIT_BUILDERS = {
    "four-level-kicked": (four_level_kicked, 3, ("lambda1", "lambda2")),
    "simplified-kicked": (simplified_kicked, 2, ("lambda1", "lambda2")),
    "simplified-continuous": (simplified_continuous, 2, ("eta1", "eta2")),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_SPLIT_BUILDERS)))
def test_builders_never_merge_sectors(data, name):
    """Levels or phases drawn near coincidence: the full sector count, or an error.

    The second parameter sits within 1e-7 of +-first (of 0 or pi too, where
    +lambda2 meets -lambda2), shifted by 0 or +-2 pi.
    """
    build, count, (key1, key2) = _SPLIT_BUILDERS[name]
    near = st.floats(0.0, 1e-7) | st.just(0.0)
    x1 = data.draw(st.floats(-4.0, 4.0) | st.sampled_from([0.0, np.pi, -np.pi]), key1)
    anchor = data.draw(st.sampled_from([x1, -x1, 0.0, np.pi]), "anchor")
    x2 = (anchor + data.draw(st.sampled_from([-1.0, 1.0]), "sign") * data.draw(near, "gap")
          + 2.0 * np.pi * data.draw(st.sampled_from([-1, 0, 1]), "turns"))
    try:
        bundle = build(**{key1: x1, key2: x2})
    except ZenosimError:
        return
    assert bundle.resolution().nsectors == count


_BUILDERS = [three_level_projective, four_level_kicked, four_level_continuous,
             simplified_kicked, simplified_continuous, decay_model]


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("builder, param", [
    (builder, param) for builder in _BUILDERS
    for param in inspect.signature(builder).parameters],
    ids=lambda x: getattr(x, "__name__", x))
def test_non_finite_parameter_refused(builder, param, value):
    # refused before any arithmetic: the suite turns numpy's warnings into errors
    with pytest.raises(InvalidParameter, match=f"^{param} must be finite"):
        builder(**{param: value})
