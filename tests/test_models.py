import numpy as np
import pytest

from zenosim.errors import (
    DegenerateCouplingLevels,
    DegenerateKickPhases,
    InvalidParameter,
    NotHermitian,
)
from zenosim.linalg import expm, frobenius, hermiticity_defect
from zenosim.models import (
    ModelBundle,
    decay_model,
    four_level_continuous,
    four_level_kicked,
    simplified_continuous,
    simplified_kicked,
    three_level_projective,
)


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
        b = three_level_projective()
        p = b.resolution().projector(b.protected_subspace_index)
        assert p[0, 0].real == 1.0  # the sector holding |a>


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
        assert b.protected_subspace_index == 1

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

    def test_h_k_combines_terms(self):
        b = four_level_continuous(omega1=1.0, omega2=1.0, coupling=2.5)
        assert frobenius(b.H_K - (b.H + 2.5 * b.H_c)) == 0.0

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
        assert b.non_hermitian

    def test_width_scales_with_parameters(self):
        b = decay_model(omega1=0.0, tau_z=2.0, gamma=0.5, coupling=0.0)
        assert abs(b.H[2, 2] - (-1.0j)) <= 1e-15   # 2/(4*0.5)
        assert abs(b.H[1, 2] - 0.5) <= 1e-15       # 1/tau_Z

    def test_protective_coupling_bridges_to_probe(self):
        b = decay_model(omega1=0.0, tau_z=1.0, gamma=0.1, coupling=7.0)
        assert abs(b.H_K[2, 3] - 7.0) <= 1e-14
        assert abs(b.H_K[2, 2] - (-20.0j)) <= 1e-14
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


class TestModelBundle:
    def test_every_hermitian_bundle_is_tight(self):
        for b in (three_level_projective(), four_level_kicked(),
                  four_level_continuous(), simplified_kicked(),
                  simplified_continuous()):
            assert hermiticity_defect(b.H) <= 1e-12
            assert b.dim == b.H.shape[0]

    def test_nonhermitian_h_requires_flag(self):
        h = np.array([[0, 1, 0], [1, 0, 1], [0, 1, -1j]], dtype=complex)
        res = three_level_projective().res
        with pytest.raises(NotHermitian):
            ModelBundle(name="x", H=h, res=res, U_kick=None, H_c=None, K=0.0,
                        non_hermitian=False)

    @pytest.mark.parametrize("keys", [(), ("res", "U_kick"), ("H_c",)],
                             ids=["none", "res-and-U_kick", "H_c-without-K"])
    def test_bundle_needs_exactly_one_payload(self, keys):
        p, k, c = three_level_projective(), simplified_kicked(), simplified_continuous()
        parts = {"res": p.res, "U_kick": k.U_kick, "H_c": c.H_c}
        with pytest.raises(InvalidParameter, match="exactly one payload"):
            ModelBundle(name="x", H=p.H, **{key: parts[key] for key in keys})

    def test_projective_bundle_accepts_k(self):
        b = three_level_projective()
        assert ModelBundle(name="x", H=b.H, res=b.res, K=2.0).mechanism == "projective"
