"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (bypassing capture so the verdicts are
visible in a plain pytest run) and then asserts.  Criterion 7's second
clause demands a protection factor no state can reach; it is implemented
as stated and reports its own impossibility.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    basis_state,
    random_density,
    random_hermitian,
    random_two_block_resolution,
    straddle_state,
)
from zenosim.analysis import convergence_curve, decay_protection_sweep
from zenosim.cli import run_scenario
from zenosim.config import parse_config
from zenosim.engines import (
    asymptotic_continuous_propagator,
    asymptotic_kicked_propagator,
    continuous_propagator,
    evolve_continuous,
    evolve_kicked,
    evolve_projective,
    evolve_zeno_limit,
    kicked_propagator,
    projective_survival,
    zeno_propagators,
)
from zenosim.linalg import frobenius, opnorm
from zenosim.models import (
    four_level_continuous,
    four_level_kicked,
    three_level_projective,
)
from zenosim.spectral import ResolutionOfIdentity


@pytest.fixture
def report(capsys):
    def _report(criterion: int, ok: bool, detail: str):
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"[acceptance] criterion {criterion}: {verdict} - {detail}")
    return _report


def rot(theta: float) -> np.ndarray:
    """cos/sin rotation block generated by an off-diagonal coupling."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def test_criterion_1_reference_propagators(report):
    start = time.perf_counter()
    worst_exact = 0.0
    worst_finite = 0.0
    n = 4096
    k = 4096.0

    b3 = three_level_projective()
    bk = four_level_kicked(lambda1=0.0, lambda2=1.0)
    bc = four_level_continuous()
    res_k = bk.resolution()
    res_c = bc.resolution()

    for t in (0.3, 1.0):
        # measurement limit: sector propagators
        v1, v2 = zeno_propagators(b3.H, b3.res, t)
        e1 = np.zeros((3, 3), dtype=complex)
        e1[:2, :2] = rot(t)
        e2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        worst_exact = max(worst_exact, np.abs(v1 - e1).max(),
                          np.abs(v2 - e2).max())

        # kick limit: frozen sectors, relative phase N*lambda2 on (c, M)
        target_k = np.zeros((4, 4), dtype=complex)
        target_k[:2, :2] = rot(t)
        target_k[2:, 2:] = rot(n * 1.0)
        asym_k = asymptotic_kicked_propagator(bk.H, res_k, t, n)
        worst_exact = max(worst_exact, np.abs(asym_k - target_k).max())
        finite_k = kicked_propagator(bk.H, bk.U_kick, t, n)
        worst_finite = max(worst_finite, opnorm(finite_k - target_k))

        # coupling limit: relative phase K*t on (c, M)
        target_c = np.zeros((4, 4), dtype=complex)
        target_c[:2, :2] = rot(t)
        target_c[2:, 2:] = rot(k * t)
        asym_c = asymptotic_continuous_propagator(bc.H, res_c, t, k)
        worst_exact = max(worst_exact, np.abs(asym_c - target_c).max())
        finite_c = continuous_propagator(bc.H, bc.H_c, k, t)
        worst_finite = max(worst_finite, opnorm(finite_c - target_c))

    elapsed = time.perf_counter() - start
    ok = worst_exact <= 1e-10 and worst_finite <= 5e-3 and elapsed < 5.0
    report(1, ok, f"limit entrywise {worst_exact:.2e} (tol 1e-10), "
                  f"finite N=K=4096 opnorm {worst_finite:.2e} (tol 5e-3), "
                  f"{elapsed:.2f}s")
    assert worst_exact <= 1e-10
    assert worst_finite <= 5e-3
    assert elapsed < 5.0


def test_criterion_2_zeno_hamiltonian_agreement(report):
    start = time.perf_counter()
    hz_meas = three_level_projective().zeno_hamiltonian()
    hz_kick = four_level_kicked(lambda1=0.0, lambda2=1.0).zeno_hamiltonian()
    hz_coup = four_level_continuous().zeno_hamiltonian()
    expect = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    worst = max(
        np.abs(hz_meas - expect).max(),
        np.abs(hz_kick[:3, :3] - expect).max(),
        np.abs(hz_coup[:3, :3] - expect).max(),
        np.abs(hz_kick[:3, :3] - hz_meas).max(),
        np.abs(hz_coup[:3, :3] - hz_meas).max(),
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, ok, f"three mechanisms agree entrywise to {worst:.2e} "
                  f"(tol 1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_convergence_rates(report):
    start = time.perf_counter()
    values = [64 * 2 ** j for j in range(7)]  # 64 .. 4096
    curve_n = convergence_curve(four_level_kicked(), 1.0, values)
    curve_k = convergence_curve(four_level_continuous(), 1.0,
                                [float(v) for v in values])
    elapsed = time.perf_counter() - start
    ok = (1.7 <= curve_n.doubling_factor <= 2.3
          and 1.7 <= curve_k.doubling_factor <= 2.3
          and -1.3 <= curve_n.fitted_rate <= -0.7
          and -1.3 <= curve_k.fitted_rate <= -0.7
          and elapsed < 30.0)
    report(3, ok, f"per-doubling factor N {curve_n.doubling_factor:.3f} / "
                  f"K {curve_k.doubling_factor:.3f} (band [1.7, 2.3]), "
                  f"rate N {curve_n.fitted_rate:.3f} / "
                  f"K {curve_k.fitted_rate:.3f} (band [-1.3, -0.7]), "
                  f"{elapsed:.2f}s")
    assert 1.7 <= curve_n.doubling_factor <= 2.3
    assert 1.7 <= curve_k.doubling_factor <= 2.3
    assert -1.3 <= curve_n.fitted_rate <= -0.7
    assert -1.3 <= curve_k.fitted_rate <= -0.7
    assert elapsed < 30.0


def test_criterion_4_conservation_laws(report):
    start = time.perf_counter()
    rng = np.random.default_rng(4)

    # zeno limit conserves each sector probability
    b3 = three_level_projective()
    rho0 = random_density(rng, 3)
    rec = evolve_zeno_limit(rho0, b3.H, b3.res, t=3.0, samples=40)
    probs = np.array([[np.trace(s @ p).real for p in b3.res.projectors]
                      for s in rec.states])
    p_drift = float(np.ptp(probs, axis=0).max())

    # kicked and continuous conserve purity at the largest sweep settings
    bk = four_level_kicked()
    rho_k = random_density(rng, 4)
    pur0 = np.trace(rho_k @ rho_k).real
    rec_k = evolve_kicked(rho_k, bk.H, bk.U_kick, t=1.0, n=4096, samples=9)
    kick_drift = max(abs(np.trace(s @ s).real - pur0) for s in rec_k.states)

    bc = four_level_continuous()
    rho_c = random_density(rng, 4)
    pur0 = np.trace(rho_c @ rho_c).real
    rec_c = evolve_continuous(rho_c, bc.H, bc.H_c, 4096.0, t=1.0, samples=9)
    coup_drift = max(abs(np.trace(s @ s).real - pur0) for s in rec_c.states)

    # preparatory pinch halves the straddling state's purity, then monotone
    psi = straddle_state(3)
    rec_p = evolve_projective(np.outer(psi, psi.conj()), b3.H, b3.res,
                              t=1.0, n=64, samples=65)
    purities = [np.trace(s @ s).real for s in rec_p.states]
    half_err = abs(purities[0] - 0.5)
    monotone = all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))

    elapsed = time.perf_counter() - start
    ok = (p_drift <= 1e-12 and kick_drift <= 1e-10 and coup_drift <= 1e-10
          and half_err <= 1e-10 and monotone and elapsed < 5.0)
    report(4, ok, f"p_n drift {p_drift:.1e} (tol 1e-12), purity drift "
                  f"kicked {kick_drift:.1e} / continuous {coup_drift:.1e} "
                  f"(tol 1e-10), pinched purity off by {half_err:.1e}, "
                  f"monotone={monotone}, {elapsed:.2f}s")
    assert p_drift <= 1e-12
    assert kick_drift <= 1e-10
    assert coup_drift <= 1e-10
    assert half_err <= 1e-10
    assert monotone
    assert elapsed < 5.0


def test_criterion_5_superoperator_oracle(report):
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    n, t = 8, 1.0
    worst = 0.0
    for _ in range(20):
        h = random_hermitian(rng, 4)
        res = random_two_block_resolution(rng, 4, int(rng.integers(1, 4)))
        rho0 = random_density(rng, 4)
        rec = evolve_projective(rho0, h, res, t, n, samples=2)

        # independent path: explicit superoperator matrices on vec(rho),
        # vec(A X B) = (A kron B^T) vec(X) with row-major flattening
        u = scipy.linalg.expm(-1j * h * (t / n))
        u_super = np.kron(u, u.conj())
        pinch_super = sum(np.kron(p, p.conj()) for p in res.projectors)
        chain = np.linalg.matrix_power(pinch_super @ u_super, n) @ pinch_super
        brute = (chain @ rho0.reshape(-1)).reshape(4, 4)
        worst = max(worst, frobenius(rec.final_state - brute))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(5, ok, f"20 random instances, worst Frobenius gap {worst:.2e} "
                  f"(tol 1e-10), {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_6_closed_form_survival(report):
    start = time.perf_counter()
    h = np.array([[0, 1], [1, 0]], dtype=complex)  # Omega = 1, Omega t = 1
    res = ResolutionOfIdentity(
        [np.diag([1.0, 0.0]).astype(complex),
         np.diag([0.0, 1.0]).astype(complex)], [1.0, 2.0])
    psi0 = basis_state(2, 0)

    def survival(n):
        return projective_survival(psi0, h, res, sector=0, t=1.0, n=n)

    worst = max(abs(survival(n) - np.cos(1.0 / n) ** (2 * n))
                for n in (1, 2, 10, 100))
    grid = [survival(n) for n in list(range(2, 50)) + [100, 400, 1000]]
    monotone = all(b > a for a, b in zip(grid, grid[1:]))
    approaches_one = grid[-1] > 0.999
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and monotone and approaches_one and elapsed < 1.0
    report(6, ok, f"cos^2N(t/N) reproduced to {worst:.1e} (tol 1e-12), "
                  f"monotone={monotone}, survival(N=1000)={grid[-1]:.6f}, "
                  f"{elapsed:.2f}s")
    assert worst <= 1e-12
    assert monotone
    assert approaches_one
    assert elapsed < 1.0


def test_criterion_7_decay_protection(report):
    start = time.perf_counter()
    ks = [10.0, 20.0, 40.0, 80.0, 160.0]
    swept = decay_protection_sweep(omega1=0.0, tau_z=1.0, gamma=0.1,
                                   omega_b=0.0, k_values=ks, t=5.0)
    base = decay_protection_sweep(omega1=0.0, tau_z=1.0, gamma=0.1,
                                  omega_b=0.0, k_values=[0.0], t=5.0)
    s0 = float(base.survivals[0])
    s_top = float(swept.survivals[-1])
    nondecreasing = bool(np.all(np.diff(swept.survivals) >= 0))
    factor = s_top / s0
    elapsed = time.perf_counter() - start
    ok = nondecreasing and factor >= 2.0 and elapsed < 5.0
    report(7, ok, f"non-decreasing={nondecreasing}, survival(K=160)={s_top:.5f}, "
                  f"survival(K=0)={s0:.5f}, factor {factor:.4f} < 2 is "
                  f"unreachable: probabilities cap the factor at "
                  f"1/survival(K=0) = {1.0 / s0:.4f}, {elapsed:.2f}s")
    assert nondecreasing
    assert elapsed < 5.0
    # as stated: survival at K=160 must double the free-decay value
    assert factor >= 2.0


def test_criterion_7_decay_rate_suppression():
    """The reachable form of criterion 7: strong coupling suppresses the decay rate.

    With the effective rate -ln(survival)/t on criterion 7's sweep (t = 5), the
    rate at K = 160 is at most 1/100 of the free rate at K = 0; survivals 0.99992
    and 0.60882 give a ratio of about 6.4e3.
    """
    t = 5.0
    sweep = decay_protection_sweep(omega1=0.0, tau_z=1.0, gamma=0.1, omega_b=0.0,
                                   k_values=[0.0, 160.0], t=t)
    rate_free, rate_top = -np.log(sweep.survivals) / t
    assert 0.0 < rate_top <= rate_free / 100.0


def test_criterion_8_deterministic_output(report, tmp_path):
    start = time.perf_counter()
    doc = {
        "name": "determinism",
        "model": {"name": "four-level-kicked", "parameters": {}},
        "mechanism": "kicked",
        "schedule": {"t": 1.0, "N": [16, 32, 64], "samples": 9},
        "outputs": ["probabilities", "purity", "coherence", "convergence"],
    }
    cfg = parse_config(json.dumps(doc))
    first = run_scenario(cfg, output_dir=tmp_path / "a", quiet=True)
    second = run_scenario(cfg, output_dir=tmp_path / "b", quiet=True)
    identical = all(p1.read_bytes() == p2.read_bytes()
                    for p1, p2 in zip(first, second))
    elapsed = time.perf_counter() - start
    ok = identical and len(first) == 2
    report(8, ok, f"{len(first)} files byte-identical across reruns"
                  f"={identical}, {elapsed:.2f}s")
    assert identical
    assert len(first) == 2
