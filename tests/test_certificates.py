"""Scenario certificates: each number ``zenosim run`` writes, checked against a 40-digit
reference (``reference``) computed from the scenario's own parameters: the same algorithm
in more digits, or a closed form.

The hash test in ``test_cli`` says whether a bit of an output moved on the OpenBLAS core
its record names; a certificate says whether the number is right, on any core, so it can
judge a change, or a kernel, that moves bits.
"""

import csv
from pathlib import Path

import numpy as np

from reference import (
    dark_state_survival,
    kick_limit_distance,
    projective_curve_distance,
    projective_series_rows,
    zeno_limit_propagator,
)
from zenosim.cli import main
from zenosim.config import parse_config

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _run(name: str, tmp_path):
    """Run the scenario into tmp_path; its config, bundle and initial state."""
    scenario = SCENARIOS / f"{name}.json"
    config = parse_config(scenario.read_text(encoding="utf-8"))
    assert main(["run", str(scenario), "--output-dir", str(tmp_path), "--quiet"]) == 0
    return config, config.build_bundle(), config.resolve_initial_state()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _matrix(path: Path) -> np.ndarray:
    """A ``dim N`` matrix dump, its N rows of "re,im" pairs, as a complex array."""
    _, *rows = path.read_text(encoding="utf-8").splitlines()
    return np.array([[complex(*map(float, pair.split(","))) for pair in row.split()]
                     for row in rows])


# the Zeno sectors of three-level-projective: span{a, b} and |c>
_ZENO_SECTORS = [np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]


def test_projective_convergence_cells_within_their_tolerance(tmp_path):
    """Every distance in ``projective-series_convergence.csv`` lies within 64 d eps (1 + N)
    of the 40-digit distance; the file's 17 significant digits give back each float."""
    config, bundle, psi0 = _run("projective_series", tmp_path)
    rho0 = np.outer(psi0, psi0.conj())
    table = _rows(tmp_path / "projective-series_convergence.csv")
    assert [int(row["N"]) for row in table] == list(config.values) == [16, 64, 256]
    for row in table:
        n = int(row["N"])
        ref = projective_curve_distance(bundle.H, bundle.resolution().projectors, rho0,
                                        config.t, n)
        tol = 64 * bundle.dim * np.finfo(float).eps * (1 + n)
        assert abs(float(row["distance"]) - float(ref)) <= tol


def test_projective_series_cells_within_their_tolerance(tmp_path):
    """Every cell of ``projective-series_series.csv``, the measured state at N = 256 sampled
    33 times (p_1, p_2, purity, coh_1_2), lies within 64 d eps (1 + N) of the 40-digit
    state after the same rounds; the t column gives the rounds."""
    config, bundle, psi0 = _run("projective_series", tmp_path)
    n, table = config.values[-1], _rows(tmp_path / "projective-series_series.csv")
    assert (n, config.samples, len(table)) == (256, 33, 33)
    assert list(table[0]) == ["t", "p_1", "p_2", "purity", "coh_1_2"]
    steps = [round(float(row["t"]) * n / config.t) for row in table]
    assert steps == list(range(0, n + 1, 8))
    refs = projective_series_rows(bundle.H, bundle.resolution().projectors,
                                  np.outer(psi0, psi0.conj()), config.t, n, steps)
    tol = 64 * bundle.dim * np.finfo(float).eps * (1 + n)
    for row, ref in zip(table, refs):
        got = [float(row[key]) for key in ("p_1", "p_2", "purity", "coh_1_2")]
        assert max(abs(x - float(r)) for x, r in zip(got, ref)) <= tol, row


def test_kicked_convergence_cells_within_their_tolerance(tmp_path):
    """Every distance in ``kicked-convergence_convergence.csv``, the spectral norm of
    U_kick^-N [U_kick U(t/N)]^N - U_Z at N = 64 .. 4096, lies within 64 d eps (1 + N) of
    the 40-digit distance."""
    config, bundle, _ = _run("kicked_convergence", tmp_path)
    table = _rows(tmp_path / "kicked-convergence_convergence.csv")
    ns = [int(row["N"]) for row in table]
    assert ns == list(config.values) == [2**k for k in range(6, 13)]
    for n, row in zip(ns, table):
        ref = kick_limit_distance(bundle.H, bundle.U_kick, bundle.resolution().projectors,
                                  config.t, n)
        tol = 64 * bundle.dim * np.finfo(float).eps * (1 + n)
        assert abs(float(row["distance"]) - float(ref)) <= tol, row


def test_decay_survival_cells_within_their_tolerance(tmp_path):
    """Every survival in ``decay-protection_survival.csv`` lies within 64 d eps (1 + ‖G‖_F t)
    of the closed-form ``dark_state_survival``, G = H + K H_c the generator at its K; the
    scenario sets ω1 = 0 and leaves ω_b = 0, where the closed form is exact."""
    config, bundle, _ = _run("decay_protection", tmp_path)
    h, h_c = bundle.H, bundle.H_c
    assert h[0, 1] == h[1, 1] == 0
    table = _rows(tmp_path / "decay-protection_survival.csv")
    assert [float(row["K"]) for row in table] == list(config.values)
    for k, row in zip(config.values, table):
        ref = dark_state_survival(h[1, 2].real, -h[2, 2].imag, k, config.t)
        tol = (64 * bundle.dim * np.finfo(float).eps
               * (1 + np.linalg.norm(h + k * h_c) * config.t))
        assert abs(float(row["survival"]) - float(ref)) <= tol, row


def test_zeno_limit_propagator_cells_within_their_tolerance(tmp_path):
    """Every entry of ``zeno-limit-series_propagator.txt``, U_Z(t), and of its sector parts
    ``_sector1`` (P_1 U_Z, P_1 onto span{a, b}) and ``_sector2`` (P_2 U_Z, P_2 = |c><c|)
    lies within 64 d eps of the closed-form ``zeno_limit_propagator``."""
    config, bundle, _ = _run("zeno_limit_series", tmp_path)
    u_z = zeno_limit_propagator(bundle.H[0, 1].real, config.t, bundle.dim)
    tol = 64 * bundle.dim * np.finfo(float).eps
    for infix, p in zip(("", "_sector1", "_sector2"), (np.eye(3), *_ZENO_SECTORS)):
        got = _matrix(tmp_path / f"zeno-limit-series{infix}_propagator.txt")
        assert got.shape == (3, 3) and np.abs(got - p @ u_z).max() <= tol, infix


def test_zeno_limit_series_cells_within_their_tolerance(tmp_path):
    """Every cell of ``zeno-limit-series_series.csv`` (t, p_1, p_2, purity at 41 samples)
    lies within 64 d eps of the state U_Z(t) pinch(rho0) U_Z(t)† built from the closed-form
    ``zeno_limit_propagator``; the t column is k t / (samples - 1)."""
    config, bundle, psi0 = _run("zeno_limit_series", tmp_path)
    table = _rows(tmp_path / "zeno-limit-series_series.csv")
    assert list(table[0]) == ["t", "p_1", "p_2", "purity"] and len(table) == config.samples
    rho0 = np.outer(psi0, psi0.conj())
    pinched = sum(p @ rho0 @ p for p in _ZENO_SECTORS)
    tol = 64 * bundle.dim * np.finfo(float).eps
    for k, row in enumerate(table):
        t = float(row["t"])
        assert abs(t - k * config.t / (config.samples - 1)) <= tol, row
        u_z = zeno_limit_propagator(bundle.H[0, 1].real, t, bundle.dim)
        rho = u_z @ pinched @ u_z.conj().T
        ref = [np.trace(p @ rho).real for p in _ZENO_SECTORS] + [np.trace(rho @ rho).real]
        got = [float(row[key]) for key in ("p_1", "p_2", "purity")]
        assert max(abs(x - r) for x, r in zip(got, ref)) <= tol, row
