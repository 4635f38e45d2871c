"""Scenario certificates: each number ``zenosim run`` writes, checked against a 40-digit
reference (``reference``) computed from the scenario's own parameters.

The hash test in ``test_cli`` says whether a bit of an output moved; a certificate says
whether the number is right, so it can judge a change that moves bits.
"""

import csv
from pathlib import Path

import numpy as np

from reference import kick_limit_distance, projective_curve_distance, projective_series_rows
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
