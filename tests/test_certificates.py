"""Scenario certificates: each number ``zenosim run`` writes, checked against a 40-digit
reference (``reference``) computed from the scenario's own parameters.

The hash test in ``test_cli`` says whether a bit of an output moved; a certificate says
whether the number is right, so it can judge a change that moves bits.
"""

import csv
from pathlib import Path

import numpy as np

from reference import projective_curve_distance
from zenosim.cli import main
from zenosim.config import parse_config

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_projective_convergence_cells_within_their_tolerance(tmp_path):
    """Every distance in ``projective-series_convergence.csv`` lies within 64 d eps (1 + N)
    of the 40-digit distance; the file's 17 significant digits give back each float."""
    scenario = SCENARIOS / "projective_series.json"
    config = parse_config(scenario.read_text(encoding="utf-8"))
    bundle, psi0 = config.build_bundle(), config.resolve_initial_state()
    rho0 = np.outer(psi0, psi0.conj())
    assert main(["run", str(scenario), "--output-dir", str(tmp_path), "--quiet"]) == 0
    with open(tmp_path / "projective-series_convergence.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [int(row["N"]) for row in rows] == list(config.values) == [16, 64, 256]
    for row in rows:
        n = int(row["N"])
        ref = projective_curve_distance(bundle.H, bundle.res.projectors, rho0, config.t, n)
        tol = 64 * bundle.dim * np.finfo(float).eps * (1 + n)
        assert abs(float(row["distance"]) - float(ref)) <= tol
