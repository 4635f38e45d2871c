"""Smoke tests: every shipped script runs with its defaults and prints a report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenosim

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(script, *args):
    src = str(Path(zenosim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", ["three_limits_demo.py", "decay_protection_study.py"])
def test_script_runs(script):
    proc = run(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_decay_study_prints_the_models_width():
    # 2/(tau_z**2 gamma) = 2e30, though tau_z**2 underflows to 0 in float arithmetic
    proc = run("decay_protection_study.py", "--tau-z", "1e-165", "--gamma", "1e300")
    assert proc.returncode == 0, proc.stderr
    assert "continuum half-width 2/(tau_Z^2 gamma) = 2e+30;" in proc.stdout


def test_decay_study_reports_a_refused_model_in_one_line():
    proc = run("decay_protection_study.py", "--tau-z", "1e-170")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: continuum width")
    assert proc.stderr.count("\n") == 1
