"""Smoke tests: every shipped script runs with its defaults and prints a report, and
so does the README's library example."""

import contextlib
import io
import os
import re
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
    # the width the study prints is the model's own H[2, 2]: 2/(2**2 * 0.01) = 50
    proc = run("decay_protection_study.py", "--tau-z", "2", "--gamma", "0.01")
    assert proc.returncode == 0, proc.stderr
    assert "continuum half-width 2/(tau_Z^2 gamma) = 50;" in proc.stdout


def test_decay_study_reports_a_refused_model_in_one_line():
    # tau_z = 1e-170 lies outside the magnitude domain: the builder refuses it
    proc = run("decay_protection_study.py", "--tau-z", "1e-170")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: tau_z must be finite and positive")
    assert proc.stderr.count("\n") == 1


def test_readme_library_example_runs():
    # the fenced block under "## Library example", run as written
    readme = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n+```python\n(.*?)^```$", readme,
                      re.MULTILINE | re.DOTALL).group(1)
    names = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), names)
    assert out.getvalue()
    curve, series = names["curve"], names["series"]
    assert all(curve.distances[1:] < curve.distances[:-1])  # "falls like 1/N"
    assert -1.3 <= curve.fitted_rate <= -0.7  # "close to -1"; -1.19 when written
    assert abs(series.subspace_probabilities[-1].sum() - 1.0) <= 1e-12
