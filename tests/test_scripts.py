"""Smoke tests: every shipped script runs with its defaults and prints a report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenosim

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", ["three_limits_demo.py", "decay_protection_study.py"])
def test_script_runs(script):
    src = str(Path(zenosim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
