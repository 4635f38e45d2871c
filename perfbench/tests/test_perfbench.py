"""Tests of the benchmark harness itself: contract, oracle, tracer."""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT / "perfbench"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import zenosim  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _names(kind: str) -> list[str]:
    return [m["name"] for m in CONTRACT[kind]]


def test_contract_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    names = [w["name"] for w in CONTRACT["workloads"]] + _names("end_to_end") \
        + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def _tiny_workload() -> workloads.Workload:
    """One cheap in-process operation under the long-drive name."""
    params = workloads.draw("long-drive", 0, ROOT)
    kick = workloads.program_inputs("long-drive", params)["kick"]
    op = workloads.Op(
        "evolve_kicked[N=64]",
        lambda: zenosim.evolve_kicked(params["psi4"], kick.H, kick.U_kick, 1.0, 64, 5),
        lambda record: 0.0)
    return workloads.Workload("long-drive", [op], tail_pct=50, min_ops=1,
                              nominal_round_s=1.0, warmup=lambda: None)


def test_printed_metric_names_match_contract(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "PROBES", 1)
    env = workloads.environment_pins(ROOT)
    run = bench.Run(_tiny_workload(), 0, ROOT, env)
    metrics, _ = bench.end_to_end(run, seconds=0.0)
    line = bench.report(run, metrics, CONTRACT, trace=0)
    assert list(line["metrics"]) == _names("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())

    run = bench.Run(_tiny_workload(), 0, ROOT, env)
    metrics, _ = bench.traced(run, seconds=0.0, runs_dir=tmp_path)
    line = bench.report(run, metrics, CONTRACT, trace=1)
    assert list(line["metrics"]) == _names("per_layer")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert metrics["engines.evolve_kicked.us_per_step"] > 0


def test_perturbed_engine_result_counts_as_failure(monkeypatch, tmp_path):
    wl = workloads.build("long-drive", 0, ROOT, tmp_path,
                         workloads.environment_pins(ROOT))
    op = min((o for o in wl.ops if o.name.startswith("evolve_kicked[vector")),
             key=lambda o: int(o.name.split("N=")[1].rstrip("]")))
    run = bench.Run(wl, 0, ROOT, {})
    run.run_op(op)
    assert run.failed == 0 and 0 < run.max_err < 1e-9

    real = zenosim.evolve_kicked

    def perturbed(*args, **kwargs):
        record = real(*args, **kwargs)
        states = record.states[:-1] + (record.states[-1] * (1 + 1e-7),)
        return dataclasses.replace(record, states=states)

    monkeypatch.setattr(zenosim, "evolve_kicked", perturbed)
    run.run_op(op)
    assert (run.attempted, run.failed) == (2, 1)
    assert "CheckFailed" in run.errors[0]


def test_perturbed_cli_output_is_caught(tmp_path):
    wl = workloads.build("cli-scenarios", 0, ROOT, tmp_path,
                         workloads.environment_pins(ROOT))
    op = next(o for o in wl.ops if "projective_series" in o.name)
    result = op.run()
    assert op.check(result) < 1e-9
    series = next(result.out_dir.glob("*_series.csv"))
    lines = series.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)          # p_1 of the last sample
    series.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(workloads.CheckFailed):
        op.check(result)
    series.unlink()
    with pytest.raises(workloads.CheckFailed):
        op.check(result)


def _bindings():
    """Every zenosim module attribute and public class attribute, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "zenosim" or name.startswith("zenosim."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if inspect.isclass(value) and value.__module__.startswith("zenosim"):
                    for member, raw in vars(value).items():
                        out[(name, attr, member)] = raw
    return out


def test_tracer_wraps_every_import_site_and_restores():
    from zenosim import engines, linalg, spectral
    bundle = zenosim.three_level_projective()
    rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
    before = _bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        for fn in (engines.propagator, engines.pinch, linalg.propagator,
                   spectral.pinch, zenosim.evolve_projective,
                   zenosim.models.ModelBundle.resolution):
            assert hasattr(fn, "__zenosim_traced__")
        zenosim.evolve_projective(rho, bundle.H, bundle.res, 1.0, 20, 5)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    summary = tracer.summarize()
    labels = summary["labels"]
    assert labels["engines.evolve_projective"][0] == 1
    assert labels["spectral.pinch"][0] == 21            # preparatory + one per step
    assert labels["linalg.propagator"][0] == 1
    assert summary["counts"]["engines.steps"] == 20
    assert summary["counts"]["engines.samples"] == 5
    # self times partition the root span
    root = labels["engines.evolve_projective"][1]
    assert sum(row[2] for row in labels.values()) == pytest.approx(root, rel=1e-9)
    metrics = spans.layer_metrics(summary)
    assert metrics["spectral.pinch.calls"] == 21


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long-drive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
