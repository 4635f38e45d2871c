import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenosim
from zenosim.cli import main, run_scenario
from zenosim.config import MECHANISMS, OUTPUT_KINDS, parse_config, validate_document
from zenosim.errors import InvalidParameter, SchemaViolation


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def zeno_limit_doc(**overrides):
    doc = {
        "name": "limit-demo",
        "model": {"name": "three-level-projective", "parameters": {}},
        "mechanism": "zeno-limit",
        "schedule": {"t": 1.0, "samples": 5},
        "outputs": ["probabilities", "purity", "propagator"],
    }
    doc.update(overrides)
    return doc


def kicked_doc(**overrides):
    doc = {
        "name": "kick-demo",
        "model": {"name": "four-level-kicked", "parameters": {}},
        "mechanism": "kicked",
        "schedule": {"t": 1.0, "N": [4, 8, 16], "samples": 5},
        "outputs": ["probabilities", "coherence", "convergence"],
    }
    doc.update(overrides)
    return doc


class TestRunScenario:
    def test_zeno_limit_outputs(self, tmp_path):
        cfg = parse_config(json.dumps(zeno_limit_doc()))
        written = run_scenario(cfg, output_dir=tmp_path, quiet=True)
        names = sorted(p.name for p in written)
        assert names == ["limit-demo_propagator.txt",
                         "limit-demo_sector1_propagator.txt",
                         "limit-demo_sector2_propagator.txt",
                         "limit-demo_series.csv"]
        series = (tmp_path / "limit-demo_series.csv").read_text().splitlines()
        assert series[0] == "t,p_1,p_2,purity"
        assert len(series) == 6  # header + 5 samples
        # straddle default start: p = (1/2, 1/2), frozen for all samples
        first = [float(x) for x in series[1].split(",")]
        last = [float(x) for x in series[-1].split(",")]
        assert first[1] == pytest.approx(0.5, abs=1e-12)
        assert last[1] == pytest.approx(0.5, abs=1e-12)
        assert first[3] == pytest.approx(0.5, abs=1e-12)  # purity after pinch

    def test_matrix_format(self, tmp_path):
        cfg = parse_config(json.dumps(zeno_limit_doc()))
        run_scenario(cfg, output_dir=tmp_path, quiet=True)
        lines = (tmp_path / "limit-demo_sector1_propagator.txt").read_text().splitlines()
        assert lines[0] == "dim 3"
        assert len(lines) == 4
        entries = lines[1].split(" ")
        assert len(entries) == 3
        re0, im0 = (float(x) for x in entries[0].split(","))
        assert re0 == pytest.approx(np.cos(1.0), abs=1e-12)
        re1, im1 = (float(x) for x in entries[1].split(","))
        assert im1 == pytest.approx(-np.sin(1.0), abs=1e-12)

    def test_kicked_outputs(self, tmp_path):
        cfg = parse_config(json.dumps(kicked_doc()))
        written = run_scenario(cfg, output_dir=tmp_path, quiet=True)
        names = sorted(p.name for p in written)
        assert names == ["kick-demo_convergence.csv", "kick-demo_series.csv"]
        series = (tmp_path / "kick-demo_series.csv").read_text().splitlines()
        assert series[0].startswith("step,p_1,p_2,p_3")
        assert "coh_1_2" in series[0]
        assert series[1].split(",")[0] == "0"  # integer step axis
        curve = (tmp_path / "kick-demo_convergence.csv").read_text().splitlines()
        assert curve[0] == "N,distance"
        assert curve[1].split(",")[0] == "4"

    def test_decay_sweep_output(self, tmp_path, capsys):
        doc = {
            "name": "protection",
            "model": {"name": "decay", "parameters": {"gamma": 0.1}},
            "mechanism": "decay-sweep",
            "schedule": {"t": 5.0, "K": [10.0, 20.0]},
            "outputs": ["survival"],
        }
        cfg = parse_config(json.dumps(doc))
        written = run_scenario(cfg, output_dir=tmp_path)
        out = capsys.readouterr().out
        assert "smallest K with survival >= 0.9: 10" in out
        lines = written[0].read_text().splitlines()
        assert lines[0] == "K,survival"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.9803, abs=1e-3)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_config(json.dumps(kicked_doc()))
        run_scenario(cfg, output_dir=tmp_path / "a", quiet=True)
        run_scenario(cfg, output_dir=tmp_path / "b", quiet=True)
        for name in ("kick-demo_series.csv", "kick-demo_convergence.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()


# one fitting model and schedule per mechanism, small enough to run in ms
_MECHANISM_SETUP = {
    "projective": ("three-level-projective", {"N": [2, 4, 8]}),
    "kicked": ("simplified-kicked", {"N": [2, 4, 8]}),
    "continuous": ("simplified-continuous", {"K": [1.0, 2.0, 4.0]}),
    "zeno-limit": ("three-level-projective", {}),
    "decay-sweep": ("decay", {"K": [1.0, 2.0, 4.0]}),
}
_FILE_SUFFIX = {"probabilities": "series.csv", "purity": "series.csv",
                "coherence": "series.csv", "convergence": "convergence.csv",
                "propagator": "propagator.txt", "survival": "survival.csv"}


@pytest.mark.parametrize("kind", sorted(_FILE_SUFFIX))
@pytest.mark.parametrize("mechanism", sorted(_MECHANISM_SETUP))
def test_schema_and_runner_agree(tmp_path, mechanism, kind):
    """The schema accepts exactly the table's pairs, and each one runs."""
    assert set(MECHANISMS) == set(_MECHANISM_SETUP)
    assert set(OUTPUT_KINDS) == set(_FILE_SUFFIX)
    model, swept = _MECHANISM_SETUP[mechanism]
    doc = {"name": "pair", "model": {"name": model, "parameters": {}},
           "mechanism": mechanism, "schedule": {"t": 1.0, "samples": 3, **swept},
           "outputs": [kind]}
    if kind not in MECHANISMS[mechanism][1]:
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert [path for path, _ in e.value.violations] == ["outputs"]
        return
    written = run_scenario(validate_document(doc), output_dir=tmp_path, quiet=True)
    names = {p.name for p in written}
    suffix = _FILE_SUFFIX[kind]
    assert f"pair_{suffix}" in names
    # zeno-limit adds one propagator file per sector
    assert all(name.endswith(suffix) for name in names)


def test_runner_refuses_unhandled_pair(tmp_path, monkeypatch):
    """A pair the table allows but the runner does not handle fails unwritten."""
    name, outputs = MECHANISMS["projective"]
    monkeypatch.setitem(MECHANISMS, "projective", (name, outputs + ("propagator",)))
    model, swept = _MECHANISM_SETUP["projective"]
    doc = {"name": "pair", "model": {"name": model, "parameters": {}},
           "mechanism": "projective", "schedule": {"t": 1.0, "samples": 3, **swept},
           "outputs": ["probabilities", "propagator"]}
    with pytest.raises(InvalidParameter, match="projective"):
        run_scenario(validate_document(doc), output_dir=tmp_path, quiet=True)
    assert list(tmp_path.iterdir()) == []


class TestMain:
    def test_run_exit_zero(self, tmp_path):
        path = write_config(tmp_path, zeno_limit_doc())
        assert main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "limit-demo_series.csv").exists()

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, kicked_doc())
        assert main(["validate", path]) == 0
        assert "kick-demo" in capsys.readouterr().out

    def test_schema_error_exit_two(self, tmp_path, capsys):
        doc = kicked_doc(schedule={"t": -1.0, "N": [4]})
        path = write_config(tmp_path, doc)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "schema error at schedule.t" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_utf8_file_exit_two(self, tmp_path, capsys, command):
        path = tmp_path / "scenario.json"
        path.write_bytes(bytes.fromhex("fffe00626164"))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error at $: not UTF-8 text")

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("model, mechanism, output", [
        ("four-level-continuous", "continuous", "probabilities"),
        ("simplified-continuous", "continuous", "probabilities"),
        ("decay", "decay-sweep", "survival"),
    ])
    def test_model_coupling_is_a_schema_error(self, tmp_path, capsys, command,
                                              model, mechanism, output):
        doc = {"name": "k", "model": {"name": model, "parameters": {}},
               "mechanism": mechanism, "schedule": {"t": 1.0, "K": [1.0, 2.0, 4.0]},
               "outputs": [output]}
        path = write_config(tmp_path, doc)
        args = [command, path, "--set", "model.parameters.K=7.5"]
        if command == "run":
            args += ["--output-dir", str(tmp_path)]
        assert main(args) == 2
        assert "schema error at model.parameters.K" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_missing_file_exit_four(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_numeric_error_exit_three(self, tmp_path, capsys):
        # degenerate kick phases pass the schema but fail in the builder
        doc = kicked_doc()
        doc["model"]["parameters"] = {"lambda1": 1.0, "lambda2": 1.0}
        path = write_config(tmp_path, doc)
        assert main(["run", path, "--output-dir", str(tmp_path)]) == 3
        assert "numeric error" in capsys.readouterr().err

    def test_set_override(self, tmp_path):
        path = write_config(tmp_path, kicked_doc())
        code = main(["run", path, "--output-dir", str(tmp_path), "--quiet",
                     "--set", "schedule.t=0.5",
                     "--set", "name=over"])
        assert code == 0
        assert (tmp_path / "over_series.csv").exists()

    def test_set_override_schema_checked(self, tmp_path, capsys):
        path = write_config(tmp_path, kicked_doc())
        assert main(["validate", path, "--set", "schedule.t=-3"]) == 2
        assert "schedule.t" in capsys.readouterr().err

    def test_list_models(self, capsys):
        assert main(["list-models"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "decay                    continuous  dim 4  gamma=0.1 omega1=0 omega_b=0 tau_z=1",
            "four-level-continuous    continuous  dim 4  omega1=1 omega2=1",
            "four-level-kicked        kicked      dim 4  lambda1=0 lambda2=1 omega1=1 omega2=1",
            "simplified-continuous    continuous  dim 3  eta1=0 eta2=1 omega1=1 omega2=1",
            "simplified-kicked        kicked      dim 3  lambda1=0 lambda2=1 omega1=1 omega2=1",
            "three-level-projective   projective  dim 3  omega1=1 omega2=1",
        ]

    def test_quiet_run_prints_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, zeno_limit_doc())
        main(["run", path, "--output-dir", str(tmp_path), "--quiet"])
        assert capsys.readouterr().out == ""


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _loads_scipy(code: str) -> bool:
    """Run code in a fresh interpreter; report whether it imported scipy."""
    src = str(Path(zenosim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = code + "\nimport sys\nprint('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1] == "True"


class TestImportHygiene:
    """scipy stays off every shipped path; only the expm fallback near an
    exceptional point imports it."""

    @pytest.mark.parametrize("module", ["zenosim", "zenosim.cli"])
    def test_import_leaves_scipy_out(self, module):
        assert not _loads_scipy(f"import {module}")

    @pytest.mark.parametrize("scenario", sorted(p.name for p in SCENARIOS.glob("*.json")))
    def test_run_leaves_scipy_out(self, tmp_path, scenario):
        argv = ["run", str(SCENARIOS / scenario), "--output-dir", str(tmp_path), "--quiet"]
        code = f"from zenosim.cli import main\nassert main({argv!r}) == 0"
        assert not _loads_scipy(code)

    def test_kicked_resolution_and_convergence_leave_scipy_out(self):
        assert not _loads_scipy(
            "from zenosim import four_level_kicked, convergence_curve\n"
            "b = four_level_kicked()\n"
            "b.resolution()\n"
            "convergence_curve(b, 1.0, [16, 32, 64])")
