import ast
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenosim
from zenosim.analysis import observables
from zenosim.cli import _csv_lines, _fmt, _matrix_lines, main, run_scenario
from zenosim.config import (
    MECHANISMS,
    MODEL_REGISTRY,
    OUTPUT_KINDS,
    SERIES_OUTPUTS,
    model_defaults,
    parse_config,
    validate_document,
)
from zenosim.errors import SchemaViolation


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


def continuous_doc(**overrides):
    doc = {
        "name": "cont-demo",
        "model": {"name": "four-level-continuous", "parameters": {}},
        "mechanism": "continuous",
        "schedule": {"t": 1.0, "K": [2.0, 4.0, 8.0], "samples": 5},
        "outputs": ["probabilities"],
    }
    doc.update(overrides)
    return doc


# the columns each series output adds, for the three sectors of both four-level models
_SERIES_COLUMNS = {"probabilities": ["p_1", "p_2", "p_3"], "purity": ["purity"],
                   "coherence": ["coh_1_2", "coh_1_3", "coh_2_3"]}


@pytest.mark.parametrize("outputs", [subset for r in range(1, 4)
                                     for subset in itertools.combinations(SERIES_OUTPUTS, r)])
@pytest.mark.parametrize("make_doc, first", [(kicked_doc, "step"), (continuous_doc, "t")])
def test_series_columns_follow_the_requested_outputs(tmp_path, outputs, make_doc, first):
    """Header, cell count and every cell of the series file, for each output subset.

    The columns come in the fixed order probabilities, purity, coherence,
    whatever order the outputs are listed in; every cell is the 17-digit
    value of the matching observable.
    """
    cfg = parse_config(json.dumps(make_doc(outputs=list(reversed(outputs)))))
    run_scenario(cfg, output_dir=tmp_path, quiet=True)
    lines = (tmp_path / f"{cfg.output_path}_series.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines]

    bundle = cfg.build_bundle()
    record = MECHANISMS[cfg.mechanism].series(
        bundle, cfg.resolve_initial_state(), cfg.t, cfg.values[-1], cfg.samples)
    obs = observables(record, bundle.resolution())
    values = {"purity": obs.purity}
    values.update({f"p_{n + 1}": obs.subspace_probabilities[:, n] for n in range(3)})
    values.update({f"coh_{n + 1}_{m + 1}": c for (n, m), c in obs.coherence_blocks.items()})

    names = [name for kind in SERIES_OUTPUTS if kind in outputs
             for name in _SERIES_COLUMNS[kind]]
    assert rows[0] == [first, *names]
    assert len(rows) == 1 + len(record) == 1 + cfg.samples
    for i, row in enumerate(rows[1:]):
        assert len(row) == 1 + len(names)
        x = record.times_or_steps[i]
        assert row[0] == (str(int(x)) if first == "step" else format(x, ".17g"))
        assert row[1:] == [format(values[name][i], ".17g") for name in names]


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

    @pytest.mark.parametrize("doc, note", [
        (continuous_doc(model={"name": "simplified-continuous",
                               "parameters": {"omega2": 0.0}}, outputs=["convergence"]),
         "convergence: exact (distances at roundoff)"),
        ({"name": "free", "model": {"name": "decay", "parameters": {}},
          "mechanism": "decay-sweep", "schedule": {"t": 5.0, "K": [0.0]},
          "outputs": ["survival"]},
         "no K in the sweep reaches survival >= 0.9"),
        (continuous_doc(schedule={"t": 1.0, "K": [0.0, 8.0, 16.0], "samples": 5},
                        outputs=["convergence"]),
         "convergence: fitted rate -0.6206, mean factor per doubling 1.5375"),
    ], ids=["exact-convergence", "no-protective-coupling", "sweep-from-zero"])
    def test_run_notes(self, tmp_path, capsys, doc, note):
        written = run_scenario(parse_config(json.dumps(doc)), output_dir=tmp_path)
        assert capsys.readouterr().out.splitlines() == [note, f"wrote {written[0]}"]

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
    if kind not in MECHANISMS[mechanism].outputs:
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


def test_runner_names_no_mechanism():
    """run_scenario reads the table: no mechanism name appears in cli.py."""
    tree = ast.parse(Path(zenosim.cli.__file__).read_text(encoding="utf-8"))
    named = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in MECHANISMS}
    assert named == set()


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
        # t = 1e38 is a valid schedule, but the decaying generator's roundoff-sized gain
        # passes 1/eps there: run refuses the computed phase and writes nothing
        scenario = str(SCENARIOS / "decay_protection.json")
        args = [scenario, "--set", "schedule.t=1e38"]
        assert main(["validate", *args]) == 0
        assert main(["run", *args, "--output-dir", str(tmp_path / "out")]) == 3
        assert "numeric error: spectral phase exp(-i w x): growth exponent " \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("parameters", [
        {"lambda1": 1.0, "lambda2": 1.0}, {"lambda2": 10**400}, {"omega1": float("nan")}],
        ids=["degenerate-phases", "int-past-float-range", "nan"])
    def test_model_refusal_is_a_schema_error(self, tmp_path, capsys, command, parameters):
        # validate builds the configured model, so its builder refuses it there
        path = write_config(tmp_path, kicked_doc(model={"name": "four-level-kicked",
                                                        "parameters": parameters}))
        args = [command, path] + (["--output-dir", str(tmp_path)] if command == "run" else [])
        assert main(args) == 2
        assert "schema error at model.parameters: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("t, ks, refused", [
        pytest.param("1e300", "[1e10,1e11,1e12]", "t: t must be finite and positive",
                     id="1e300-[1e10,1e11,1e12]"),
        pytest.param("1e10", "[1e300,1e301,1e302]", "K: K must be a finite real >= 0",
                     id="1e10-[1e300,1e301,1e302]")])
    def test_overflowing_coupling_time_is_a_schema_error(self, tmp_path, capsys,
                                                         command, t, ks, refused):
        # t and each K are refused past 2**128 where they enter, so K*t stays finite
        args = [command, str(SCENARIOS / "continuous_convergence.json"),
                "--set", f"schedule.t={t}", "--set", f"schedule.K={ks}"]
        out = tmp_path / "out"
        assert main(args + (["--output-dir", str(out)] if command == "run" else [])) == 2
        assert capsys.readouterr().err.startswith(
            f"schema error at schedule.{refused}, with magnitude ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("tau_z", ["1e-170", "1e155"], ids=["width-inf", "width-subnormal"])
    def test_continuum_width_past_float_range_is_a_schema_error(self, tmp_path, capsys,
                                                               command, tau_z):
        # 2/(tau_z**2 gamma) would overflow, or fall below the smallest normal float: the
        # builder refuses tau_z itself, outside the magnitude domain
        args = [command, str(SCENARIOS / "decay_protection.json"),
                "--set", f"model.parameters.tau_z={tau_z}"]
        out = tmp_path / "out"
        assert main(args + (["--output-dir", str(out)] if command == "run" else [])) == 2
        assert "schema error at model.parameters: tau_z must be finite and positive, with " \
               "magnitude in [2**-128, 2**128]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_subnormal_time_is_a_schema_error(self, tmp_path, capsys, command):
        # linspace(0, 5e-324, 33) repeats subnormals: the run's own t check refuses it
        args = [command, str(SCENARIOS / "continuous_convergence.json"),
                "--set", "schedule.t=5e-324"]
        out = tmp_path / "out"
        assert main(args + (["--output-dir", str(out)] if command == "run" else [])) == 2
        assert "schema error at schedule.t: t must be finite and positive, with magnitude " \
               "in [2**-128, 2**128], got 5e-324" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("scenario", ["continuous_convergence.json",
                                          "decay_protection.json"])
    def test_overflowing_generator_is_a_schema_error(self, tmp_path, capsys, command,
                                                     scenario):
        # K = 2**128 is in the domain, but H + K*H_c passes the matrix bound: the run's
        # own builder refuses it at schedule.K on validate and run alike, before any write
        args = [command, str(SCENARIOS / scenario), "--set", f"schedule.K=[64.0,{2.0**128!r}]"]
        out = tmp_path / "out"
        assert main(args + (["--output-dir", str(out)] if command == "run" else [])) == 2
        assert "schema error at schedule.K: H + K H_c has Frobenius norm past 2**128" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_detuning_at_the_domain_edge_is_written_right(self, tmp_path, capsys):
        # omega_b = -1e308 is refused where it enters; -2**128 runs, and the far
        # off-resonant |b> does not decay: a survival of 1, not a NaN, is written
        def args(omega_b):
            return [str(SCENARIOS / "decay_protection.json"), "--set",
                    f"model.parameters.omega_b={omega_b!r}", "--set", "schedule.K=[0.0]"]
        assert main(["validate", *args(-1e308)]) == 2
        assert "schema error at model.parameters: omega_b must be finite, with magnitude " \
               "0 or in [2**-128, 2**128], got -1e+308" in capsys.readouterr().err
        assert main(["run", *args(-2.0**128), "--output-dir", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "decay-protection_survival.csv").read_text().splitlines()
        assert lines == ["K,survival", "0,1"]

    @pytest.mark.parametrize("scenario", ["continuous_convergence.json",
                                          "zeno_limit_series.json"])
    def test_sample_count_past_memory_is_a_numeric_error(self, tmp_path, capsys, scenario):
        # 10**15 samples lie past the address space: numpy refuses them before allocating
        args = [str(SCENARIOS / scenario), "--set", "schedule.samples=1000000000000000"]
        assert main(["validate", *args, "--quiet"]) == 0
        assert main(["run", *args, "--output-dir", str(tmp_path / "out")]) == 3
        assert "numeric error: Unable to allocate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("samples", [2**53 + 1, 2**62, 10**29])
    @pytest.mark.parametrize("scenario", ["continuous_convergence.json",
                                          "kicked_convergence.json", "zeno_limit_series.json"])
    def test_sample_count_past_float64_is_a_schema_error(self, tmp_path, capsys, scenario,
                                                          samples):
        # np.linspace counts samples in float64, exact to 2**53; numpy's own refusal of
        # 2**60 or more would be a ValueError and a traceback
        args = [str(SCENARIOS / scenario), "--set", f"schedule.samples={samples}"]
        assert main(["validate", *args]) == 2
        assert main(["run", *args, "--output-dir", str(tmp_path / "out")]) == 2
        line = (f"schema error at schedule.samples: samples must be an integer in [2, 2**53], "
                f"got {samples}\n")
        assert capsys.readouterr().err == 2 * line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", ["continuous_convergence.json",
                                          "zeno_limit_series.json"])
    def test_largest_sample_count_is_a_numeric_error(self, tmp_path, capsys, scenario):
        args = [str(SCENARIOS / scenario), "--set", f"schedule.samples={2**53}", "--output-dir",
                str(tmp_path / "out")]
        assert main(["run", *args]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: Unable to allocate 64.0 PiB") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_int64_counts_sweep_end_to_end(self, tmp_path, capsys):
        # 2**62 and 2**62 + 1 are one float64: the counts stay int64 from schema to file
        ns = [2**62, 2**62 + 1, 2**63 - 1]
        args = [str(SCENARIOS / "kicked_convergence.json"), "--set", f"schedule.N={ns}"]
        assert main(["validate", *args]) == 0
        assert main(["run", *args, "--output-dir", str(tmp_path), "--quiet"]) == 0
        lines = (tmp_path / "kicked-convergence_convergence.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["N", *map(str, ns)]
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_run_and_validate_take_set_and_quiet(self, capsys, command):
        with pytest.raises(SystemExit) as e:
            main([command, "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        assert "--set KEY=VALUE" in out and "--quiet" in out

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_n_at_2_63_is_a_schema_error(self, tmp_path, capsys, command):
        # every engine refuses N >= 2**63, so the schema refuses it as well
        path = write_config(tmp_path, kicked_doc(), name="kicked.json")
        args = [command, path, "--set", "schedule.N=[64,128,9223372036854775808]"]
        assert main(args + (["--output-dir", str(tmp_path)] if command == "run" else [])) == 2
        assert "schema error at schedule.N" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["kicked.json"]

    def test_quiet_run_prints_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path, zeno_limit_doc())
        main(["run", path, "--output-dir", str(tmp_path), "--quiet"])
        assert capsys.readouterr().out == ""


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


# every scalar a scenario gives the run: t and K on one model, then each builder parameter
_SCALAR_INPUTS = [("four-level-continuous", "schedule.t"),
                  ("four-level-continuous", "schedule.K")] + [
    (name, f"model.parameters.{param}") for name, build in sorted(MODEL_REGISTRY.items())
    for param in model_defaults(build)]


@pytest.mark.parametrize("model, path", _SCALAR_INPUTS,
                         ids=[f"{model}-{path}" for model, path in _SCALAR_INPUTS])
def test_magnitude_domain_is_checked_where_each_scalar_enters(tmp_path, capsys, model, path):
    """2**-128 and 2**128 pass the scalar check; 2**129, -2**129 and 2**-129 are exit 2 of
    ``zenosim validate`` at the input's path.  A builder may still refuse an edge value for
    its own reasons (coinciding sectors, or a model matrix whose Frobenius norm passes
    2**128), and the continuous builder may refuse K = 2**128 at schedule.K, where
    H + K H_c passes 2**128, but neither refuses by the scalar domain."""
    mechanism = "decay-sweep" if model == "decay" else MODEL_REGISTRY[model]().mechanism
    key = MECHANISMS[mechanism].key
    config = write_config(tmp_path, {
        "model": {"name": model, "parameters": {}}, "mechanism": mechanism,
        "schedule": {"t": 1.0, key: [4] if key == "N" else [1.0]},
        "outputs": ["survival" if model == "decay" else "probabilities"]})

    def validate(x):
        value = f"[{x!r}]" if path == "schedule.K" else repr(x)
        code = main(["validate", config, "--quiet", "--set", f"{path}={value}"])
        return code, capsys.readouterr().err

    for x in (2.0**-128, 2.0**128):
        code, err = validate(x)
        assert code == 0 or (code == 2 and path.startswith("model.")) or (
            code == 2 and path == "schedule.K" and x == 2.0**128 and err.startswith(
                "schema error at schedule.K: H + K H_c has Frobenius norm past 2**128")), err
        assert "[2**-128, 2**128]" not in err
    refused_at = path if path.startswith("schedule.") else "model.parameters"
    for x in (2.0**129, -2.0**129, 2.0**-129):
        code, err = validate(x)
        assert code == 2 and err.startswith(f"schema error at {refused_at}: ")
        assert "[2**-128, 2**128]" in err


def test_no_cell_prints_a_negative_zero():
    """-0.0 prints as "0" wherever ``_fmt`` writes it: a CSV cell, and either part of a
    matrix entry; which zeros carry a sign can depend on the BLAS kernel."""
    assert _fmt(-0.0) == "0"
    assert _csv_lines({"K": np.array([-0.0, 0.0, -1.5])}) == ["K", "0", "0", "-1.5"]
    m = np.zeros((2, 2), dtype=complex)
    m.real, m.imag = [[-0.0, -2.0], [0.0, 1.0]], [[-0.0, 0.0], [0.5, -0.0]]
    assert _matrix_lines(m) == ["dim 2", "0,0 -2,0", "0,0.5 1,0"]


# a comment naming the OpenBLAS core, then one "<sha256>  <file>" line per output file
RECORDED = Path(__file__).with_name("scenario_outputs.sha256")


def _recorded_hashes() -> tuple[str, dict[str, str]]:
    """The core comment of ``RECORDED``, and its sha256 per scenario output file."""
    comment, *entries = RECORDED.read_text(encoding="utf-8").splitlines()
    return comment.lstrip("# "), {name: digest for digest, name in map(str.split, entries)}


def test_scenario_outputs_match_the_recorded_hashes(tmp_path):
    """The shipped scenarios write exactly the bytes recorded for the core ``RECORDED`` names."""
    for scenario in sorted(SCENARIOS.glob("*.json")):
        assert main(["run", str(scenario), "--output-dir", str(tmp_path), "--quiet"]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    core, recorded = _recorded_hashes()
    assert len(written) == 12
    assert written == recorded, (
        f"{sorted(n for n in written | recorded if written.get(n) != recorded.get(n))} differ "
        f"from {RECORDED.name} ({core}); on another core, tests/test_certificates.py "
        "judges the numbers")


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
    """scipy stays off every runtime path, the expm fallback near an exceptional
    point included; only the tests' independent oracles use it."""

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

    def test_expm_fallback_leaves_scipy_out(self):
        # a Jordan block: the guarded eig refuses it, so every sample after 0 takes expm
        assert not _loads_scipy(
            "import numpy as np\n"
            "from zenosim import evolve_continuous, expm\n"
            "h = np.array([[-1j, 1], [0, -1j]])\n"
            "expm(h)\n"
            "evolve_continuous(np.array([0, 1]), h, np.zeros((2, 2)), 0.0, 3.0, samples=4)")
