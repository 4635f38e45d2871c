import json

import numpy as np
import pytest

from zenosim.config import (
    MECHANISMS,
    MODEL_REGISTRY,
    apply_overrides,
    load_document,
    model_defaults,
    parse_config,
    validate_document,
)
from zenosim.errors import SchemaViolation


def base_doc(**overrides):
    doc = {
        "name": "demo",
        "model": {"name": "four-level-kicked", "parameters": {}},
        "mechanism": "kicked",
        "schedule": {"t": 1.0, "N": [4, 8, 16]},
        "outputs": ["probabilities"],
    }
    doc.update(overrides)
    return doc


def violation_paths(excinfo):
    return [path for path, _ in excinfo.value.violations]


def _run_inputs(bundle):
    """The arrays a run reads from a bundle: H, its payload, the sector projectors."""
    payload = bundle.U_kick if bundle.U_kick is not None else bundle.H_c
    arrays = [bundle.H, *bundle.resolution().projectors]
    return arrays if payload is None else arrays + [payload]


class TestLoadDocument:
    def test_valid_json(self):
        assert load_document('{"a": 1}') == {"a": 1}

    def test_invalid_json(self):
        with pytest.raises(SchemaViolation) as e:
            load_document("{nope")
        assert violation_paths(e) == ["$"]

    def test_non_object_root(self):
        with pytest.raises(SchemaViolation):
            load_document("[1, 2]")


class TestValidateDocument:
    def test_minimal_kicked_scenario(self):
        cfg = validate_document(base_doc())
        assert cfg.model_name == "four-level-kicked"
        assert cfg.mechanism == "kicked"
        assert cfg.t == 1.0
        assert cfg.values == (4, 8, 16)
        assert cfg.samples == 50
        assert cfg.outputs == ("probabilities",)
        assert cfg.output_path == "demo"

    def test_defaults_merged_with_parameters(self):
        doc = base_doc()
        doc["model"]["parameters"] = {"omega1": 0.5}
        cfg = validate_document(doc)
        assert cfg.model_parameters["omega1"] == 0.5
        assert cfg.model_parameters["lambda2"] == 1.0  # registry default

    def test_zeno_limit_accepts_any_hermitian_model(self):
        doc = base_doc(mechanism="zeno-limit", schedule={"t": 1.0})
        cfg = validate_document(doc)
        assert cfg.mechanism == "zeno-limit"
        assert cfg.values is None

    def test_negative_t(self):
        doc = base_doc(schedule={"t": -1.0, "N": [4]})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "schedule.t" in violation_paths(e)

    def test_missing_n_for_kicked(self):
        doc = base_doc(schedule={"t": 1.0})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "schedule.N" in violation_paths(e)

    def test_k_not_applicable_to_kicked(self):
        doc = base_doc(schedule={"t": 1.0, "N": [4], "K": [2.0]})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "schedule.K" in violation_paths(e)

    def test_unknown_top_level_key(self):
        doc = base_doc(extra=1)
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "extra" in violation_paths(e)

    def test_unknown_model(self):
        doc = base_doc(model={"name": "five-level", "parameters": {}},
                       initial_state="b")
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        # basis labels depend on the model, so "b" is not judged as well
        assert violation_paths(e) == ["model.name"]

    def test_unknown_model_parameter(self):
        # the coupling K is swept by the schedule, never a model parameter
        for model, key in (("four-level-kicked", "omega3"),
                           ("four-level-continuous", "K")):
            doc = base_doc(model={"name": model, "parameters": {key: 1.0}})
            with pytest.raises(SchemaViolation) as e:
                validate_document(doc)
            assert f"model.parameters.{key}" in violation_paths(e)

    def test_mechanism_payload_mismatch(self):
        doc = base_doc(model={"name": "three-level-projective",
                              "parameters": {}})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "mechanism" in violation_paths(e)

    def test_decay_model_requires_sweep(self):
        doc = base_doc(model={"name": "decay", "parameters": {}},
                       mechanism="continuous",
                       schedule={"t": 5.0, "K": [10.0]})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "mechanism" in violation_paths(e)

    def test_sweep_requires_decay_model(self):
        doc = base_doc(mechanism="decay-sweep",
                       schedule={"t": 5.0, "K": [10.0, 20.0]},
                       outputs=["survival"])
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "mechanism" in violation_paths(e)

    def test_valid_decay_sweep(self):
        doc = base_doc(model={"name": "decay", "parameters": {"gamma": 0.1}},
                       mechanism="decay-sweep",
                       schedule={"t": 5.0, "K": [10.0, 20.0, 40.0]},
                       outputs=["survival"])
        cfg = validate_document(doc)
        assert cfg.values == (10.0, 20.0, 40.0)
        assert cfg.outputs == ("survival",)

    def test_multiple_violations_collected(self):
        doc = base_doc(mechanism="teleport", schedule={"t": -2.0})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        # no schedule.N or outputs errors that only follow from the bad mechanism
        assert violation_paths(e) == ["mechanism", "schedule.t"]

    @pytest.mark.parametrize("key, value, path", [
        ("model", [1], "model"),
        ("model", {"name": "four-level-kicked", "parameters": [1]}, "model.parameters"),
        ("model", {"name": "four-level-kicked", "parameters": {"omega1": "x"}},
         "model.parameters.omega1"),
        ("schedule", 3, "schedule"),
        ("initial_state", 3, "initial_state"),
        ("outputs", None, "outputs"),  # None: the key is left out
        ("outputs", [], "outputs"),
        ("name", "", "name"),
        ("output", "x", "output"),
        ("output", {"path": ""}, "output.path"),
    ], ids=["model-not-object", "parameters-not-object", "parameter-not-number",
            "schedule-not-object", "initial-state-not-label-or-list", "outputs-missing",
            "outputs-empty", "name-empty", "output-not-object", "output-path-empty"])
    def test_malformed_entry_reported_at_its_path(self, key, value, path):
        doc = base_doc(**{key: value})
        if value is None:
            del doc[key]
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert violation_paths(e) == [path]

    def test_samples_bounds(self):
        doc = base_doc(schedule={"t": 1.0, "N": [4], "samples": 1})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "schedule.samples" in violation_paths(e)

    def test_descending_n_list(self):
        doc = base_doc(schedule={"t": 1.0, "N": [16, 8]})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "schedule.N" in violation_paths(e)

    def test_n_below_2_63(self):
        # the engines take N up to 2**63 - 1 and refuse anything larger
        cfg = validate_document(base_doc(schedule={"t": 1.0, "N": [64, 2**63 - 1]}))
        assert cfg.values == (64, 2**63 - 1)
        for n in (2**63, 2**64):
            with pytest.raises(SchemaViolation) as e:
                validate_document(base_doc(schedule={"t": 1.0, "N": [64, 128, n]}))
            assert violation_paths(e) == ["schedule.N"]

    @pytest.mark.parametrize("schedule, path", [
        ({"t": True, "N": [4]}, "schedule.t"),  # a bool is no number
        ({"t": 1.0, "N": [4.0]}, "schedule.N"),  # N takes JSON integers
        ({"t": 1.0, "N": [4], "samples": 2.0}, "schedule.samples"),
        ({"t": 1.0, "N": []}, "schedule.N"),  # the engines refuse an empty sweep
        ({"t": 10**400, "N": [4]}, "schedule.t"),  # an int past the float range is inf
    ], ids=["t-bool", "n-float", "samples-float", "n-empty", "t-past-float-range"])
    def test_schedule_refusals_reported_at_their_path(self, schedule, path):
        with pytest.raises(SchemaViolation) as e:
            validate_document(base_doc(schedule=schedule))
        assert violation_paths(e) == [path]

    def test_coupling_times_t_must_stay_finite(self):
        # the engines' coupling check refuses a K past 2**128 at schedule.K, whatever t is;
        # K*t = 2**255 is far inside the float range, and at K = 2**128 the run's builder
        # refuses H + K*H_c, whose Frobenius norm is then sqrt(2) * 2**128, there too
        doc = base_doc(model={"name": "four-level-continuous", "parameters": {}},
                       mechanism="continuous", schedule={"t": 1.0, "K": [1.0, 1e300]})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert e.value.violations == [("schedule.K", "K must be a finite real >= 0, with "
                                                     "magnitude 0 or in [2**-128, 2**128], "
                                                     "got 1e+300")]
        doc["schedule"] = {"t": 2.0**128, "K": [1.0, 2.0**127]}
        assert validate_document(doc).values == (1.0, 2.0**127)
        doc["schedule"] = {"t": 2.0**128, "K": [1.0, 2.0**128]}
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert e.value.violations == [("schedule.K",
                                       "H + K H_c has Frobenius norm past 2**128")]

    @pytest.mark.parametrize("model, parameters", [
        ("four-level-kicked", {"lambda1": 0.5, "lambda2": -0.5}),  # lambda1 = -lambda2
        ("simplified-continuous", {"eta1": 2.0, "eta2": 2.0}),
        ("decay", {"tau_z": 0.0}),
        ("decay", {"gamma": -0.1}),
        ("three-level-projective", {"omega2": float("inf")}),
    ], ids=["kick-phases", "coupling-levels", "tau-z-zero", "gamma-negative", "inf"])
    def test_configured_model_built_at_validation(self, model, parameters):
        # the builder's refusal is a schema error at model.parameters, and nothing else
        # is judged that depends on the bundle (mechanism, dimension)
        doc = base_doc(model={"name": model, "parameters": parameters}, initial_state="b")
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert violation_paths(e) == ["model.parameters"]


class TestInitialState:
    def test_basis_label(self):
        cfg = validate_document(base_doc(initial_state="a"))
        psi = cfg.resolve_initial_state()
        assert psi[0] == 1.0 and np.linalg.norm(psi) == 1.0

    def test_default_straddles_sectors(self):
        cfg = validate_document(base_doc())
        psi = cfg.resolve_initial_state()
        assert abs(psi[1] - 1 / np.sqrt(2)) <= 1e-15
        assert abs(psi[2] - 1 / np.sqrt(2)) <= 1e-15

    def test_default_resolved_at_validation(self):
        for model, mechanism, schedule in (
                ("four-level-kicked", "kicked", {"t": 1.0, "N": [4]}),
                ("three-level-projective", "zeno-limit", {"t": 1.0})):
            cfg = validate_document(base_doc(model={"name": model, "parameters": {}},
                                             mechanism=mechanism, schedule=schedule))
            expected = np.zeros(MODEL_REGISTRY[model]().dim, dtype=complex)
            expected[1] = expected[2] = 1.0 / np.sqrt(2.0)
            assert np.asarray(cfg.initial_state).tobytes() == expected.tobytes()
        sweep = validate_document(base_doc(model={"name": "decay", "parameters": {}},
                                           mechanism="decay-sweep",
                                           schedule={"t": 5.0, "K": [10.0]},
                                           outputs=["survival"]))
        assert sweep.initial_state is None

    def test_amplitude_list(self):
        amps = [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0], [0.0, 0.0]]
        cfg = validate_document(base_doc(initial_state=amps))
        psi = cfg.resolve_initial_state()
        assert abs(psi[1] - 0.8j) <= 1e-15

    def test_unnormalized_rejected(self):
        for amps in (
                [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                # norm 1 + 1.7e-7: the engines refuse it, so the schema must too
                [[1.0 + 1.7e-7, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                # norm 1 + 8e-10: |norm² - 1| exceeds the engines' 1e-9
                [[1.0 + 8e-10, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]):
            with pytest.raises(SchemaViolation) as e:
                validate_document(base_doc(initial_state=amps))
            assert violation_paths(e) == ["initial_state"]

    def test_unknown_label_rejected(self):
        with pytest.raises(SchemaViolation) as e:
            validate_document(base_doc(initial_state="z"))
        assert "initial_state" in violation_paths(e)

    def test_wrong_length_rejected(self):
        with pytest.raises(SchemaViolation) as e:
            validate_document(base_doc(initial_state=[[1.0, 0.0]]))
        assert "initial_state" in violation_paths(e)

    def test_rejected_for_decay_sweep(self):
        doc = base_doc(model={"name": "decay", "parameters": {}},
                       mechanism="decay-sweep",
                       schedule={"t": 5.0, "K": [10.0]},
                       outputs=["survival"], initial_state="b")
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "initial_state" in violation_paths(e)


class TestOutputs:
    def test_survival_needs_sweep(self):
        with pytest.raises(SchemaViolation) as e:
            validate_document(base_doc(outputs=["survival"]))
        assert "outputs" in violation_paths(e)

    def test_sweep_only_produces_survival(self):
        doc = base_doc(model={"name": "decay", "parameters": {}},
                       mechanism="decay-sweep",
                       schedule={"t": 5.0, "K": [10.0]},
                       outputs=["purity"])
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert violation_paths(e) == ["outputs"]  # reported once

    def test_convergence_needs_three_values(self):
        doc = base_doc(schedule={"t": 1.0, "N": [4, 8]},
                       outputs=["convergence"])
        with pytest.raises(SchemaViolation):
            validate_document(doc)

    def test_propagator_not_for_projective(self):
        doc = base_doc(model={"name": "three-level-projective",
                              "parameters": {}},
                       mechanism="projective",
                       outputs=["propagator"])
        with pytest.raises(SchemaViolation):
            validate_document(doc)

    def test_duplicate_rejected(self):
        with pytest.raises(SchemaViolation):
            validate_document(base_doc(outputs=["purity", "purity"]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaViolation):
            validate_document(base_doc(outputs=["entropy"]))

    def test_output_format_restricted(self):
        doc = base_doc(output={"path": "x", "format": "json"})
        with pytest.raises(SchemaViolation) as e:
            validate_document(doc)
        assert "output.format" in violation_paths(e)


class TestOverrides:
    def test_json_value(self):
        doc = base_doc()
        apply_overrides(doc, ["schedule.t=2.5"])
        assert doc["schedule"]["t"] == 2.5

    def test_nested_creation(self):
        doc = base_doc()
        apply_overrides(doc, ["model.parameters.omega1=0.25"])
        assert doc["model"]["parameters"]["omega1"] == 0.25

    def test_string_fallback(self):
        doc = base_doc()
        apply_overrides(doc, ["name=sweep-a"])
        assert doc["name"] == "sweep-a"

    def test_list_value(self):
        doc = base_doc()
        apply_overrides(doc, ["schedule.N=[2, 4, 8]"])
        assert doc["schedule"]["N"] == [2, 4, 8]

    def test_missing_intermediate_objects_created(self):
        doc = base_doc()
        apply_overrides(doc, ["output.path=x", "name.first=1"])
        assert doc["output"] == {"path": "x"}
        assert doc["name"] == {"first": 1}  # a non-object on the path is replaced

    @pytest.mark.parametrize("item", ["=1", " =1"], ids=["no-key", "blank-key"])
    def test_empty_key(self, item):
        with pytest.raises(SchemaViolation) as e:
            apply_overrides(base_doc(), [item])
        assert e.value.violations == [("--set", f"empty key in {item!r}")]

    def test_missing_equals(self):
        with pytest.raises(SchemaViolation):
            apply_overrides(base_doc(), ["schedule.t"])

    def test_roundtrip_through_validation(self):
        doc = base_doc()
        apply_overrides(doc, ["schedule.t=0.5", "model.parameters.lambda2=2.0"])
        cfg = validate_document(doc)
        assert cfg.t == 0.5
        assert cfg.model_parameters["lambda2"] == 2.0


class TestRegistry:
    def test_every_model_builds_from_defaults(self):
        """Every builder builds from model_defaults."""
        for name, build in MODEL_REGISTRY.items():
            bundle = build(**model_defaults(build))
            assert bundle.mechanism in MECHANISMS and bundle.mechanism != "zeno-limit", name
            assert bundle.dim in (3, 4), name  # the sizes the basis labels cover

    @pytest.mark.parametrize("name, key", [
        (name, key) for name, build in MODEL_REGISTRY.items() for key in model_defaults(build)])
    def test_every_parameter_reaches_the_run(self, name, key):
        """Moving any registry parameter changes H, the payload or the sectors."""
        build = MODEL_REGISTRY[name]
        defaults = model_defaults(build)
        before = _run_inputs(build(**defaults))
        after = _run_inputs(build(**{**defaults, key: defaults[key] + 0.375}))
        assert len(before) != len(after) or any(
            not np.array_equal(a, b) for a, b in zip(before, after))

    def test_parse_config_end_to_end(self):
        cfg = parse_config(json.dumps(base_doc()))
        bundle = cfg.build_bundle()
        assert bundle.mechanism == "kicked"
