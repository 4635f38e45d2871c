"""Scenario configuration: JSON documents, schema validation, overrides.

A scenario is one JSON object per file:

    {
      "name": "demo",
      "model": {"name": "three-level-projective", "parameters": {"omega1": 1.0}},
      "mechanism": "projective",
      "schedule": {"t": 1.0, "N": [16, 32, 64], "samples": 50},
      "initial_state": "b",
      "outputs": ["probabilities", "purity", "convergence"],
      "output": {"path": "demo", "format": "csv"}
    }

Validation is strict: unknown keys anywhere are rejected, and every problem
is reported with its dotted path, all at once, via SchemaViolation.
"""

from __future__ import annotations

import inspect
import json
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, SchemaViolation
from .linalg import check_state_vector
from .models import (
    ModelBundle,
    decay_model,
    four_level_continuous,
    four_level_kicked,
    simplified_continuous,
    simplified_kicked,
    three_level_projective,
)

__all__ = [
    "MODEL_REGISTRY",
    "MECHANISMS",
    "OUTPUT_KINDS",
    "SERIES_OUTPUTS",
    "ModelSpec",
    "ScenarioConfig",
    "parse_config",
    "load_document",
    "validate_document",
    "apply_overrides",
]

SERIES_OUTPUTS = ("probabilities", "purity", "coherence")
OUTPUT_KINDS = SERIES_OUTPUTS + ("convergence", "propagator", "survival")

# mechanism -> (schedule key it sweeps: "N" step counts, "K" couplings or
# None, outputs it can produce)
MECHANISMS = {
    "projective": ("N", SERIES_OUTPUTS + ("convergence",)),
    "kicked": ("N", SERIES_OUTPUTS + ("convergence", "propagator")),
    "continuous": ("K", SERIES_OUTPUTS + ("convergence", "propagator")),
    "zeno-limit": (None, SERIES_OUTPUTS + ("propagator",)),
    "decay-sweep": ("K", ("survival",)),
}

_BASIS_LABELS = {3: ("a", "b", "c"), 4: ("a", "b", "c", "M")}


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry: a model's builder and the mechanism and size it yields."""

    name: str
    mechanism: str
    dim: int
    build: Callable[..., ModelBundle]

    @property
    def defaults(self) -> dict:
        """The builder's keyword defaults; a run takes ``coupling`` from schedule.K."""
        params = inspect.signature(self.build).parameters
        return {key: p.default for key, p in params.items() if key != "coupling"}


MODEL_REGISTRY: dict[str, ModelSpec] = {
    spec.name: spec for spec in [
        ModelSpec("three-level-projective", "projective", 3, three_level_projective),
        ModelSpec("four-level-kicked", "kicked", 4, four_level_kicked),
        ModelSpec("four-level-continuous", "continuous", 4, four_level_continuous),
        ModelSpec("simplified-kicked", "kicked", 3, simplified_kicked),
        ModelSpec("simplified-continuous", "continuous", 3, simplified_continuous),
        ModelSpec("decay", "continuous", 4, decay_model),
    ]
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario, ready to run."""

    name: str
    model_name: str
    model_parameters: dict
    mechanism: str
    t: float
    values: tuple | None  # swept schedule: N ints or K floats; None for zeno-limit
    samples: int
    initial_state: tuple[complex, ...] | None  # None = default state
    outputs: tuple[str, ...]
    output_path: str

    @property
    def model_spec(self) -> ModelSpec:
        return MODEL_REGISTRY[self.model_name]

    def build_bundle(self):
        return self.model_spec.build(**self.model_parameters)

    def resolve_initial_state(self) -> np.ndarray:
        """Amplitude vector to start from; defaults to (|b> + |c>)/sqrt(2)."""
        dim = self.model_spec.dim
        if self.initial_state is None:
            psi = np.zeros(dim, dtype=complex)
            psi[1] = psi[2] = 1.0 / np.sqrt(2.0)
            return psi
        return np.asarray(self.initial_state, dtype=complex)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class _Collector:
    def __init__(self):
        self.violations: list[tuple[str, str]] = []

    def add(self, path: str, reason: str):
        self.violations.append((path, reason))

    def raise_if_any(self):
        if self.violations:
            raise SchemaViolation(self.violations)


def _check_unknown_keys(obj: dict, allowed: tuple[str, ...], path: str,
                        err: _Collector):
    for key in obj:
        if key not in allowed:
            err.add(f"{path}.{key}" if path else key, "unknown key")


def load_document(text: str) -> dict:
    """Parse the raw JSON text; the root must be an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation([("$", f"not valid JSON: {exc}")]) from None
    if not isinstance(doc, dict):
        raise SchemaViolation([("$", "root must be an object")])
    return doc


def apply_overrides(doc: dict, assignments: list[str]) -> dict:
    """Apply --set key.path=value assignments to a parsed document.

    Values are parsed as JSON when possible (numbers, lists, booleans),
    otherwise taken as strings.  Intermediate objects are created as needed;
    validation afterwards still rejects anything the schema does not know.
    """
    for item in assignments:
        if "=" not in item:
            raise SchemaViolation([("--set", f"expected key=value, got {item!r}")])
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise SchemaViolation([("--set", f"empty key in {item!r}")])
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return doc


def _validate_model(doc, err: _Collector) -> tuple[str | None, dict]:
    model = doc.get("model")
    if not isinstance(model, dict):
        err.add("model", "required object with keys name, parameters")
        return None, {}
    _check_unknown_keys(model, ("name", "parameters"), "model", err)
    name = model.get("name")
    if not isinstance(name, str) or name not in MODEL_REGISTRY:
        err.add("model.name", f"must be one of {sorted(MODEL_REGISTRY)}")
        return None, {}
    params = MODEL_REGISTRY[name].defaults
    raw = model.get("parameters", {})
    if not isinstance(raw, dict):
        err.add("model.parameters", "must be an object")
    else:
        for key, value in raw.items():
            if key not in params:
                err.add(f"model.parameters.{key}",
                        f"unknown parameter; {name} takes {sorted(params)}")
            elif not _is_number(value):
                err.add(f"model.parameters.{key}", "must be a finite number")
            else:
                params[key] = float(value)
    return name, params


def _validate_schedule(doc, mechanism, err: _Collector):
    t, values, samples = None, None, 50
    sched = doc.get("schedule")
    if not isinstance(sched, dict):
        err.add("schedule", "required object with key t (and N or K)")
        return t, values, samples
    _check_unknown_keys(sched, ("t", "N", "K", "samples"), "schedule", err)

    raw_t = sched.get("t")
    if not _is_number(raw_t) or raw_t <= 0:
        err.add("schedule.t", "must be a positive number")
    else:
        t = float(raw_t)

    if "samples" in sched:
        raw_s = sched["samples"]
        if not _is_int(raw_s) or raw_s < 2:
            err.add("schedule.samples", "must be an integer >= 2")
        else:
            samples = raw_s

    swept = {}
    for key, cast, ok, what in (
            ("N", int, lambda v: _is_int(v) and v >= 1, "a positive integer"),
            ("K", float, lambda v: _is_number(v) and v >= 0, "a number >= 0")):
        if key not in sched:
            continue
        vals = sched[key] if isinstance(sched[key], list) else [sched[key]]
        if not vals or not all(ok(v) for v in vals):
            err.add(f"schedule.{key}", f"must be {what} or list of them")
        elif any(b <= a for a, b in zip(vals, vals[1:])):
            err.add(f"schedule.{key}", "list must be strictly increasing")
        else:
            swept[key] = tuple(cast(v) for v in vals)

    if mechanism is not None:
        key = MECHANISMS[mechanism][0]
        if key is not None and key not in sched:
            err.add(f"schedule.{key}", f"required for mechanism {mechanism}")
        for other in ("N", "K"):
            if other != key and other in sched:
                err.add(f"schedule.{other}",
                        f"not applicable to mechanism {mechanism}")
        values = swept.get(key)
    return t, values, samples


def _validate_initial_state(doc, model_name, mechanism, err: _Collector):
    if "initial_state" not in doc:
        return None
    if mechanism == "decay-sweep":
        err.add("initial_state", "decay-sweep always starts from |b>")
        return None
    raw = doc["initial_state"]
    dim = MODEL_REGISTRY[model_name].dim if model_name else None
    if isinstance(raw, str):
        if dim is None:
            return None  # labels depend on the model, which is reported
        labels = _BASIS_LABELS.get(dim, ())
        matches = [i for i, lab in enumerate(labels) if lab.lower() == raw.lower()]
        if not matches:
            err.add("initial_state", f"unknown basis label {raw!r}; "
                                     f"expected one of {list(labels)}")
            return None
        psi = np.zeros(dim, dtype=complex)
        psi[matches[0]] = 1.0
        return tuple(psi)
    if isinstance(raw, list):
        ok = ((dim is None or len(raw) == dim)
              and all(isinstance(entry, list) and len(entry) == 2
                      and all(_is_number(x) for x in entry) for entry in raw))
        if not ok:
            err.add("initial_state", "must be a basis label or a list of "
                                     + (f"{dim} " if dim else "") + "[re, im] pairs")
            return None
        psi = np.array([complex(re, im) for re, im in raw])
        try:
            check_state_vector(psi)
        except InvalidState:
            err.add("initial_state", f"must be normalized; got norm "
                                     f"{np.linalg.norm(psi):.12g}")
            return None
        return tuple(psi)
    err.add("initial_state", "must be a basis label string or amplitude list")
    return None


def _validate_outputs(doc, mechanism, values, err: _Collector):
    raw = doc.get("outputs")
    if not isinstance(raw, list) or not raw:
        err.add("outputs", "required non-empty list")
        return ()
    outputs = []
    for i, item in enumerate(raw):
        if item not in OUTPUT_KINDS:
            err.add(f"outputs[{i}]", f"must be one of {list(OUTPUT_KINDS)}")
        elif item in outputs:
            err.add(f"outputs[{i}]", f"duplicate output {item!r}")
        else:
            outputs.append(item)
    if mechanism is not None:
        allowed = MECHANISMS[mechanism][1]
        for kind in outputs:
            if kind not in allowed:
                err.add("outputs", f"{kind} not available for mechanism "
                                   f"{mechanism}; it produces {list(allowed)}")
            elif kind == "convergence" and values is not None and len(values) < 3:
                err.add("outputs", "convergence needs at least 3 schedule values")
    return tuple(outputs)


def validate_document(doc: dict) -> ScenarioConfig:
    """Validate a parsed document against the schema; all errors at once."""
    err = _Collector()
    _check_unknown_keys(doc, ("name", "model", "mechanism", "schedule",
                              "initial_state", "outputs", "output"), "", err)

    model_name, params = _validate_model(doc, err)

    mechanism = doc.get("mechanism")
    if not isinstance(mechanism, str) or mechanism not in MECHANISMS:
        err.add("mechanism", f"must be one of {list(MECHANISMS)}")
        mechanism = None

    if model_name is not None and mechanism is not None:
        spec = MODEL_REGISTRY[model_name]
        if mechanism == "decay-sweep":
            if model_name != "decay":
                err.add("mechanism", "decay-sweep requires the decay model")
        elif model_name == "decay":
            err.add("mechanism", "the decay model only runs under decay-sweep")
        elif mechanism == "zeno-limit":
            pass  # any Hermitian model
        elif mechanism != spec.mechanism:
            err.add("mechanism",
                    f"model {model_name} carries a {spec.mechanism} payload, "
                    f"not {mechanism}")

    t, values, samples = _validate_schedule(doc, mechanism, err)
    initial_state = _validate_initial_state(doc, model_name, mechanism, err)
    outputs = _validate_outputs(doc, mechanism, values, err)

    name = doc.get("name", model_name or "scenario")
    if not isinstance(name, str) or not name:
        err.add("name", "must be a non-empty string")
        name = "scenario"

    output_path = name
    out = doc.get("output")
    if out is not None:
        if not isinstance(out, dict):
            err.add("output", "must be an object with keys path, format")
        else:
            _check_unknown_keys(out, ("path", "format"), "output", err)
            raw_path = out.get("path", name)
            if not isinstance(raw_path, str) or not raw_path:
                err.add("output.path", "must be a non-empty string")
            else:
                output_path = raw_path
            if out.get("format", "csv") != "csv":
                err.add("output.format", "only 'csv' is supported")

    err.raise_if_any()
    return ScenarioConfig(
        name=name, model_name=model_name, model_parameters=params,
        mechanism=mechanism, t=t, values=values, samples=samples,
        initial_state=initial_state, outputs=outputs, output_path=output_path)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document from raw text."""
    return validate_document(load_document(text))
