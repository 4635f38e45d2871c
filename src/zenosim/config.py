"""Scenario configuration: JSON documents, schema validation, overrides.

A scenario is one JSON object per file:

    {
      "name": "demo",
      "model": {"name": "three-level-projective", "parameters": {"omega1": 1.0}},
      "mechanism": "projective",
      "schedule": {"t": 1.0, "N": [16, 32, 64], "samples": 50},
      "initial_state": "b",
      "outputs": ["probabilities", "purity", "convergence"],
      "output": {"path": "demo"}
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

from . import analysis, engines
from .errors import InvalidState, SchemaViolation
from .linalg import check_state_vector, propagator
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
    "ScenarioConfig",
    "model_defaults",
    "parse_config",
    "load_document",
    "validate_document",
    "apply_overrides",
]

SERIES_OUTPUTS = ("probabilities", "purity", "coherence")
# output kind -> the Mechanism maker that computes it
_MAKERS = {**dict.fromkeys(SERIES_OUTPUTS, "series"), "convergence": "curve",
           "propagator": "propagators", "survival": "survival"}
OUTPUT_KINDS = tuple(_MAKERS)


@dataclass(frozen=True)
class Mechanism:
    """A mechanism's swept schedule key ("N", "K" or None) and output makers.

    One maker per output group it produces, x the last swept value or None:
    series(bundle, psi0, t, x, samples), curve(bundle, psi0, t, values),
    propagators(bundle, t, x) -> {file infix: matrix}, survival(config).
    """

    key: str | None
    series: Callable | None = None
    curve: Callable | None = None
    propagators: Callable | None = None
    survival: Callable | None = None

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(kind for kind, maker in _MAKERS.items() if getattr(self, maker))


MECHANISMS = {
    "projective": Mechanism(
        "N",
        series=lambda b, psi0, t, n, samples: engines.evolve_projective(
            np.outer(psi0, psi0.conj()), b.H, b.res, t, n, samples),
        curve=lambda b, psi0, t, ns: analysis.projective_convergence_curve(
            b, np.outer(psi0, psi0.conj()), t, ns)),
    "kicked": Mechanism(
        "N",
        series=lambda b, psi0, t, n, samples: engines.evolve_kicked(
            psi0, b.H, b.U_kick, t, n, samples),
        curve=lambda b, psi0, t, ns: analysis.convergence_curve(b, t, ns),
        propagators=lambda b, t, n: {
            "": engines.kicked_propagator(b.H, b.U_kick, t, n)}),
    "continuous": Mechanism(
        "K",
        series=lambda b, psi0, t, k, samples: engines.evolve_continuous(
            psi0, b.H, b.H_c, k, t, samples),
        curve=lambda b, psi0, t, ks: analysis.convergence_curve(b, t, ks),
        propagators=lambda b, t, k: {
            "": engines.continuous_propagator(b.H, b.H_c, k, t)}),
    "zeno-limit": Mechanism(
        None,
        series=lambda b, psi0, t, _, samples: engines.evolve_zeno_limit(
            np.outer(psi0, psi0.conj()), b.H, b.resolution(), t, samples),
        propagators=lambda b, t, _: {
            **{f"_sector{i + 1}": v for i, v in
               enumerate(engines.zeno_propagators(b.H, b.resolution(), t))},
            "": propagator(b.zeno_hamiltonian(), t)}),
    "decay-sweep": Mechanism("K", survival=lambda cfg: analysis.decay_protection_sweep(
        k_values=cfg.values, t=cfg.t, **cfg.model_parameters)),
}

_BASIS_LABELS = {3: ("a", "b", "c"), 4: ("a", "b", "c", "M")}


# model name -> builder; a model's mechanism and dimension are those of the bundle its
# builder returns at its defaults, and its parameters are the builder's (model_defaults)
MODEL_REGISTRY: dict[str, Callable[..., ModelBundle]] = {
    "three-level-projective": three_level_projective,
    "four-level-kicked": four_level_kicked,
    "four-level-continuous": four_level_continuous,
    "simplified-kicked": simplified_kicked,
    "simplified-continuous": simplified_continuous,
    "decay": decay_model,
}


def model_defaults(build: Callable[..., ModelBundle]) -> dict:
    """A builder's keyword defaults; a run takes ``coupling`` from schedule.K."""
    params = inspect.signature(build).parameters
    return {key: p.default for key, p in params.items() if key != "coupling"}


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
    initial_state: tuple[complex, ...] | None  # amplitudes; None only for decay-sweep
    outputs: tuple[str, ...]
    output_path: str

    def build_bundle(self):
        return MODEL_REGISTRY[self.model_name](**self.model_parameters)

    def resolve_initial_state(self) -> np.ndarray:
        """Amplitude vector to start from, as validation resolved it."""
        return np.asarray(self.initial_state, dtype=complex)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_unknown_keys(obj: dict, allowed: tuple[str, ...], path: str, err: list):
    err.extend((f"{path}.{key}" if path else key, "unknown key")
               for key in obj if key not in allowed)


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


def _validate_model(doc, err: list) -> tuple[str | None, dict]:
    model = doc.get("model")
    if not isinstance(model, dict):
        err.append(("model", "required object with keys name, parameters"))
        return None, {}
    _check_unknown_keys(model, ("name", "parameters"), "model", err)
    name = model.get("name")
    if not isinstance(name, str) or name not in MODEL_REGISTRY:
        err.append(("model.name", f"must be one of {sorted(MODEL_REGISTRY)}"))
        return None, {}
    params = model_defaults(MODEL_REGISTRY[name])
    raw = model.get("parameters", {})
    if not isinstance(raw, dict):
        err.append(("model.parameters", "must be an object"))
    else:
        for key, value in raw.items():
            if key not in params:
                err.append((f"model.parameters.{key}",
                            f"unknown parameter; {name} takes {sorted(params)}"))
            elif not _is_number(value):
                err.append((f"model.parameters.{key}", "must be a finite number"))
            else:
                params[key] = float(value)
    return name, params


def _validate_schedule(doc, mechanism, err: list):
    t, values, samples = None, None, 50
    sched = doc.get("schedule")
    if not isinstance(sched, dict):
        err.append(("schedule", "required object with key t (and N or K)"))
        return t, values, samples
    _check_unknown_keys(sched, ("t", "N", "K", "samples"), "schedule", err)

    raw_t = sched.get("t")
    if not _is_number(raw_t) or raw_t <= 0:
        err.append(("schedule.t", "must be a positive number"))
    else:
        t = float(raw_t)

    if "samples" in sched:
        raw_s = sched["samples"]
        if not _is_int(raw_s) or raw_s < 2:
            err.append(("schedule.samples", "must be an integer >= 2"))
        else:
            samples = raw_s

    swept = {}
    for key, cast, ok, what in (
            ("N", int, lambda v: _is_int(v) and 1 <= v < 2**63,
             "a positive integer below 2**63"),
            ("K", float, lambda v: _is_number(v) and v >= 0, "a number >= 0")):
        if key not in sched:
            continue
        vals = sched[key] if isinstance(sched[key], list) else [sched[key]]
        if not vals or not all(ok(v) for v in vals):
            err.append((f"schedule.{key}", f"must be {what} or list of them"))
        elif any(b <= a for a, b in zip(vals, vals[1:])):
            err.append((f"schedule.{key}", "list must be strictly increasing"))
        else:
            swept[key] = tuple(cast(v) for v in vals)

    if mechanism is not None:
        key = MECHANISMS[mechanism].key
        if key is not None and key not in sched:
            err.append((f"schedule.{key}", f"required for mechanism {mechanism}"))
        for other in ("N", "K"):
            if other != key and other in sched:
                err.append((f"schedule.{other}",
                            f"not applicable to mechanism {mechanism}"))
        values = swept.get(key)
    return t, values, samples


def _validate_initial_state(doc, dim, mechanism, err: list):
    if "initial_state" not in doc:
        if dim is None or mechanism == "decay-sweep":
            return None  # decay-sweep starts from |b>; an unknown model is reported
        psi = np.zeros(dim, dtype=complex)
        psi[1] = psi[2] = 1.0 / np.sqrt(2.0)  # the default (|b> + |c>)/sqrt(2)
        return tuple(psi)
    if mechanism == "decay-sweep":
        err.append(("initial_state", "decay-sweep always starts from |b>"))
        return None
    raw = doc["initial_state"]
    if isinstance(raw, str):
        if dim is None:
            return None  # labels depend on the model, which is reported
        labels = _BASIS_LABELS.get(dim, ())
        matches = [i for i, lab in enumerate(labels) if lab.lower() == raw.lower()]
        if not matches:
            err.append(("initial_state", f"unknown basis label {raw!r}; "
                                         f"expected one of {list(labels)}"))
            return None
        psi = np.zeros(dim, dtype=complex)
        psi[matches[0]] = 1.0
        return tuple(psi)
    if isinstance(raw, list):
        ok = ((dim is None or len(raw) == dim)
              and all(isinstance(entry, list) and len(entry) == 2
                      and all(_is_number(x) for x in entry) for entry in raw))
        if not ok:
            err.append(("initial_state", "must be a basis label or a list of "
                                         + (f"{dim} " if dim else "") + "[re, im] pairs"))
            return None
        psi = np.array([complex(re, im) for re, im in raw])
        try:
            check_state_vector(psi)
        except InvalidState:
            err.append(("initial_state", f"must be normalized; got norm "
                                         f"{np.linalg.norm(psi):.12g}"))
            return None
        return tuple(psi)
    err.append(("initial_state", "must be a basis label string or amplitude list"))
    return None


def _validate_outputs(doc, mechanism, values, err: list):
    raw = doc.get("outputs")
    if not isinstance(raw, list) or not raw:
        err.append(("outputs", "required non-empty list"))
        return ()
    outputs = []
    for i, item in enumerate(raw):
        if item not in OUTPUT_KINDS:
            err.append((f"outputs[{i}]", f"must be one of {list(OUTPUT_KINDS)}"))
        elif item in outputs:
            err.append((f"outputs[{i}]", f"duplicate output {item!r}"))
        else:
            outputs.append(item)
    if mechanism is not None:
        allowed = MECHANISMS[mechanism].outputs
        for kind in outputs:
            if kind not in allowed:
                err.append(("outputs", f"{kind} not available for mechanism "
                                       f"{mechanism}; it produces {list(allowed)}"))
            elif kind == "convergence" and values is not None and len(values) < 3:
                err.append(("outputs", "convergence needs at least 3 schedule values"))
    return tuple(outputs)


def validate_document(doc: dict) -> ScenarioConfig:
    """Validate a parsed document against the schema; all errors at once."""
    err: list[tuple[str, str]] = []
    _check_unknown_keys(doc, ("name", "model", "mechanism", "schedule",
                              "initial_state", "outputs", "output"), "", err)

    model_name, params = _validate_model(doc, err)
    # mechanism and dim come from the default build: bad parameters fail in run (exit 3)
    default = MODEL_REGISTRY[model_name]() if model_name is not None else None

    mechanism = doc.get("mechanism")
    if not isinstance(mechanism, str) or mechanism not in MECHANISMS:
        err.append(("mechanism", f"must be one of {list(MECHANISMS)}"))
        mechanism = None

    if default is not None and mechanism is not None:
        if mechanism == "decay-sweep":
            if model_name != "decay":
                err.append(("mechanism", "decay-sweep requires the decay model"))
        elif model_name == "decay":
            err.append(("mechanism", "the decay model only runs under decay-sweep"))
        elif mechanism not in ("zeno-limit", default.mechanism):  # zeno-limit: any model
            err.append(("mechanism",
                        f"model {model_name} carries a {default.mechanism} payload, "
                        f"not {mechanism}"))

    t, values, samples = _validate_schedule(doc, mechanism, err)
    initial_state = _validate_initial_state(doc, getattr(default, "dim", None), mechanism, err)
    outputs = _validate_outputs(doc, mechanism, values, err)

    name = doc.get("name", model_name or "scenario")
    if not isinstance(name, str) or not name:
        err.append(("name", "must be a non-empty string"))
        name = "scenario"

    output_path = name
    out = doc.get("output")
    if out is not None:
        if not isinstance(out, dict):
            err.append(("output", "must be an object with key path"))
        else:
            _check_unknown_keys(out, ("path",), "output", err)
            raw_path = out.get("path", name)
            if not isinstance(raw_path, str) or not raw_path:
                err.append(("output.path", "must be a non-empty string"))
            else:
                output_path = raw_path

    if err:
        raise SchemaViolation(err)
    return ScenarioConfig(
        name=name, model_name=model_name, model_parameters=params,
        mechanism=mechanism, t=t, values=values, samples=samples,
        initial_state=initial_state, outputs=outputs, output_path=output_path)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document from raw text."""
    return validate_document(load_document(text))
