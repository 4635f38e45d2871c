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
is reported with its dotted path, all at once, via SchemaViolation.  The schema
checks keys, JSON types, labels and outputs; each numeric fact goes to the check
the run calls: t, N, K, samples and the sweep to the engines' checkers, and the
parameters to the model's builder, whose bundle gives the mechanism and dimension.
"""

from __future__ import annotations

import inspect
import json
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import analysis, engines, models
from .errors import SchemaViolation, ZenosimError
from .linalg import _is_real, check_state_vector, propagator

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
            np.outer(psi0, psi0.conj()), b.H, b.resolution(), t, n, samples),
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


# model name -> builder; a scenario's mechanism and dimension are those of the bundle the
# builder returns for its parameters, which are the builder's (model_defaults)
MODEL_REGISTRY: dict[str, Callable[..., models.ModelBundle]] = {
    "three-level-projective": models.three_level_projective,
    "four-level-kicked": models.four_level_kicked,
    "four-level-continuous": models.four_level_continuous,
    "simplified-kicked": models.simplified_kicked,
    "simplified-continuous": models.simplified_continuous,
    "decay": models.decay_model,
}


def model_defaults(build: Callable[..., models.ModelBundle]) -> dict:
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


def _number(x) -> float | None:
    """A JSON number (not a bool) as a float, ±inf past the float range; else None."""
    if not _is_real(x):
        return None
    try:
        return float(x)
    except OverflowError:
        return np.inf if x > 0 else -np.inf


def _checked(err: list, path: str, check: Callable, *args, **kwargs):
    """What one of the run's own checks returns; None where it refuses, reported at path."""
    try:
        return check(*args, **kwargs)
    except ZenosimError as exc:
        err.append((path, str(exc)))


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


def _validate_model(doc, err: list) -> tuple[str | None, dict, models.ModelBundle | None]:
    model = doc.get("model")
    if not isinstance(model, dict):
        err.append(("model", "required object with keys name, parameters"))
        return None, {}, None
    _check_unknown_keys(model, ("name", "parameters"), "model", err)
    name = model.get("name")
    if not isinstance(name, str) or name not in MODEL_REGISTRY:
        err.append(("model.name", f"must be one of {sorted(MODEL_REGISTRY)}"))
        return None, {}, None
    params = model_defaults(MODEL_REGISTRY[name])
    raw, found = model.get("parameters", {}), len(err)
    if not isinstance(raw, dict):
        err.append(("model.parameters", "must be an object"))
    else:
        for key, value in raw.items():
            if key not in params:
                err.append((f"model.parameters.{key}",
                            f"unknown parameter; {name} takes {sorted(params)}"))
            elif (x := _number(value)) is None:
                err.append((f"model.parameters.{key}", "must be a number"))
            else:
                params[key] = x
    # the configured build: the builder checks finite values and distinct sectors
    return name, params, None if len(err) > found else _checked(
        err, "model.parameters", MODEL_REGISTRY[name], **params)


def _validate_schedule(doc, mechanism, err: list):
    sched = doc.get("schedule")
    if not isinstance(sched, dict):
        err.append(("schedule", "required object with key t (and N or K)"))
        return None, None, None
    _check_unknown_keys(sched, ("t", "N", "K", "samples"), "schedule", err)
    if (t := _number(sched.get("t"))) is None:
        err.append(("schedule.t", "must be a number"))
    else:
        t = _checked(err, "schedule.t", engines._check_positive_t, t)
    samples = _checked(err, "schedule.samples", engines._check_samples,
                       sched.get("samples", 50))
    if mechanism is None:
        return t, None, samples
    key, values = MECHANISMS[mechanism].key, None
    err.extend((f"schedule.{other}", f"not applicable to mechanism {mechanism}")
               for other in ("N", "K") if other != key and other in sched)
    if key is not None and key not in sched:
        err.append((f"schedule.{key}", f"required for mechanism {mechanism}"))
    elif key is not None:  # each value's range is its engine check's, then the order
        as_value, check = {
            "N": (lambda v: v if isinstance(v, int) and _number(v) is not None else None,
                  engines._check_counts),
            "K": (_number, engines._check_coupling)}[key]
        path, raw = f"schedule.{key}", sched[key]
        vals = [as_value(v) for v in (raw if isinstance(raw, list) else [raw])]
        if None in vals:
            err.append((path, "must be a number or a list of them, integers for N"))
        elif _checked(err, path, check, vals) is not None and _checked(
                err, path, engines._increasing, vals, f"{path} values") is not None:
            values = tuple(vals)
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
        return tuple(np.eye(dim, dtype=complex)[matches[0]])
    if isinstance(raw, list):
        ok = ((dim is None or len(raw) == dim)
              and all(isinstance(entry, list) and len(entry) == 2
                      and all(_number(x) is not None for x in entry) for entry in raw))
        if not ok:
            err.append(("initial_state", "must be a basis label or a list of "
                                         + (f"{dim} " if dim else "") + "[re, im] pairs"))
            return None
        psi = np.array([complex(_number(re), _number(im)) for re, im in raw])
        return _checked(err, "initial_state", lambda: tuple(check_state_vector(psi)))
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
            elif kind == "convergence" and values is not None:
                _checked(err, "outputs", analysis._sweep_values, values)  # the curve's own
    return tuple(outputs)


def validate_document(doc: dict) -> ScenarioConfig:
    """Validate a parsed document against the schema; all errors at once."""
    err: list[tuple[str, str]] = []
    _check_unknown_keys(doc, ("name", "model", "mechanism", "schedule",
                              "initial_state", "outputs", "output"), "", err)

    model_name, params, bundle = _validate_model(doc, err)  # the configured build

    mechanism = doc.get("mechanism")
    if not isinstance(mechanism, str) or mechanism not in MECHANISMS:
        err.append(("mechanism", f"must be one of {list(MECHANISMS)}"))
        mechanism = None

    if bundle is not None and mechanism is not None:  # zeno-limit takes all but decay
        allowed = (("decay-sweep",) if model_name == "decay"
                   else ("zeno-limit", bundle.mechanism))
        if mechanism not in allowed:
            err.append(("mechanism", f"model {model_name} runs under "
                                     f"{' or '.join(allowed)}, not {mechanism}"))

    t, values, samples = _validate_schedule(doc, mechanism, err)
    if (None not in (t, values) and MECHANISMS[mechanism].key == "K"
            and getattr(bundle, "H_c", None) is not None):  # the run's H + K H_c bound
        _checked(err, "schedule.K", engines._continuous_generator, bundle.H, bundle.H_c, values, t)
    initial_state = _validate_initial_state(doc, getattr(bundle, "dim", None), mechanism, err)
    outputs = _validate_outputs(doc, mechanism, values, err)

    name = doc.get("name", model_name or "scenario")
    if not isinstance(name, str) or not name:
        err.append(("name", "must be a non-empty string"))
        name = "scenario"

    out = {} if doc.get("output") is None else doc["output"]
    if not isinstance(out, dict):
        err.append(("output", "must be an object with key path"))
        out = {}
    _check_unknown_keys(out, ("path",), "output", err)
    output_path = out.get("path", name)
    if not isinstance(output_path, str) or not output_path:
        err.append(("output.path", "must be a non-empty string"))

    if err:
        raise SchemaViolation(err)
    return ScenarioConfig(
        name=name, model_name=model_name, model_parameters=params,
        mechanism=mechanism, t=t, values=values, samples=samples,
        initial_state=initial_state, outputs=outputs, output_path=output_path)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document from raw text."""
    return validate_document(load_document(text))
