"""Span tracing of zenosim's layers, installed from outside the package.

A Tracer wraps every public function of each layer module (and the public
methods of the classes those modules export) at every place the package
binds it: the defining module and every other ``zenosim`` module that
imported it by name, such as ``engines`` binding ``propagator`` and
``pinch``.  Each call records one span (label, parent span, start, end) in
flat arrays kept in memory; ``dump`` writes them out, ``summarize`` derives
per-label call counts, inclusive time and self time.  ``restore`` puts every
original function back.

Work counts that time alone cannot give (steps, samples, trace
corrections) are taken at the same boundaries from the call's arguments and
result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("linalg", "spectral", "models", "engines", "analysis", "config", "cli")

# engines that advance one kick or measurement at a time in a Python loop
STEP_LOOP = ("evolve_projective", "evolve_kicked")
# engines whose cost is quoted per kick or measurement step N
PER_STEP = STEP_LOOP + ("kicked_propagator", "extracted_kick_limit",
                        "projective_survival")
# engines whose cost is quoted per recorded time sample
PER_SAMPLE = ("evolve_continuous", "evolve_zeno_limit")


class Tracer:
    """Records spans for calls into zenosim while installed."""

    def __init__(self):
        self.labels: list[str] = []
        self.parent = array("q")
        self.label = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"zenosim.{layer}")
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != "zenosim" and not modname.startswith("zenosim."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, value, entry[1])

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(raw):
                self._patch(cls, attr, raw, self._wrap(raw, f"{prefix}.{attr}"))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, f"{prefix}.{attr}"))
                self._patch(cls, attr, raw, wrapped)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, label: str):
        label_id = len(self.labels)
        self.labels.append(label)
        parent, labels, start, end = self.parent, self.label, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        count = _counter(fn, label, self.counts)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start)
            parent.append(stack[-1])
            labels.append(label_id)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__zenosim_traced__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans and counts to an .npz file."""
        import numpy as np
        np.savez(path, labels=np.array(self.labels, dtype=str),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 label=np.frombuffer(self.label, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 counts=np.array(json.dumps(self.counts)))

    def summarize(self) -> dict:
        import numpy as np
        return summarize(self.labels,
                         np.frombuffer(self.parent, dtype=np.int64),
                         np.frombuffer(self.label, dtype=np.int64),
                         np.frombuffer(self.start, dtype=np.float64),
                         np.frombuffer(self.end, dtype=np.float64),
                         self.counts)


def _counter(fn, label: str, counts: dict):
    """Work counter for one traced function, or None if it has none."""
    layer, _, name = label.partition(".")

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    if label == "analysis.observables":
        return lambda args, kwargs, result: add("analysis.samples",
                                                len(result.times))
    if layer != "engines" or name not in PER_STEP + PER_SAMPLE:
        return None
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        if name in PER_STEP:
            n = int(signature.bind(*args, **kwargs).arguments["n"])
            add(f"{label}.steps", n)
            if name in STEP_LOOP:
                add("engines.steps", n)
        states = getattr(result, "states", None)
        if states is not None:
            add(f"{label}.samples", len(states))
            add("engines.samples", len(states))
            add("engines.trace_corrections", len(result.trace_corrections))

    return count


def summarize(labels, parent, label, start, end, counts) -> dict:
    """Per-label [calls, inclusive seconds, self seconds], plus the counts.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    import numpy as np
    duration = end - start
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested],
                           minlength=len(duration))
    own = duration - children
    n = len(labels)
    calls = np.bincount(label, minlength=n)
    total = np.bincount(label, weights=duration, minlength=n)
    self_s = np.bincount(label, weights=own, minlength=n)
    per_label: dict[str, list[float]] = {}
    for i, name in enumerate(labels):
        if calls[i]:
            row = per_label.setdefault(str(name), [0, 0.0, 0.0])
            row[0] += int(calls[i])
            row[1] += float(total[i])
            row[2] += float(self_s[i])
    return {"labels": per_label, "counts": dict(counts)}


def load_summary(path) -> dict:
    import numpy as np
    with np.load(path) as data:
        return summarize([str(x) for x in data["labels"]], data["parent"],
                         data["label"], data["start"], data["end"],
                         json.loads(str(data["counts"])))


def merge(summaries) -> dict:
    out = {"labels": {}, "counts": {}}
    for s in summaries:
        for name, (calls, total, own) in s["labels"].items():
            row = out["labels"].setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        for key, value in s["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer totals and rates from a (merged) summary."""
    labels, counts = summary["labels"], summary["counts"]

    def rows(prefix):
        return [row for name, row in labels.items() if name.startswith(prefix)]

    def per_million(seconds, work):
        return 1e6 * seconds / work if work else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = rows(layer + ".")
        out[f"{layer}.calls"] = sum(r[0] for r in mine)
        out[f"{layer}.self_s"] = sum(r[2] for r in mine)

    def calls(name):
        return labels.get(name, [0, 0.0, 0.0])[0]

    def inclusive(name):
        return labels.get(name, [0, 0.0, 0.0])[1]

    out["spectral.pinch.calls"] = calls("spectral.pinch")
    out["linalg.expm.calls"] = calls("linalg.expm")
    out["linalg.propagator.calls"] = calls("linalg.propagator")
    out["engines.steps"] = counts.get("engines.steps", 0)
    out["engines.us_per_step"] = per_million(
        sum(inclusive(f"engines.{fn}") for fn in STEP_LOOP), out["engines.steps"])
    out["engines.samples"] = counts.get("engines.samples", 0)
    out["engines.trace_corrections"] = counts.get("engines.trace_corrections", 0)
    for fn in PER_STEP:
        out[f"engines.{fn}.us_per_step"] = per_million(
            inclusive(f"engines.{fn}"), counts.get(f"engines.{fn}.steps", 0))
    for fn in PER_SAMPLE:
        out[f"engines.{fn}.us_per_sample"] = per_million(
            inclusive(f"engines.{fn}"), counts.get(f"engines.{fn}.samples", 0))
    samples = counts.get("analysis.samples", 0)
    out["analysis.samples"] = samples
    out["analysis.us_per_sample"] = per_million(out["analysis.self_s"], samples)
    out["analysis.observables.us_per_sample"] = per_million(
        inclusive("analysis.observables"), samples)
    return out
