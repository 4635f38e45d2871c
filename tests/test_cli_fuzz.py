"""The CLI boundary, fuzzed: every scenario inside the schema has one of three outcomes.

1. ``zenosim validate`` refuses it (exit 2);
2. ``zenosim run`` refuses it (exit 3, no file) with a ZenosimError that none of the
   checks ``validate`` ran raised, so it names a computed quantity;
3. ``zenosim run`` succeeds (exit 0) and writes only finite numbers, with each p_n and
   survival in [0, 1], sum p_n <= 1 and purity <= 1, each up to TOL: the 1e-9 by which
   the engines let a normalised state's squared norm miss 1.

Documents use every shipped model under each mechanism it allows.  Each real and
imaginary amplitude of an initial state is 0 or of either sign with any float
magnitude, subnormals and the largest float included.  Each model parameter takes
those values too, but is mostly non-zero and mostly of magnitude in [1e-3, 1e3], so
most models build; t is mostly positive and each K mostly 0 or positive, both mostly
log-uniform inside the magnitude domain [2**-128, 2**128], else of any magnitude, so
about half the documents reach the run.  Half of them name an initial state (not
decay-sweep, which starts from |b>), as a basis label, an amplitude list, or an
amplitude list scaled to norm 1.  N is in [1, 2**63), with at most 64 samples and any
non-empty subset of the mechanism's outputs.
``cli.main`` runs in process; a numpy RuntimeWarning fails the test (pyproject).
"""

import io
import json
import math
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zenosim import analysis, engines, models
from zenosim.cli import main
from zenosim.config import MECHANISMS, MODEL_REGISTRY, SERIES_OUTPUTS, model_defaults
from zenosim.errors import ZenosimError
from zenosim.linalg import TRACE_TOL

TOL = 10 * TRACE_TOL

# the run's checks that validate also runs, under the names the package calls them by
CHECKS = ("_check_positive_t", "_check_counts", "_check_coupling", "_check_samples",
          "_increasing", "_sweep_values")

MODEL_MECHANISMS = {name: ("decay-sweep",) if name == "decay" else
                    (build().mechanism, "zeno-limit") for name, build in MODEL_REGISTRY.items()}
# evolve_projective still takes one step per measurement (O(N) per series), so a
# projective series caps N; the projective curve is O(log N) and draws the full range
PROJECTIVE_SERIES_MAX_N = 2**12


def log_uniform(lo: float, hi: float):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


# m 2**e over [5e-324, 1.7976931348623157e308], log-uniform in base 2; ldexp of a
# mantissa below 1 never overflows, as 10.0 ** log10(max) does
MAGNITUDE = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                      st.integers(-1073, 1024))
# the magnitude domain [2**-128, 2**128), where t, K and the model parameters pass
DOMAIN = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                   st.integers(-127, 128))


def mostly(usual, rest):
    """``usual`` in about 15 draws of 16, else ``rest``: a document takes up to about ten
    such draws, and one ``rest`` draw mostly refuses it.  Hypothesis draws the branches
    of a one_of about equally often, so ``usual | rest`` would give rest half."""
    return st.sampled_from([usual] * 15 + [rest]).flatmap(lambda s: s)


# an amplitude: 0, or either sign at any magnitude a float reaches
SIGNED = st.just(0.0) | st.tuples(st.sampled_from([-1.0, 1.0]),
                                   MAGNITUDE).map(lambda p: p[0] * p[1])
# a model parameter: mostly non-zero of either sign and of magnitude in [1e-3, 1e3];
# a 0 or a tiny magnitude mostly merges two levels or phases, refused at validate
PARAMETER = st.tuples(st.sampled_from([1.0, -1.0, 1.0, -1.0, 0.0]),
                      mostly(log_uniform(1e-3, 1e3), MAGNITUDE)).map(lambda p: p[0] * p[1])
# t: mostly positive inside the domain, else 0 or of either sign at any magnitude
T = mostly(DOMAIN, SIGNED)
# a coupling K: 0, or mostly positive inside the domain, else of any magnitude
K = st.just(0.0) | mostly(DOMAIN, MAGNITUDE)


def unit_amplitudes(dim: int):
    """``dim`` [re, im] pairs of SIGNED values scaled to norm 1 (|a> if all are 0):
    divided by the largest magnitude, then by the norm of those quotients, so no step
    overflows and the state passes the run's normalisation check."""
    def unit(xs):
        xs = [x / max(map(abs, xs)) for x in xs] if any(xs) else [1.0, *xs[1:]]
        n = math.hypot(*xs)
        return [[re / n, im / n] for re, im in zip(xs[::2], xs[1::2])]
    return st.lists(SIGNED, min_size=2 * dim, max_size=2 * dim).map(unit)


def sweep(values):
    return st.lists(values, min_size=1, max_size=5, unique=True).map(sorted)


@st.composite
def documents(draw):
    model = draw(st.sampled_from(sorted(MODEL_MECHANISMS)))
    mechanism = draw(st.sampled_from(MODEL_MECHANISMS[model]))
    mech = MECHANISMS[mechanism]
    parameters = {name: draw(PARAMETER) for name in model_defaults(MODEL_REGISTRY[model])}
    outputs = draw(st.lists(st.sampled_from(mech.outputs), min_size=1, unique=True))
    schedule = {"t": draw(T), "samples": draw(st.integers(2, 64))}
    if mech.key == "N":
        series = mechanism == "projective" and set(outputs) & set(SERIES_OUTPUTS)
        schedule["N"] = draw(sweep(st.integers(
            1, PROJECTIVE_SERIES_MAX_N if series else 2**63 - 1)))
    elif mech.key == "K":
        schedule["K"] = draw(sweep(K))
    doc = {"name": "fuzz", "model": {"name": model, "parameters": parameters},
           "mechanism": mechanism, "schedule": schedule, "outputs": outputs}
    if mechanism != "decay-sweep" and draw(st.booleans()):
        dim = MODEL_REGISTRY[model]().dim
        doc["initial_state"] = draw(st.sampled_from("abcM"[:dim])
                                    | st.lists(st.lists(SIGNED, min_size=2, max_size=2),
                                               min_size=dim, max_size=dim)
                                    | unit_amplitudes(dim))
    return doc


@pytest.fixture
def refusals(monkeypatch):
    """Names of the checks that refused something since the list was last cleared."""
    seen = []
    for module in (engines, analysis, models):
        for name in CHECKS:
            if hasattr(module, name):
                def check(*args, _check=getattr(module, name), _name=name, **kwargs):
                    try:
                        return _check(*args, **kwargs)
                    except ZenosimError:
                        seen.append(_name)
                        raise
                monkeypatch.setattr(module, name, check)
    return seen


def written_rows(path):
    """The header and the float rows of a written series, curve or matrix file."""
    lines = path.read_text().splitlines()
    if path.suffix == ".txt":  # "dim d", then d rows of d "re,im" pairs
        return [], np.array([[float(x) for pair in line.split() for x in pair.split(",")]
                             for line in lines[1:]])
    return lines[0].split(","), np.array([[float(x) for x in line.split(",")]
                                          for line in lines[1:]])


def check_written(out):
    for path in out.iterdir():
        header, rows = written_rows(path)
        assert np.isfinite(rows).all(), path.name
        column = {name: rows[:, j] for j, name in enumerate(header)}
        probs = [column[name] for name in header if name.startswith("p_")]
        for p in probs + [column.get("survival", 0.0)]:
            assert np.all(-TOL <= p) and np.all(p <= 1 + TOL), path.name
        assert np.all(sum(probs) <= 1 + TOL) and np.all(column.get("purity", 0.0) <= 1 + TOL)


@settings(max_examples=800, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents())
def test_every_scenario_is_refused_or_written_right(tmp_path, refusals, doc):
    config, out = tmp_path / "fuzz.json", tmp_path / "out"
    config.write_text(json.dumps(doc))
    shutil.rmtree(out, ignore_errors=True)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(["validate", str(config)])
        if code == 2:
            return
        assert code == 0, err.getvalue()
        refusals.clear()
        code = main(["run", str(config), "--output-dir", str(out), "--quiet"])
    assert refusals == [], err.getvalue()  # no check validate ran refuses the run
    if code == 3:
        assert err.getvalue().startswith("numeric error: ") and not out.exists()
        return
    assert code == 0, err.getvalue()
    check_written(out)
