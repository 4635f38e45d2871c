"""Command-line front end: run scenario files, validate them, list models.

Subcommands:
    zenosim run <config.json> [--output-dir DIR] [--set key.path=value] [--quiet]
    zenosim validate <config.json> [--set key.path=value]
    zenosim list-models

Exit codes: 0 success, 2 schema error, 3 numeric failure, 4 I/O error.

Output formats are part of the stable contract: CSV series with a header row
and floats printed to 17 significant digits (lossless double round-trip),
and matrix dumps with a "dim N" header followed by N rows of N
space-separated "re,im" pairs.  Identical config and version produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    convergence_curve,
    decay_protection_sweep,
    observables,
    projective_convergence_curve,
)
from .config import (
    MODEL_REGISTRY,
    SERIES_OUTPUTS,
    ScenarioConfig,
    apply_overrides,
    load_document,
    validate_document,
)
from .engines import (
    continuous_propagator,
    evolve_continuous,
    evolve_kicked,
    evolve_projective,
    evolve_zeno_limit,
    kicked_propagator,
    zeno_propagators,
)
from .errors import InvalidParameter, SchemaViolation, ZenosimError
from .linalg import propagator

__all__ = ["run_scenario", "main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _matrix_lines(m: np.ndarray) -> list[str]:
    lines = [f"dim {m.shape[0]}"]
    for row in m:
        lines.append(" ".join(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in row))
    return lines


def _series_lines(record, res, outputs, stepped: bool) -> list[str]:
    obs = observables(record, res)
    header = ["step" if stepped else "t"]
    if "probabilities" in outputs:
        header += [f"p_{n + 1}" for n in range(res.nsectors)]
    if "purity" in outputs:
        header.append("purity")
    if "coherence" in outputs:
        header += [f"coh_{n + 1}_{m + 1}" for (n, m) in sorted(obs.coherence_blocks)]
    lines = [",".join(header)]
    for i, x in enumerate(record.times_or_steps):
        row = [str(int(x)) if stepped else _fmt(x)]
        if "probabilities" in outputs:
            row += [_fmt(p) for p in obs.subspace_probabilities[i]]
        if "purity" in outputs:
            row.append(_fmt(obs.purity[i]))
        if "coherence" in outputs:
            row += [_fmt(obs.coherence_blocks[key][i])
                    for key in sorted(obs.coherence_blocks)]
        lines.append(",".join(row))
    return lines


def _curve_lines(curve) -> list[str]:
    lines = [f"{curve.parameter_name},distance"]
    for p, d in zip(curve.parameter_values, curve.distances):
        first = str(int(p)) if curve.parameter_name == "N" else _fmt(p)
        lines.append(f"{first},{_fmt(d)}")
    return lines


def run_scenario(config: ScenarioConfig, output_dir: str | Path = ".",
                 quiet: bool = False) -> list[Path]:
    """Run one validated scenario; compute everything, then write the files.

    Returns the list of written paths.  All numeric work happens before the
    first write, so a numeric failure leaves no partial output behind.
    """
    base = config.output_path
    mech = config.mechanism
    values = config.values  # swept N or K; None for zeno-limit
    notes: list[str] = []
    files: dict[str, list[str]] = {}

    if mech == "decay-sweep":
        result = decay_protection_sweep(k_values=list(values), t=config.t,
                                        **config.model_parameters)
        lines = ["K,survival"]
        lines += [f"{_fmt(k)},{_fmt(s)}" for k, s in result.points]
        files[f"{base}_survival.csv"] = lines
        if result.protective_coupling is None:
            notes.append(f"no K in the sweep reaches survival >= {result.threshold}")
        else:
            notes.append(f"smallest K with survival >= {result.threshold}: "
                         f"{_fmt(result.protective_coupling)}")
    else:
        bundle = config.build_bundle()
        res = bundle.resolution()
        psi0 = config.resolve_initial_state()
        rho0 = np.outer(psi0, psi0.conj())
        series_outputs = [k for k in config.outputs if k in SERIES_OUTPUTS]

        if series_outputs:
            if mech == "projective":
                record = evolve_projective(rho0, bundle.H, res, config.t,
                                           values[-1], config.samples)
            elif mech == "kicked":
                record = evolve_kicked(psi0, bundle.H, bundle.U_kick, config.t,
                                       values[-1], config.samples)
            elif mech == "continuous":
                record = evolve_continuous(psi0, bundle.H, bundle.H_c,
                                           values[-1], config.t, config.samples)
            else:
                record = evolve_zeno_limit(rho0, bundle.H, res, config.t,
                                           config.samples)
            files[f"{base}_series.csv"] = _series_lines(
                record, res, series_outputs, stepped=(mech == "kicked"))

        if "convergence" in config.outputs:
            if mech == "projective":
                curve = projective_convergence_curve(
                    bundle, rho0, config.t, list(values))
            else:
                curve = convergence_curve(bundle, config.t, list(values))
            files[f"{base}_convergence.csv"] = _curve_lines(curve)
            if curve.exact:
                notes.append("convergence: exact (distances at roundoff)")
            else:
                notes.append(f"convergence: fitted rate {curve.fitted_rate:.4f}, "
                             f"mean factor per doubling "
                             f"{curve.doubling_factor:.4f}")

        if "propagator" in config.outputs:
            if mech == "kicked":
                u = kicked_propagator(bundle.H, bundle.U_kick, config.t,
                                      values[-1])
            elif mech == "continuous":
                u = continuous_propagator(bundle.H, bundle.H_c, values[-1],
                                          config.t)
            elif mech == "zeno-limit":
                u = propagator(bundle.zeno_hamiltonian(), config.t)
                for i, v in enumerate(zeno_propagators(bundle.H, res, config.t)):
                    files[f"{base}_sector{i + 1}_propagator.txt"] = _matrix_lines(v)
            else:
                raise InvalidParameter(f"mechanism {mech!r} has no propagator output")
            files[f"{base}_propagator.txt"] = _matrix_lines(u)

    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fname, lines in files.items():
        path = out_dir / fname
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)
    if not quiet:
        for note in notes:
            print(note)
        for path in written:
            print(f"wrote {path}")
    return written


def _load_config(args) -> ScenarioConfig:
    """Read the config file as UTF-8, apply --set overrides, validate."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaViolation([("$", f"not UTF-8 text: {exc}")]) from None
    return validate_document(apply_overrides(load_document(text), args.set or []))


def _cmd_run(args) -> int:
    config = _load_config(args)
    run_scenario(config, output_dir=args.output_dir, quiet=args.quiet)
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    if not args.quiet:
        print(f"OK: {config.name} ({config.mechanism} on {config.model_name})")
    return 0


def _cmd_list_models(args) -> int:
    for name in sorted(MODEL_REGISTRY):
        spec = MODEL_REGISTRY[name]
        params = " ".join(f"{k}={v:g}" for k, v in sorted(spec.defaults.items()))
        print(f"{name:24s} {spec.mechanism:11s} dim {spec.dim}  {params}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Quantum Zeno dynamics: measurements, kicks, "
                    "continuous coupling, and their common limit.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config and write outputs")
    run.add_argument("config", help="path to a scenario JSON file")
    run.add_argument("--output-dir", default=".", help="directory for output files")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config entry (dotted path, JSON value)")
    run.add_argument("--quiet", action="store_true", help="suppress progress notes")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="check a scenario config against the schema")
    val.add_argument("config", help="path to a scenario JSON file")
    val.add_argument("--set", action="append", metavar="KEY=VALUE")
    val.add_argument("--quiet", action="store_true")
    val.set_defaults(func=_cmd_validate)

    lst = sub.add_parser("list-models", help="list available models and parameters")
    lst.set_defaults(func=_cmd_list_models)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaViolation as exc:
        for path, reason in exc.violations:
            print(f"schema error at {path}: {reason}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ZenosimError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
