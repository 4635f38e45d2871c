"""Command-line front end: run scenario files, validate them, list models.

Subcommands:
    zenosim run <config.json> [--output-dir DIR] [--set key.path=value] [--quiet]
    zenosim validate <config.json> [--set key.path=value]
    zenosim list-models

Exit codes: 0 success, 2 schema error, 3 numeric failure, 4 I/O error.

Output formats are part of the stable contract: CSV files with a header row,
integer columns printed as integers and every other cell to 17 significant
digits (lossless double round-trip), and matrix dumps with a "dim N" header
followed by N rows of N space-separated "re,im" pairs; no cell prints "-0".
Identical config, version and BLAS kernel produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import observables
from .config import (
    MECHANISMS,
    MODEL_REGISTRY,
    SERIES_OUTPUTS,
    ScenarioConfig,
    apply_overrides,
    load_document,
    model_defaults,
    validate_document,
)
from .errors import SchemaViolation, ZenosimError

__all__ = ["run_scenario", "main"]


def _fmt(x: float) -> str:
    return f"{float(x) + 0.0:.17g}"


def _matrix_lines(m: np.ndarray) -> list[str]:
    lines = [f"dim {m.shape[0]}"]
    for row in m:
        lines.append(" ".join(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in row))
    return lines


def _csv_lines(columns: dict[str, np.ndarray]) -> list[str]:
    """The header row, then a row per entry: integer dtypes as integers, the rest by _fmt."""
    cells = [map(str if np.issubdtype(np.asarray(c).dtype, np.integer) else _fmt, c)
             for c in columns.values()]
    return [",".join(columns), *map(",".join, zip(*cells))]


def _series_lines(record, res, outputs) -> list[str]:
    """One row per sample; integer times_or_steps (kick counts) head a "step" column."""
    obs = observables(record, res)
    stepped = np.issubdtype(record.times_or_steps.dtype, np.integer)
    columns = {"step" if stepped else "t": record.times_or_steps}  # header -> column
    if "probabilities" in outputs:
        columns |= {f"p_{n + 1}": p for n, p in enumerate(obs.subspace_probabilities.T)}
    if "purity" in outputs:
        columns["purity"] = obs.purity
    if "coherence" in outputs:
        columns |= {f"coh_{n + 1}_{m + 1}": c
                    for (n, m), c in sorted(obs.coherence_blocks.items())}
    return _csv_lines(columns)


def run_scenario(config: ScenarioConfig, output_dir: str | Path = ".",
                 quiet: bool = False) -> list[Path]:
    """Run one validated scenario; compute everything, then write the files.

    Returns the list of written paths.  All numeric work happens before the
    first write, so a numeric failure leaves no partial output behind.
    """
    base = config.output_path
    mech = MECHANISMS[config.mechanism]
    x = config.values[-1] if config.values else None  # last swept N or K, if any
    notes: list[str] = []
    files: dict[str, list[str]] = {}

    if mech.survival is None:  # a survival sweep builds its own bundles
        bundle = config.build_bundle()
        psi0 = config.resolve_initial_state()

    series_outputs = [k for k in config.outputs if k in SERIES_OUTPUTS]
    if series_outputs:
        record = mech.series(bundle, psi0, config.t, x, config.samples)
        files[f"{base}_series.csv"] = _series_lines(
            record, bundle.resolution(), series_outputs)

    if "convergence" in config.outputs:
        curve = mech.curve(bundle, psi0, config.t, config.values)
        files[f"{base}_convergence.csv"] = _csv_lines(
            {curve.parameter_name: curve.parameter_values, "distance": curve.distances})
        if curve.exact:
            notes.append("convergence: exact (distances at roundoff)")
        else:
            notes.append(f"convergence: fitted rate {curve.fitted_rate:.4f}, "
                         f"mean factor per doubling "
                         f"{curve.doubling_factor:.4f}")

    if "propagator" in config.outputs:
        for infix, u in mech.propagators(bundle, config.t, x).items():
            files[f"{base}{infix}_propagator.txt"] = _matrix_lines(u)

    if "survival" in config.outputs:
        result = mech.survival(config)
        files[f"{base}_survival.csv"] = _csv_lines(
            {"K": result.couplings, "survival": result.survivals})
        if result.protective_coupling is None:
            notes.append(f"no K in the sweep reaches survival >= {result.threshold}")
        else:
            notes.append(f"smallest K with survival >= {result.threshold}: "
                         f"{_fmt(result.protective_coupling)}")

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
    for name, build in sorted(MODEL_REGISTRY.items()):
        bundle = build()  # at the defaults, as the schema reads it
        params = " ".join(f"{k}={v:g}" for k, v in sorted(model_defaults(build).items()))
        print(f"{name:24s} {bundle.mechanism:11s} dim {bundle.dim}  {params}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Quantum Zeno dynamics: measurements, kicks, "
                    "continuous coupling, and their common limit.")
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = argparse.ArgumentParser(add_help=False)  # what run and validate share
    scenario.add_argument("config", help="path to a scenario JSON file")
    scenario.add_argument("--set", action="append", metavar="KEY=VALUE",
                          help="override a config entry (dotted path, JSON value)")
    scenario.add_argument("--quiet", action="store_true", help="print nothing on success")

    run = sub.add_parser("run", parents=[scenario],
                         help="run a scenario config and write outputs")
    run.add_argument("--output-dir", default=".", help="directory for output files")
    run.set_defaults(func=_cmd_run)
    val = sub.add_parser("validate", parents=[scenario],
                         help="check a scenario config against the schema")
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
    except (ZenosimError, MemoryError) as exc:  # all numeric work precedes the first write
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
