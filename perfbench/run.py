"""zenosim benchmark: one seeded workload, end to end or traced per layer.

    python3 perfbench/run.py --workload <cli-scenarios|long-drive|dense-sampling>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the directory holding src/zenosim
and scenarios/).  Nothing needs installing: every process imports zenosim
from ./src, with OPENBLAS_NUM_THREADS=1 pinned.

--trace 0 measures the end-to-end metrics; --trace 1 replays the workload
untraced and then traced with spans around every public function of each
layer, and reports the per-layer metrics.  The last line of standard output
is the result object; the line before it records the environment.  Run
records and span files go to perfbench/_runs/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PROBES = 5  # fresh set-up processes per run; setup_s is their median
# Nominal time of one speed probe; end-to-end times are quoted at this speed.
SPEED_REF_S = 0.010


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-scenarios", "long-drive", "dense-sampling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def percentile(values, pct: int) -> float:
    """The pct-th percentile, interpolating linearly between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class SpeedProbe:
    """A fixed kernel that measures how fast the host runs right now.

    The benchmark shares its host, and the speed of the same code there
    swings by up to 1.8x over seconds to minutes.  Each end-to-end time is
    multiplied by SPEED_REF_S / (probe time around it), which removes that
    common factor: the probe is benchmark code, so a change to zenosim
    passes through unscaled.  The kernel is the engines' kind of work, a
    Python loop of 3x3 complex products, and never calls zenosim.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        self._b = self._a.conj().T.copy()

    def __call__(self) -> float:
        np, a, b = self._np, self._a, self._b
        start = time.perf_counter()
        x = np.eye(3, dtype=complex)
        for _ in range(1200):
            x = a @ x @ b
            x = x / np.trace(x)
        return time.perf_counter() - start


class Run:
    """Measurement state of one benchmark invocation."""

    def __init__(self, workload, seed: int, root: Path, env: dict):
        self.speed = SpeedProbe()
        self.wl = workload
        self.seed = seed
        self.root = root
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.errors: list[str] = []
        self.op_times: dict[str, list[float]] = {}
        self.scaled_times: dict[str, list[float]] = {}

    def run_op(self, op):
        """Time one operation and check its output; returns (seconds, output)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raised error is a failed operation
            self.failed += 1
            self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        try:
            self.max_err = max(self.max_err, op.check(out))
        except Exception as exc:  # CheckFailed, or output too broken to check
            self.failed += 1
            self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        return elapsed, out

    def rounds(self, count: int | None = None, seconds: float = 0.0,
               on_output=None) -> tuple[list[float], list[float]]:
        """Run whole rounds: ``count`` of them, or until both ``seconds`` have
        passed and min_ops operations were measured.

        Returns the raw op times and the same times at the reference speed,
        each scaled by the mean of the speed probes taken just before and
        just after the operation.
        """
        import workloads
        times: list[float] = []
        names: list[str] = []
        probes = [self.speed()]
        start = time.perf_counter()
        index = 0
        while True:
            if count is not None:
                if index >= count:
                    break
            elif (len(times) >= self.wl.min_ops
                  and time.perf_counter() - start >= seconds):
                break
            for op in workloads.order(self.wl, self.seed, index):
                elapsed, out = self.run_op(op)
                probes.append(self.speed())
                times.append(elapsed)
                names.append(op.name)
                self.op_times.setdefault(op.name, []).append(elapsed)
                if on_output is not None and out is not None:
                    on_output(out)
            index += 1
        scaled = [t * 2.0 * SPEED_REF_S / (before + after)
                  for t, before, after in zip(times, probes, probes[1:])]
        for name, t in zip(names, scaled):
            self.scaled_times.setdefault(name, []).append(t)
        return times, scaled

    def probes(self) -> list[dict]:
        """Fresh processes that import zenosim and build the program inputs."""
        out = []
        for _ in range(PROBES):
            before = self.speed()
            t_spawn = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(self.root / "perfbench" / "shim.py"), "probe",
                 self.wl.name, str(self.seed)],
                env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=120)
            wall = time.monotonic() - t_spawn
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
            stamps = json.loads(proc.stdout.strip().splitlines()[-1])
            scale = 2.0 * SPEED_REF_S / (before + self.speed())
            out.append({"wall": wall, "scaled": wall * scale,
                        "interpreter": stamps["t_enter"] - t_spawn,
                        "import": stamps["t_imported"] - stamps["t_enter"]})
        return out


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    wl = run.wl
    wl.warmup()
    raw, times = run.rounds(seconds=seconds)
    if wl.name == "cli-scenarios":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes = run.probes()
    return {
        "setup_s": statistics.median(p["scaled"] for p in probes),
        "op_s.p50": percentile(times, 50),
        "op_s.tail": percentile(times, wl.tail_pct),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": rss_kb / 1024.0,
    }, {"ops": len(times), "tail_pct": wl.tail_pct,
        "unscaled": {"setup_s": statistics.median(p["wall"] for p in probes),
                     "op_s.p50": percentile(raw, 50),
                     "op_s.tail": percentile(raw, wl.tail_pct),
                     "ops_per_s": len(raw) / sum(raw)}}


def traced(run: Run, seconds: float, runs_dir: Path) -> tuple[dict, dict]:
    import spans
    import workloads
    wl = run.wl
    count = max(1, round(seconds / 2.0 / wl.nominal_round_s))
    wl.warmup()
    untraced = run.rounds(count=count)

    children = []   # per cli child: summary, interpreter and import seconds
    files = {"count": 0, "bytes": 0}

    def collect(out):
        if (not isinstance(out, workloads.CliRun) or out.spans is None
                or out.code != 0 or not out.spans.exists()):
            return  # a failed child is already counted by its check
        summary = spans.load_summary(out.spans)
        t_enter = summary["counts"].pop("process.t_enter")
        t_imported = summary["counts"].pop("process.t_imported")
        children.append((summary, t_enter - out.t_spawn, t_imported - t_enter))
        for path in out.out_dir.iterdir():
            files["count"] += 1
            files["bytes"] += path.stat().st_size

    tracer = spans.Tracer()
    wl.mode["traced"] = True
    try:
        with tracer.installed():
            if wl.name != "cli-scenarios":
                workloads.program_inputs(wl.name, workloads.draw(wl.name, run.seed,
                                                                  run.root))
            traced_pass = run.rounds(count=count, on_output=collect)
    finally:
        wl.mode["traced"] = False
    traced_s = sum(traced_pass[0])
    span_file = runs_dir / f"{wl.name}-seed{run.seed}-spans.npz"
    tracer.dump(span_file)
    summary = spans.merge([tracer.summarize()] + [c[0] for c in children])
    metrics = spans.layer_metrics(summary)

    probes = run.probes()
    if children:
        metrics["cli.interpreter_s"] = statistics.median(c[1] for c in children)
        metrics["cli.import_s"] = statistics.median(c[2] for c in children)
    else:
        metrics["cli.interpreter_s"] = statistics.median(p["interpreter"] for p in probes)
        metrics["cli.import_s"] = statistics.median(p["import"] for p in probes)
    metrics["cli.files_written"] = files["count"]
    metrics["cli.bytes_written"] = files["bytes"]
    metrics["engines.max_ref_err"] = run.max_err
    metrics["trace.wall_s"] = traced_s
    # at the reference speed, so that host speed swings between the passes cancel
    metrics["trace.overhead_s"] = sum(traced_pass[1]) - sum(untraced[1])
    metrics["baseline.import_s"] = statistics.median(p["import"] for p in probes)
    metrics.update(workloads.baselines())
    shares = {layer: metrics[f"{layer}.self_s"] / traced_s for layer in spans.LAYERS}
    if children:
        shares["import"] = sum(c[2] for c in children) / traced_s
    return metrics, {"rounds": count, "untraced_s": sum(untraced[0]),
                     "self_share_of_traced_wall": shares,
                     "span_file": os.path.relpath(span_file, run.root)}


def environment(root: Path, seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        # the ceiling keeps git from reading a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10,
                                env=dict(os.environ,
                                         GIT_CEILING_DIRECTORIES=str(root.parent)),
                                ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "zenosim").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed, "git_commit": commit, "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def report(run: Run, metrics: dict, contract: dict, trace: int) -> dict:
    """The result line: every metric the contract lists for this mode."""
    listed = contract["per_layer" if trace else "end_to_end"]
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "zenosim" / "__init__.py").is_file() or not (root / "scenarios").is_dir():
        print("run from a zenosim checkout: src/zenosim and scenarios/ not found",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = str(src)
    # One CPU for the benchmark and its children, so that an operation and
    # the speed probes around it see the same host contention.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import zenosim
    if Path(zenosim.__file__).resolve().parent != (src / "zenosim").resolve():
        print(f"imported zenosim from {zenosim.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    runs_dir = root / "perfbench" / "_runs"
    work_dir = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = workloads.environment_pins(root)
    wl = workloads.build(args.workload, args.seed, root, work_dir, env)
    run = Run(wl, args.seed, root, env)
    if args.trace:
        metrics, details = traced(run, args.seconds, runs_dir)
    else:
        metrics, details = end_to_end(run, args.seconds)
    result = report(run, metrics, json.loads((root / "BENCHMARK.json").read_text()),
                    args.trace)
    env_record = environment(root, args.seed)
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "environment": env_record, "details": details, "op_times": run.op_times,
              "scaled_op_times": run.scaled_times,
              "errors": run.errors[:20], "result": result}
    (runs_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for line in run.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"environment": env_record, "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
