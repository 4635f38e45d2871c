"""Child-process entry points of the benchmark.

    python3 perfbench/shim.py cli <spans.npz> <zenosim arguments...>
        Import zenosim.cli, install the span tracer, run
        zenosim.cli.main(<arguments>), and write the spans plus the
        process's start and import timestamps to <spans.npz>.

    python3 perfbench/shim.py probe <workload> <seed>
        Import zenosim and build the workload's bundles and resolutions, as
        a fresh user process would; print the timestamps as one JSON line.

Timestamps are time.monotonic(), which is shared by all processes on the
host, so the parent can subtract its own spawn time from them.
"""

import time

T_ENTER = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _cli(spans_path: str, argv: list[str]) -> int:
    import zenosim.cli
    t_imported = time.monotonic()
    from spans import Tracer
    tracer = Tracer()
    with tracer.installed():
        code = zenosim.cli.main(argv)
    tracer.counts["process.t_enter"] = T_ENTER
    tracer.counts["process.t_imported"] = t_imported
    tracer.dump(spans_path)
    return code


def _probe(workload: str, seed: int) -> int:
    import zenosim  # noqa: F401
    t_imported = time.monotonic()
    from pathlib import Path

    import workloads
    workloads.program_inputs(workload, workloads.draw(workload, seed, Path.cwd()))
    print(json.dumps({"t_enter": T_ENTER, "t_imported": t_imported,
                      "t_built": time.monotonic()}))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "cli":
        return _cli(argv[1], argv[2:])
    if len(argv) == 3 and argv[0] == "probe":
        return _probe(argv[1], int(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("shim.py expects OPENBLAS_NUM_THREADS=1 from its parent")
    sys.exit(main(sys.argv[1:]))
