"""One workload run in a fresh process: the benchmark's child.

    python3 perfbench/child.py --src SRC --workload NAME --seed N \
        --work DIR [--trace] [--setup-only]

Imports `spherelab.cli` from SRC, writes the workload's INI config into
DIR, then calls `spherelab.cli.main` once per experiment of the workload
with `--config` and `--out` pointing into DIR.  Timestamps and exit codes
go to DIR/child.json; with --trace the span trace goes to DIR/trace.json,
written once after the last experiment.  With --setup-only the child
stops after writing the config and records the library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def environment():
    """Library versions and BLAS build, as this process loaded them."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import spherelab.cli as cli
    import workloads

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"spherelab imported from {cli.__file__}, not from {args.src}")
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    os.makedirs(args.work, exist_ok=True)
    config = os.path.join(args.work, "config.ini")
    with open(config, "w") as fh:
        fh.write(workloads.config_text(args.workload, args.seed))
    ready = time.monotonic_ns()

    result = {"ready_ns": ready, "codes": {}}
    if args.setup_only:
        result["env"] = environment()
    else:
        out = os.path.join(args.work, "out")
        start = time.perf_counter_ns()
        for name in workloads.WORKLOADS[args.workload]["experiments"]:
            result["codes"][name] = cli.main([name, "--config", config, "--out", out])
        end = time.perf_counter_ns()
        result["wall_s"] = (end - start) * 1e-9
        if tracer is not None:
            tracing.finish(tracer)
            tracer.dump(os.path.join(args.work, "trace.json"), (start, end))
    with open(os.path.join(args.work, "child.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
