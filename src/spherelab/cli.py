"""Command-line front end: subcommand selection, config, report emission.

Exit codes: 0 when every check passes, 1 on a FAIL verdict, 2 on usage
or configuration errors.  Every selected experiment's configuration is
built first, so a bad value exits 2 before any file is written; the run
manifest is written before any computation starts.  The default output
directory comes from the SPHERELAB_OUT environment variable, falling
back to ./spherelab-out.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from spherelab import reporting
from spherelab.experiments import (EXPERIMENTS, ExperimentConfig, ExperimentError,
                                   config_from_resolved)

SUBCOMMANDS = list(EXPERIMENTS) + ["all"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spherelab",
        description="Numerical experiments on band kernels and random zero "
                    "sets on the unit sphere in C^2.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS + ["help"],
                        help="experiment to run, or 'all'")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--k-grid", default=None,
                        help="comma-separated scale grid, e.g. 16,32,64")
    parser.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    parser.add_argument("--level", type=int, default=None, help="sphere quadrature level")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--emit-plotdata", action="store_true",
                        help="also write per-figure CSV files")
    return parser


def _default_out():
    return os.environ.get("SPHERELAB_OUT", os.path.join(os.getcwd(), "spherelab-out"))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return int(exc.code) if exc.code else 0
    if args.subcommand == "help":
        parser.print_help()
        return 0

    try:
        file_cfg = reporting.load_config(args.config) if args.config else None
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed INI
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2

    overrides = {
        "run.seed": args.seed,
        "grid.k_grid": args.k_grid,
        "mc.trials": args.trials,
        "quadrature.level": args.level,
        "run.out": args.out,
    }
    names = list(EXPERIMENTS) if args.subcommand == "all" else [args.subcommand]
    try:
        resolved = reporting.resolve_config(file_cfg, overrides)
        configs = {name: config_from_resolved(name, resolved) for name in names}
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    run = resolved.get("run", {})
    out_dir = run.get("out") or _default_out()
    os.makedirs(out_dir, exist_ok=True)

    manifest = reporting.RunManifest(
        config_path=args.config or "<defaults>",
        config_hash=reporting.config_hash(configs.values()),
        seed=int(run.get("seed", ExperimentConfig.seed)),
        out_dir=out_dir,
    )
    manifest.write(os.path.join(out_dir, "manifest.json"))

    all_pass = True
    for name, config in configs.items():
        try:
            report = EXPERIMENTS[name](config)
        except ExperimentError as exc:
            print(f"[FAIL] {name}: precondition: {exc}")
            all_pass = False
            continue
        except Exception:
            print(f"[FAIL] {name}: crashed", file=sys.stderr)
            traceback.print_exc()
            all_pass = False
            continue
        report.provenance = {
            "seed": config.seed,
            "config_hash": manifest.config_hash,
            "version": reporting.tool_version(),
            "git": reporting.git_describe(),
        }
        reporting.write_report_files(report, out_dir)
        if args.emit_plotdata:
            reporting.emit_plotdata(report, out_dir)
        for line in report.summary_lines():
            print(line)
        all_pass &= report.verdict
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
