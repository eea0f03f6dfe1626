"""Workload definitions and the seed -> INI config generator.

Each workload is a fixed list of `spherelab` subcommands run one after
another in one child process, against an INI config that is generated
from the benchmark seed.  The seed only reaches `run.seed`; every size
(scale grid, trials, rule levels) is fixed per workload, so different
seeds give different draws and sample points but the same amount of
work, and timings from different seeds are comparable.

Sizes are below the CLI defaults so that one child run takes a few
seconds and peaks well below 2 GB: the benchmark repeats each workload
many times, and the CLI defaults need 21-29 s and 3.5-4.5 GB per
Monte Carlo experiment.  100 trials is the smallest count the
statistical checks accept.
"""

from __future__ import annotations

import hashlib

# Every workload's "why" is also its line in BENCHMARK.json.
WORKLOADS = {
    "mc-sphere": {
        "experiments": ["expectation-cr"],
        "sections": {
            "expectation-cr": {"k_grid": "24", "trials": "100", "level": "12"},
        },
        "why": "sphere Monte Carlo: one ensemble, eight design-matrix builds on a "
               "tall node set, value and slot-1 GEMMs, rational delta sums; no refinement",
    },
    "mc-ball": {
        "experiments": ["expectation-domain"],
        "sections": {
            "quadrature": {"level": "10", "ball_level": "6", "ball_radial": "16"},
            # the Monte Carlo schedule also for the deterministic cross-check,
            # whose refinement would otherwise be over half of the run
            "currents": {"deltas": "1e-2,1e-3,1e-4"},
            "expectation-domain": {"k_grid": "24", "trials": "100"},
        },
        "why": "ball Monte Carlo: values only on the largest node set (memory peak), "
               "log delta sums, plus one refined deterministic boundary pairing",
    },
    "mc-scan": {
        "experiments": ["variance-cr"],
        "sections": {
            "variance-cr": {"k_grid": "16,32,64", "trials": "100", "level": "12"},
        },
        "why": "k scan: design matrix narrow to wide, one sampler per ensemble, "
               "draws plus regularity filter a real share of the time",
    },
    "deterministic": {
        "experiments": ["kernel-diag", "embed-check", "lp-closed", "lp-boundary",
                        "equi-domain"],
        "sections": {
            "quadrature": {"refine_depth": "2", "ball_level": "6", "ball_radial": "12"},
            "embed-check": {"k_grid": "16,32"},
            "equi-domain": {"k_grid": "16,32"},
        },
        "why": "no draws and no dense Monte Carlo matrix: cell refinement, form "
               "evaluation, band power sums; bypasses every Monte Carlo change",
    },
}


def derived_seed(workload, seed):
    """Master seed written to the config: a stable hash of (workload, seed)."""
    digest = hashlib.sha256(f"{workload}:{int(seed)}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % (2 ** 31 - 1) + 1


def config_text(workload, seed):
    """INI text for one workload at one benchmark seed."""
    spec = WORKLOADS[workload]
    sections = {"run": {"seed": str(derived_seed(workload, seed))}}
    sections.update(spec["sections"])
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)
