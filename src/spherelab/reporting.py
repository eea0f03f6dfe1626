"""Run manifests, experiment reports, CSV/JSON emission.

Reports are pure data: rows of per-k measurements plus named checks with
boolean outcomes; the verdict of a report is derivable from its checks
alone.  CSV bodies are byte-stable across reruns of the same experiment
configuration (floats are serialized with repr, row order is fixed, no
timestamps inside the body), and config_hash hashes those configurations.
What else a run's timings and last digits may depend on (versions, cores,
BLAS and its threads) goes to the run manifest's env, never into a body.
The config schema and its defaults live in experiments (ExperimentConfig);
this module only reads the INI file and collects what the user set.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import io
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from spherelab import _accel

__all__ = [
    "ExperimentReport",
    "RunManifest",
    "load_config",
    "resolve_config",
    "config_hash",
    "write_report_files",
    "emit_plotdata",
    "tool_version",
]

CSV_HEADER = ["k", "quantity", "estimate", "reference", "abs_err", "rel_err",
              "std_err", "observed_order"]


def load_config(path=None):
    """Read an INI config file; checking its sections and keys is
    experiments.config_from_resolved's job."""
    parser = configparser.ConfigParser()
    if path is not None:
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(path)
    return parser


def resolve_config(parser=None, overrides=None):
    """What the user set, as {section: {key: text}}: file values, then CLI
    overrides keyed "section.key" (None is not set).  A [DEFAULT] section
    is a ValueError: configparser would copy its keys into every section."""
    if parser is not None and parser.defaults():
        raise ValueError(f"keys {sorted(parser.defaults())} in section [DEFAULT]; "
                         "set each key in its own section")
    resolved = {section: dict(parser[section]) for section in parser.sections()} if parser else {}
    for name, val in (overrides or {}).items():
        if val is not None:
            section, _, key = name.partition(".")
            resolved.setdefault(section, {})[key] = str(val)
    return resolved


def config_hash(configs):
    """Hash of the experiment configurations that run: what the results
    depend on, and nothing else (not the output location, nor how a value
    was spelled)."""
    body = "\n".join(repr(config) for config in configs)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def tool_version():
    from spherelab import __version__
    return __version__


@functools.cache
def git_describe():
    """`git describe --always --dirty` of the working directory, or
    "untracked"; run once per process (the CLI and the manifest both ask)."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "untracked"


def run_env():
    """What a run's timings and last digits depend on besides its
    configuration: the python and numpy versions, the usable cores, the
    BLAS numpy was built with, and the threads it runs a call on (None
    when unknown)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count()),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _accel.blas_threads(),
    }


@dataclass
class RunManifest:
    config_path: str
    config_hash: str
    seed: int
    out_dir: str
    timestamp: float = field(default_factory=time.time)
    version: str = field(default_factory=tool_version)

    def write(self, path):
        payload = {
            "config_path": self.config_path,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "timestamp": self.timestamp,
            "version": self.version,
            "git": git_describe(),
            "env": run_env(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class ExperimentReport:
    experiment: str
    rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def add_row(self, k, quantity, estimate, reference=None, std_err=None,
                observed_order=None):
        est = complex(estimate)
        ref = complex(reference) if reference is not None else None
        abs_err = abs(est - ref) if ref is not None else None
        rel_err = abs_err / abs(ref) if (ref is not None and ref != 0) else None
        self.rows.append({
            "k": k,
            "quantity": quantity,
            "estimate": _fmt_number(est),
            "reference": _fmt_number(ref),
            "abs_err": _fmt_number(abs_err),
            "rel_err": _fmt_number(rel_err),
            "std_err": _fmt_number(std_err),
            "observed_order": _fmt_number(observed_order),
        })

    def add_check(self, name, passed, detail=""):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def verdict(self):
        return all(c["passed"] for c in self.checks)

    def csv_body(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            writer.writerow([row[c] for c in CSV_HEADER])
        return buf.getvalue()

    def json_payload(self):
        return {
            "experiment": self.experiment,
            "verdict": "PASS" if self.verdict else "FAIL",
            "checks": self.checks,
            "provenance": self.provenance,
        }

    def summary_lines(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c["passed"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            lines.append(f"[{status}] {self.experiment}: {c['name']}{detail}")
        return lines


def _fmt_number(x):
    if x is None:
        return ""
    if isinstance(x, complex):
        return repr(x.real) if x.imag == 0.0 else repr(x)
    return repr(float(x))


def write_report_files(report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report.experiment)
    with open(base + ".csv", "w") as fh:
        fh.write(report.csv_body())
    with open(base + ".json", "w") as fh:
        json.dump(report.json_payload(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return base + ".csv", base + ".json"


def emit_plotdata(report, out_dir):
    """One CSV per quantity with columns (k, value, reference, error).

    Returns written paths; an empty report writes nothing and warns.
    """
    if not report.rows:
        import warnings
        warnings.warn(f"report {report.experiment} has no rows; no plot data written")
        return []
    os.makedirs(out_dir, exist_ok=True)
    by_quantity = {}
    for row in report.rows:
        by_quantity.setdefault(row["quantity"], []).append(row)
    paths = []
    for quantity, rows in by_quantity.items():
        safe = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in quantity)
        path = os.path.join(out_dir, f"{report.experiment}__{safe}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "value", "reference", "error"])
            for row in rows:
                writer.writerow([row["k"], row["estimate"], row["reference"], row["abs_err"]])
        paths.append(path)
    return paths
