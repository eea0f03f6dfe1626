"""Run manifests, experiment reports, CSV/JSON emission.

Reports are pure data: rows of per-k measurements plus named checks with
boolean outcomes; the verdict of a report is derivable from its checks
alone.  CSV bodies are byte-stable across reruns of the same resolved
configuration (floats are serialized with repr, row order is fixed, no
timestamps inside the body).
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import io
import json
import os
import subprocess
import time
from dataclasses import dataclass, field

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

DEFAULTS = {
    "run": {"seed": "20240817", "out": ""},
    "cutoff": {"delta1": "0.25", "delta2": "0.75", "shape": "smooth-bump",
               "sharpness": "1.0"},
    "grid": {"k_grid": "16,32,64,128"},
    "mc": {"trials": "400"},
    "quadrature": {"level": "16", "ball_level": "12", "ball_radial": "28",
                   "cell_base": "6", "cell_nodes": "4", "refine_depth": "10"},
    "currents": {"deltas": "1e-2,1e-3,1e-4,1e-5,1e-6",
                 "mc_deltas": "1e-2,1e-3,1e-4",
                 "filter_threshold": "1e-6"},
}


def load_config(path=None):
    """Read an INI config; unknown sections and keys are an error, sections
    optional.  An experiment section takes only experiment_keys(section)."""
    parser = configparser.ConfigParser()
    if path is not None:
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(path)
    for section in parser.sections():
        if section in DEFAULTS:
            known = DEFAULTS[section]
        elif section in _EXPERIMENT_SECTIONS:
            known = experiment_keys(section)
        else:
            raise ValueError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in known:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
    return parser


_EXPERIMENT_SECTIONS = {
    "kernel-diag", "embed-check", "lp-closed", "lp-boundary",
    "expectation-cr", "equi-cr", "variance-cr", "equi-domain",
    "expectation-domain",
}


def experiment_keys(experiment):
    """Keys of an experiment section, each overriding the global value.
    Only expectation-cr reads kappa: expectation-domain fixes kappa = 1
    and variance-cr runs both."""
    keys = ("k_grid", "trials", "level", "seed")
    return keys + ("kappa",) if experiment == "expectation-cr" else keys


class ResolvedConfig(dict):
    """Flat config with the set of explicitly provided keys attached."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.explicit = set()


def resolve_config(parser=None, overrides=None):
    """Defaults, then file values, then CLI overrides; returns flat dict."""
    resolved = ResolvedConfig()
    for section, keys in DEFAULTS.items():
        for key, val in keys.items():
            resolved[f"{section}.{key}"] = val
    if parser is not None:
        for section in parser.sections():
            for key, val in parser[section].items():
                resolved[f"{section}.{key}"] = val
                resolved.explicit.add(f"{section}.{key}")
    for key, val in (overrides or {}).items():
        if val is not None:
            resolved[key] = str(val)
            resolved.explicit.add(key)
    return resolved


_RESULT_NEUTRAL_KEYS = {"run.out"}


def config_hash(resolved):
    """Hash of every parameter that can affect results (the output
    location is excluded on purpose)."""
    body = "\n".join(f"{k}={resolved[k]}" for k in sorted(resolved)
                     if k not in _RESULT_NEUTRAL_KEYS)
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
