"""The benchmark against the real program: one traced child per workload.

These run spherelab itself (about a minute in total) and write only under
the checkout's .perfbench/ directory.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run as bench
import tracer as tracing
import workloads

SEED = 3


def _traced(workload, untraced_first=False):
    run = bench.Run(workload, SEED, time.monotonic())
    if untraced_first:
        assert run.spawn() is not None, run.failures
    sample = run.spawn(trace=True)
    assert sample is not None and not run.failures, run.failures
    with open(os.path.join(sample["work"], "trace.json")) as fh:
        return tracing.layer_metrics(json.load(fh)), sample, run


@pytest.fixture(scope="module")
def traced():
    return {w: _traced(w, untraced_first=(w == "deterministic")) for w in workloads.WORKLOADS}


# layer -> (a metric that counts its work, workloads that must exercise it)
EXERCISED = {
    "basis": ("basis.design_matrix_calls", ["mc-sphere", "mc-ball", "mc-scan"]),
    "ensemble": ("ensemble.draws", ["mc-sphere", "mc-ball", "mc-scan"]),
    "experiments": ("experiments.sampler_batches", ["mc-sphere", "mc-ball"]),
    "quadrature": ("quadrature.refines", ["deterministic", "mc-ball"]),
    "forms": ("forms.evaluate_calls", list(workloads.WORKLOADS)),
    "currents": ("currents.pairings", ["deterministic", "mc-ball"]),
    "kernels": ("kernels.band_sum_terms", ["deterministic", "mc-ball"]),
    "embedding": ("embedding.s", ["deterministic"]),
    "reporting": ("reporting.csv_bytes", list(workloads.WORKLOADS)),
}


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_every_layer_records_spans_where_exercised(traced, layer):
    counter, names = EXERCISED[layer]
    for workload in names:
        metrics = traced[workload][0]
        assert metrics[counter] > 0, (workload, counter)
        assert metrics[f"{layer}.self_s"] > 0, (workload, layer)


def test_wrappers_sit_where_callers_look_names_up(traced):
    metrics = traced["deterministic"][0]
    # experiments imports divisor_pairing_closed by name; kernels reaches
    # band_power_sum through the _accel module; the CLI dispatches through
    # the EXPERIMENTS registry
    assert metrics["currents.pairings"] == 6
    assert metrics["kernels.band_sum_terms"] > 0
    assert metrics["experiments.self_s"] > 0


def test_refinement_is_bypassed_on_mc_sphere(traced):
    metrics = traced["mc-sphere"][0]
    assert metrics["quadrature.refines"] == 0
    assert metrics["quadrature.refine_s"] == 0
    assert metrics["currents.pairings"] == 0


def test_self_times_account_for_the_traced_wall(traced):
    for workload, (metrics, sample, _) in traced.items():
        layered = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert layered + metrics["trace.outside_s"] == pytest.approx(sample["wall_s"], rel=1e-6)
        # the identity holds by construction; coverage is what the wrappers add
        assert metrics["trace.outside_share"] < 0.05, workload


def test_tracing_leaves_csv_bodies_unchanged(traced):
    _, _, run = traced["deterministic"]
    assert run.attempted == 2 * len(workloads.WORKLOADS["deterministic"]["experiments"])
    assert run.failures == []


def test_seed_reaches_the_generated_config():
    a = workloads.config_text("mc-scan", 1)
    b = workloads.config_text("mc-scan", 2)
    differing = [(x, y) for x, y in zip(a.splitlines(), b.splitlines()) if x != y]
    assert len(differing) == 1 and differing[0][0].startswith("seed = ")
    bodies = []
    for seed in (1, 2):
        run = bench.Run("mc-scan", seed, time.monotonic())
        sample = run.spawn()
        assert sample is not None and run.failures == [], run.failures
        bodies.append(sample["csv"]["variance-cr"])
    assert bodies[0] != bodies[1]


def test_refuses_to_run_without_the_program(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-scan",
                           "--seed", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_benchmark_reports(traced):
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w["why"] for w in workloads.WORKLOADS.values()]
    reported = set(traced["mc-sphere"][0]) | {"trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == reported
