"""spherelab benchmark: run workloads through `spherelab.cli.main`, one
fresh child process at a time, and print end-to-end or per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

--trace 0 repeats untraced child runs for about run_seconds (from
BENCHMARK.json) and reports its end-to-end metrics (medians over the
child runs).
--trace 1 alternates untraced and traced child runs and reports the
per-layer metrics (medians over the traced runs) and the tracing overhead.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; every line before it names
each metric with its unit.  The exit code is 1 when any experiment run
fails: non-zero CLI exit, a FAIL check, or a CSV body that differs from
the first passing child run of the same workload in this invocation
(traced runs included).

Children run one after another, never two at once, with BLAS threads
capped at the number of usable cores.  All files go under .perfbench/
in the checkout; results are also kept as .perfbench/BENCH_*.json.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer as tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

RUN_LIMIT_S = 170.0       # from the start of the invocation, over all its workloads
SETUP_SAMPLES = 7         # set-up time is the median of at least this many children
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SPHERELAB_OUT")}
    for key in BLAS_ENV:
        env[key] = str(nproc())
    return env


class Run:
    """State of one benchmark invocation for one workload."""

    def __init__(self, workload, seed, started):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.experiments = WORKLOADS[workload]["experiments"]
        self.count = 0
        self.attempted = 0
        self.failures = []
        self.reference_csv = None
        self.samples = []
        shutil.rmtree(os.path.join(WORK, workload), ignore_errors=True)

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, trace=False, setup_only=False):
        """Run one child to completion; returns its measurements."""
        self.count += 1
        work = os.path.join(WORK, self.workload, f"child{self.count}")
        os.makedirs(work)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
               "--workload", self.workload, "--seed", str(self.seed), "--work", work]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        with open(os.path.join(work, "log.txt"), "w") as log:
            spawned = time.monotonic_ns()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=child_env(), cwd=work)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {
            "work": work,
            "trace": trace,
            "exit": proc.returncode,
            "elapsed_s": (time.monotonic_ns() - spawned) * 1e-9,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
        }
        self.samples.append(sample)
        try:
            with open(os.path.join(work, "child.json")) as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            child = None
        if proc.returncode != 0 or child is None:
            self.failures.append(f"child {self.count} exited {proc.returncode}; "
                                 f"see {os.path.join(work, 'log.txt')}")
            if not setup_only:
                self.attempted += len(self.experiments)
            return None
        sample["setup_s"] = (child["ready_ns"] - spawned) * 1e-9
        sample["env"] = child.get("env")
        if not setup_only:
            sample["wall_s"] = child["wall_s"]
            self._check(sample, child["codes"])
        return sample

    def _check(self, sample, codes):
        """Count attempted and failed experiment runs of one child.

        CSV bodies are compared with those of the first passing child run
        of this workload and seed in this invocation."""
        bodies = {}
        failed_before = len(self.failures)
        for name in self.experiments:
            self.attempted += 1
            out = os.path.join(sample["work"], "out")
            why = None
            try:
                with open(os.path.join(out, f"{name}.json")) as fh:
                    verdict = json.load(fh)["verdict"]
                with open(os.path.join(out, f"{name}.csv")) as fh:
                    bodies[name] = fh.read()
            except (OSError, ValueError, KeyError) as exc:
                why = f"no report ({exc})"
            else:
                if codes.get(name) != 0:
                    why = f"CLI exit {codes.get(name)}"
                elif verdict != "PASS":
                    why = f"verdict {verdict}"
                elif self.reference_csv and bodies[name] != self.reference_csv.get(name):
                    why = "CSV body differs from the first run at this seed"
            if why:
                kind = "traced" if sample["trace"] else "untraced"
                self.failures.append(f"{name} ({kind} child {self.count}): {why}")
        if self.reference_csv is None and len(self.failures) == failed_before:
            self.reference_csv = bodies
        sample["csv"] = bodies


def accuracy(bodies):
    """Largest oracle rel_err of the catalog pairings and largest
    |estimate - reference| / std_err of the Monte Carlo expectation rows,
    where the CSV bodies have such rows."""
    rows = [row for body in bodies.values() for row in csv.DictReader(io.StringIO(body))]
    oracle = [float(r["rel_err"]) for r in rows
              if r["quantity"].startswith(("pairing-z1-", "pairing-z2-")) and r["rel_err"]]
    gaps = [float(r["abs_err"]) / float(r["std_err"]) for r in rows
            if r["std_err"] and r["abs_err"]]
    found = {}
    if oracle:
        found["oracle_rel_err"] = (max(oracle), "1")
    if gaps:
        found["mc_gap_se"] = (max(gaps), "SE")
    return found


def environment():
    """Software and hardware that ran the benchmark."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "mem_total_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9,
        "blas_threads_cap": nproc(),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
    }


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _line(workload, name, samples, key, unit):
    values = [s[key] for s in samples]
    print(f"{workload} {name}: median {statistics.median(values):.6g} {unit}, "
          f"max {max(values):.6g} {unit}, n={len(values)}")


def measure(run, seconds, trace, spec):
    """Child runs for about `seconds`; returns the metrics dict of the result."""
    warm = run.spawn(setup_only=True)  # fills bytecode and page caches; not timed
    env = dict(environment(), **((warm or {}).get("env") or {}))
    plain, traced = [], []
    loop_start = time.monotonic()
    while True:
        for is_traced in ((False, True) if trace else (False,)):
            sample = run.spawn(trace=is_traced)
            if sample is None:
                break
            (traced if is_traced else plain).append(sample)
        else:
            elapsed = time.monotonic() - loop_start
            per_round = elapsed / len(plain)
            if elapsed + per_round <= seconds and run.remaining() > 2 * per_round:
                continue
        break
    if not plain or (trace and not traced):
        return {}, env
    w = run.workload
    metrics = {}
    if not trace:
        setups = list(plain)
        while len(setups) < SETUP_SAMPLES and run.remaining() > 10:
            sample = run.spawn(setup_only=True)
            if sample is None:
                break
            setups.append(sample)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            _line(w, key, plain, key, units[key])
            metrics[key] = (_median(plain, key), units[key])
        _line(w, "setup_s", setups, "setup_s", units["setup_s"])
        metrics["setup_s"] = (_median(setups, "setup_s"), units["setup_s"])
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        per_child = []
        for sample in traced:
            with open(os.path.join(sample["work"], "trace.json")) as fh:
                per_child.append(tracing.layer_metrics(json.load(fh)))
            # Holds by construction (one span stack, outside = window minus the
            # top-level spans); it checks the self-time arithmetic, while
            # trace.outside_share shows how much of the run no wrapper covers.
            layered = sum(per_child[-1][f"{layer}.self_s"] for layer in tracing.LAYERS)
            accounted = layered + per_child[-1]["trace.outside_s"]
            if not math.isclose(accounted, sample["wall_s"], rel_tol=1e-6):
                run.failures.append(f"layer self times + outside = {accounted:.6f} s, "
                                    f"traced wall_s = {sample['wall_s']:.6f} s")
        for name in units:
            if name == "trace_overhead_s":
                continue
            metrics[name] = (statistics.median(m[name] for m in per_child), units[name])
        overhead = _median(traced, "wall_s") - _median(plain, "wall_s")
        metrics["trace_overhead_s"] = (overhead, units["trace_overhead_s"])
        _line(w, "wall_s (untraced)", plain, "wall_s", "s")
        _line(w, "wall_s (traced)", traced, "wall_s", "s")
        for name, (value, unit) in metrics.items():
            label = " (computed)" if name in tracing.COMPUTED else ""
            print(f"{w} {name}: {value:.6g} {unit}{label}")
    for name, (value, unit) in accuracy(plain[0]["csv"]).items():
        print(f"{w} {name}: {value:.6g} {unit}")
    print(f"{w} fail_ratio: {len(run.failures)}/{run.attempted} = "
          f"{len(run.failures) / max(run.attempted, 1):.6g}")
    print(f"{w} env: {json.dumps(env, sort_keys=True)}")
    return metrics, env


def run_workload(workload, seed, seconds, trace, spec, started):
    run = Run(workload, seed, started)
    metrics, env = measure(run, seconds, trace, spec)
    for failure in run.failures:
        print(f"{workload} FAILED: {failure}")
    result = {
        "correct": not run.failures and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(WORK, f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"),
              "w") as fh:
        samples = [{k: v for k, v in s.items() if k not in ("csv", "env", "work")}
                   for s in run.samples]
        json.dump(dict(result, workload=workload, seed=seed, env=env, samples=samples),
                  fh, indent=2)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    # accepted so that callers may pass run_seconds explicitly; it is not a knob
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spherelab", "cli.py")):
        print(f"spherelab sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds {args.seconds:g} differs from run_seconds {seconds}")
    os.makedirs(WORK, exist_ok=True)

    started = time.monotonic()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, seconds, bool(args.trace), spec, started)
               for w in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
