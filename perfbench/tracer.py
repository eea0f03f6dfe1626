"""In-memory span tracer that wraps spherelab's public functions from outside.

A span is (name, start_ns, end_ns, parent): the wrapped call's layer-
qualified name, its perf_counter_ns interval and the index of the
enclosing span (-1 at top level).  Spans stay in a list until the run
ends; `Tracer.dump` writes them out once.  Counters (matrix sizes, flop,
terms, nodes) are recorded by hooks at the same call boundaries.

Wrappers are installed where callers look a name up: a function is
rebound in every spherelab module namespace that holds it (so
`experiments.divisor_pairing_closed`, imported by name, is traced as
well as `currents.divisor_pairing_closed`), module attributes reached
through the module (`_accel.band_power_sum` as called from `kernels`)
are rebound on the module, methods are rebound on their class, and the
`EXPERIMENTS` registry entries the CLI dispatches through are rebound in
the dict.  Nothing inside `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("basis", "ensemble", "experiments", "quadrature", "forms", "currents",
          "kernels", "embedding", "reporting")

MB = 1e6  # computed sizes are reported in units of 10^6 bytes
COMPLEX_BYTES = 16

# Metrics derived from array shapes and arguments, not measured: matrix
# sizes ignore temporaries, flop and terms ignore cache behaviour.
COMPUTED = {"basis.design_matrix_peak_mb", "basis.design_matrix_total_mb",
            "ensemble.gemm_gflop", "currents.regsum_terms", "kernels.band_sum_terms",
            "quadrature.rebuild_ratio"}


class Tracer:
    """Records nested spans and named counters for one process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.cell_rules = {}  # SphereCellRule serial -> (cells, nodes) after its last build
        self._stack = []
        self._wrapped = {}

    def wrap(self, fn, name, hook=None):
        """Wrapper recording one span per call; `hook(tracer, args, kwargs, result)`
        runs after the clock stops and feeds counters."""
        key = (id(fn), name)
        if key in self._wrapped:
            return self._wrapped[key]
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        self._wrapped[key] = traced
        return traced

    def add(self, counter, value):
        self.counts[counter] += value

    def peak(self, counter, value):
        self.peaks[counter] = max(self.peaks[counter], value)

    def dump(self, path, window):
        """Write spans, counters and the measured window (ns) as JSON."""
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "window": list(window),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ----------------------------------------------------------- span arithmetic
def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - _covered(children.get(i, ()))
            for i, (name, start, end, parent) in enumerate(spans)]


def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans, window):
    """Self time per layer, the part of the window outside every top-level
    span, and total (inclusive) time per span name, all in ns."""
    selfs = self_times(spans)
    layer_self = defaultdict(int)
    name_self = defaultdict(int)
    name_total = defaultdict(int)
    for (name, start, end, parent), own in zip(spans, selfs):
        layer_self[layer_of(name)] += own
        name_self[name] += own
        # inclusive time counts only the outermost span of a name, so a
        # span nested (at any depth) in one of the same name is not
        # counted twice
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            name_total[name] += end - start
    top = [(s, e) for _, s, e, p in spans if p < 0]
    outside = (window[1] - window[0]) - _covered(top)
    return layer_self, name_self, name_total, outside


# -------------------------------------------------------------------- hooks
def _shape_rows(x):
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) >= 2 else 1


def _design_matrix(tr, args, kwargs, result):
    nbytes = result.shape[0] * result.shape[1] * COMPLEX_BYTES
    tr.add("basis.design_matrix_calls", 1)
    tr.add("basis.design_matrix_total_mb", nbytes / MB)
    tr.peak("basis.design_matrix_peak_mb", nbytes / MB)


def _evaluator(tr, args, kwargs, result):
    tr.add("ensemble.evaluators", 1)


def _gemm(products):
    def hook(tr, args, kwargs, result):
        ev, coeffs = args[0], args[1]
        nodes, cols = ev.matrix.shape
        tr.add("ensemble.gemm_gflop", products * 8.0 * _shape_rows(coeffs) * cols * nodes / 1e9)
    return hook


def _draws(tr, args, kwargs, result):
    tr.add("ensemble.draws", result.shape[0])


def _accepted(tr, args, kwargs, result):
    tr.add("ensemble.accepted", result[0].shape[0])


def _sampler_batch(tr, args, kwargs, result):
    tr.add("experiments.sampler_batches", 1)


def _rule_built(tr, args, kwargs, result):
    tr.add("quadrature.rule_nodes", args[0].npoints)


def _cell_rule_state(tr, rule):
    # a serial tag, not id(): ids of collected rules are reused, and the
    # tracer must not keep rules alive
    serial = rule.__dict__.setdefault("_perfbench_serial", len(tr.cell_rules))
    tr.add("quadrature.cell_nodes_built", rule.npoints)
    tr.cell_rules[serial] = (rule.ncells, rule.npoints)


def _cell_rule_built(tr, args, kwargs, result):
    tr.add("quadrature.rule_nodes", args[0].npoints)
    _cell_rule_state(tr, args[0])


def _cell_rule_refined(tr, args, kwargs, result):
    if result:
        tr.add("quadrature.refines", 1)
        _cell_rule_state(tr, args[0])


def _form_evaluated(tr, args, kwargs, result):
    tr.add("forms.evaluate_calls", 1)
    points = args[1]
    tr.add("forms.evaluate_points", len(points) if getattr(points, "ndim", 2) > 1 else 1)


def _pairing(tr, args, kwargs, result):
    tr.add("currents.pairings", 1)


def _regsum(tr, args, kwargs, result):
    weights, deltas = args[0], args[-1]
    tr.add("currents.regsum_terms", len(weights) * len(deltas))


def _band_sum(tr, args, kwargs, result):
    q, ms = args[0], args[1]
    tr.add("kernels.band_sum_terms", max(getattr(q, "size", 1), 1) * len(ms))


def _report_written(tr, args, kwargs, result):
    tr.add("reporting.csv_bytes", os.path.getsize(result[0]))


# (module, attribute path, span name, hook).  Span names start with their
# layer.  "Class.method" paths are rebound on the class.
PROBES = [
    ("spherelab.basis", "DegreeTable.__init__", "basis.table_build", None),
    ("spherelab.basis", "DegreeTable.design_matrix", "basis.design_matrix", _design_matrix),
    ("spherelab.ensemble", "NodeEvaluator.__init__", "ensemble.evaluator", _evaluator),
    ("spherelab.ensemble", "NodeEvaluator.values", "ensemble.gemm", _gemm(1)),
    ("spherelab.ensemble", "NodeEvaluator.slot1_sums", "ensemble.gemm", _gemm(2)),
    ("spherelab.ensemble", "NodeEvaluator.directional_derivative", "ensemble.deriv", None),
    ("spherelab.ensemble", "NodeEvaluator.gradient_magnitude", "ensemble.deriv", None),
    ("spherelab.ensemble", "RandomEnsemble.__init__", "ensemble.init", None),
    ("spherelab.ensemble", "RandomEnsemble.draw_matrix", "ensemble.draw", _draws),
    ("spherelab.ensemble", "RandomEnsemble.batch_margins", "ensemble.filter", None),
    ("spherelab.experiments", "_accepted_rows", "ensemble.accept", _accepted),
    ("spherelab.experiments", "CfSampler.__init__", "experiments.sampler_init", None),
    ("spherelab.experiments", "CfSampler.batch", "experiments.sampler_batch", _sampler_batch),
    ("spherelab.experiments", "BoundarySampler.__init__", "experiments.sampler_init", None),
    ("spherelab.experiments", "BoundarySampler.batch", "experiments.sampler_batch",
     _sampler_batch),
    ("spherelab.quadrature", "SphereRule.__init__", "quadrature.rule_build", _rule_built),
    ("spherelab.quadrature", "BallRule.__init__", "quadrature.rule_build", _rule_built),
    ("spherelab.quadrature", "CircleRule.__init__", "quadrature.rule_build", _rule_built),
    ("spherelab.quadrature", "DiscRule.__init__", "quadrature.rule_build", _rule_built),
    ("spherelab.quadrature", "SphereCellRule.__init__", "quadrature.rule_build",
     _cell_rule_built),
    ("spherelab.quadrature", "SphereCellRule.refine", "quadrature.refine", _cell_rule_refined),
    ("spherelab.forms", "PolyForm.evaluate", "forms.evaluate", _form_evaluated),
    ("spherelab.currents", "cf_pairing", "currents.pairing", None),
    ("spherelab.currents", "divisor_pairing_closed", "currents.pairing", _pairing),
    ("spherelab.currents", "divisor_pairing_boundary", "currents.pairing", _pairing),
    ("spherelab.currents", "zero_set_direct", "currents.direct", None),
    ("spherelab.currents", "CRPairingContext.__init__", "currents.context", None),
    ("spherelab.currents", "BoundaryPairingContext.__init__", "currents.context", None),
    ("spherelab._accel", "regularized_sums", "currents.regsum", _regsum),
    ("spherelab._accel", "log_regularized_sums", "currents.regsum", _regsum),
    ("spherelab._accel", "band_power_sum", "kernels.band_sum", _band_sum),
    ("spherelab.kernels", "KernelField.__init__", "kernels.field", None),
    ("spherelab.kernels", "KernelField.ddbar_log", "kernels.ddbar_log", None),
    ("spherelab.reporting", "write_report_files", "reporting.write", _report_written),
    ("spherelab.reporting", "git_describe", "reporting.git", None),
    ("spherelab.reporting", "RunManifest.write", "reporting.manifest", None),
    ("spherelab.reporting", "load_config", "reporting.config", None),
] + [
    ("spherelab.embedding", f"EmbeddingMap.{method}", "embedding.map", None)
    for method in ("__init__", "components", "overlap", "normalized_overlap",
                   "normalized_overlap_from_products", "fs_distance", "fs_pullback",
                   "overlap_hessian_pair", "overlap_hessian_matrix",
                   "scaled_hessian_matrix", "separation_scan")
]


def install(tracer, probes=PROBES):
    """Rebind every probe target to its traced wrapper."""
    for module_name, path, span_name, hook in probes:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(original, span_name, hook))
            continue
        original = getattr(module, path)
        wrapper = tracer.wrap(original, span_name, hook)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("spherelab"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    experiments = importlib.import_module("spherelab.experiments")
    for name, fn in list(experiments.EXPERIMENTS.items()):
        experiments.EXPERIMENTS[name] = tracer.wrap(fn, "experiments.run")


def finish(tracer):
    """Fold per-instance cell-rule state into counters before dumping."""
    final_cells = sum(cells for cells, _ in tracer.cell_rules.values())
    final_nodes = sum(nodes for _, nodes in tracer.cell_rules.values())
    tracer.counts["quadrature.cells_final"] = final_cells
    tracer.counts["quadrature.cell_nodes_final"] = final_nodes


# ------------------------------------------------------------ layer metrics
def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace):
    """Per-layer metrics from one dumped trace (see BENCHMARK.json)."""
    spans, counts, peaks = trace["spans"], trace["counts"], trace["peaks"]
    layer_self, name_self, name_total, outside = summarize(spans, trace["window"])
    s = 1e-9
    c = counts.get

    def total(name):
        return name_total.get(name, 0) * s

    metrics = {
        "basis.design_matrix_s": total("basis.design_matrix"),
        "basis.design_matrix_calls": c("basis.design_matrix_calls", 0),
        "basis.design_matrix_peak_mb": peaks.get("basis.design_matrix_peak_mb", 0.0),
        "basis.design_matrix_total_mb": c("basis.design_matrix_total_mb", 0.0),
        "basis.table_build_s": total("basis.table_build"),
        "ensemble.evaluators": c("ensemble.evaluators", 0),
        "ensemble.gemm_s": total("ensemble.gemm"),
        "ensemble.gemm_gflop": c("ensemble.gemm_gflop", 0.0),
        "ensemble.deriv_s": total("ensemble.deriv"),
        "ensemble.draws": c("ensemble.draws", 0),
        "ensemble.draw_s": total("ensemble.draw"),
        "ensemble.filter_s": name_self.get("ensemble.filter", 0) * s,
        "ensemble.draw_yield": _ratio(c("ensemble.accepted", 0), c("ensemble.draws", 0)),
        "experiments.sampler_self_s": name_self.get("experiments.sampler_batch", 0) * s,
        "experiments.sampler_batches": c("experiments.sampler_batches", 0),
        "quadrature.rule_build_s": total("quadrature.rule_build"),
        "quadrature.rule_nodes": c("quadrature.rule_nodes", 0),
        "quadrature.refine_s": total("quadrature.refine"),
        "quadrature.refines": c("quadrature.refines", 0),
        "quadrature.cells_final": c("quadrature.cells_final", 0),
        "quadrature.rebuild_ratio": _ratio(c("quadrature.cell_nodes_built", 0),
                                           c("quadrature.cell_nodes_final", 0)),
        "forms.evaluate_s": total("forms.evaluate"),
        "forms.evaluate_calls": c("forms.evaluate_calls", 0),
        "forms.evaluate_points": c("forms.evaluate_points", 0),
        "currents.pairing_s": total("currents.pairing"),
        "currents.pairings": c("currents.pairings", 0),
        "currents.regsum_s": total("currents.regsum"),
        "currents.regsum_terms": c("currents.regsum_terms", 0),
        "kernels.band_sum_s": total("kernels.band_sum"),
        "kernels.band_sum_terms": c("kernels.band_sum_terms", 0),
        "kernels.ddbar_log_s": total("kernels.ddbar_log"),
        "embedding.s": total("embedding.map"),
        "reporting.write_s": total("reporting.write"),
        "reporting.csv_bytes": c("reporting.csv_bytes", 0),
        "reporting.git_s": total("reporting.git"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0) * s
    metrics["trace.outside_s"] = outside * s
    metrics["trace.outside_share"] = _ratio(outside, trace["window"][1] - trace["window"][0])
    metrics["trace.spans"] = len(spans)
    return metrics
