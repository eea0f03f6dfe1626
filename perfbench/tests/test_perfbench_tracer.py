"""Span arithmetic of the tracer, on synthetic spans and a fake clock."""

import itertools

import pytest

import tracer as tracing


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds g [20, 30]) and b [50, 70]
    spans = [
        ["experiments.run", 0, 100, -1],
        ["currents.pairing", 10, 40, 0],
        ["kernels.band_sum", 20, 30, 1],
        ["currents.pairing", 50, 70, 0],
        ["reporting.write", 105, 108, -1],
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20, 3]
    layer_self, name_self, name_total, outside = tracing.summarize(spans, (-5, 110))
    assert layer_self == {"experiments": 50, "currents": 40, "kernels": 10, "reporting": 3}
    assert name_total["currents.pairing"] == 50
    assert outside == 115 - 103
    # the identity the benchmark checks: layer self times + outside = window
    assert sum(layer_self.values()) + outside == 115


def test_inclusive_time_counts_outermost_span_of_a_name_once():
    spans = [
        ["embedding.map", 0, 10, -1],
        ["kernels.band_sum", 1, 9, 0],
        ["embedding.map", 2, 8, 1],
    ]
    _, name_self, name_total, _ = tracing.summarize(spans, (0, 10))
    assert name_total["embedding.map"] == 10
    assert name_self["embedding.map"] == 2 + 6


def test_overlapping_children_are_covered_once():
    spans = [["a.x", 0, 10, -1], ["b.y", 1, 5, 0], ["b.z", 3, 7, 0]]
    assert tracing.self_times(spans)[0] == 10 - 6


def test_wrap_records_parent_and_counters():
    ticks = itertools.count(0, 10)
    tr = tracing.Tracer(clock=lambda: next(ticks))

    def inner(x):
        return x + 1

    traced_inner = tr.wrap(inner, "kernels.inner",
                           hook=lambda t, args, kwargs, result: t.add("kernels.calls", 1))
    traced_outer = tr.wrap(lambda x: traced_inner(x) * 2, "experiments.outer")
    assert traced_outer(1) == 4
    assert traced_outer(2) == 6
    assert [(s[0], s[3]) for s in tr.spans] == [
        ("experiments.outer", -1), ("kernels.inner", 0),
        ("experiments.outer", -1), ("kernels.inner", 2)]
    assert all(s[2] > s[1] for s in tr.spans)
    assert tr.counts["kernels.calls"] == 2
    assert tr.wrap(inner, "kernels.inner") is traced_inner


def test_span_closes_when_the_call_raises():
    tr = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap(boom, "forms.boom")()
    assert tr.spans[0][2] >= tr.spans[0][1] > 0
    assert tr._stack == []
