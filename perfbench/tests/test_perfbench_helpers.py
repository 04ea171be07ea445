"""The benchmark's own rules: tail percentiles, self time, ratios, tracing, verdicts.

    python3 -m pytest perfbench/tests -q
"""

import types

import pytest

from compare import verdict
from measure import (
    TooFewSamples,
    beyond,
    highest_tail,
    mean_by_key,
    percentile,
    ratio,
    spread,
    tail_percentile,
)
from spans import Tracer, installed, layer_metrics, self_times


def span(name, start, end, parent=-1, error=None, extra=None, op=0):
    return [name, start, end, parent, op, error, extra]


# -- tail percentiles -------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1000)]
    assert beyond(1000, 99) == 10
    assert tail_percentile(samples, 99) == 989.0
    with pytest.raises(TooFewSamples):
        tail_percentile(samples[:999], 99)


def test_highest_tail_is_the_highest_percentile_with_ten_beyond():
    assert highest_tail([1.0] * 10_000) == 99.9
    assert highest_tail([1.0] * 1000) == 99.0
    assert highest_tail([1.0] * 999) == 98.0
    assert highest_tail([1.0] * 200) == 95.0
    assert highest_tail([1.0] * 19) is None


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([7.0], 99) == 7.0


def test_mean_by_key_averages_each_inputs_samples():
    samples = [4.0, 2.0, 3.0, 1.0, 5.0]
    keys = [7, 3, 7, 3, 9]
    assert mean_by_key(samples, keys) == [3.5, 1.5, 5.0]
    with pytest.raises(ValueError):
        mean_by_key(samples, keys[:-1])


# -- self time --------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("generate", 0, 100),
        span("layout_rooms", 10, 30, parent=0),
        span("plan_corridor", 40, 90, parent=0),
        span("route", 50, 60, parent=2),
        span("enumerate_candidates", 60, 85, parent=2),
    ]
    assert self_times(spans) == [30, 20, 15, 10, 25]
    assert sum(self_times(spans)) == 100


# -- ratios with their base --------------------------------------------------


def test_ratio_of_empty_base_is_zero():
    assert ratio(3, 4) == 0.75
    assert ratio(0, 0) == 0.0


def test_pass_and_valid_ratios_use_their_base():
    spans = [span("generate", 0, 1000)]
    for k in range(4):
        spans.append(span("layout_rooms", 10 * k, 10 * k + 5, parent=0))
    spans.append(span("plan_corridor", 100, 400, parent=0, error="CorridorError"))
    spans.append(span("enumerate_candidates", 150, 350, parent=5, extra=(10, 0)))
    spans.append(span("plan_corridor", 500, 700, parent=0))
    spans.append(span("enumerate_candidates", 550, 650, parent=7, extra=(5, 3)))
    m = layer_metrics(spans, ops=1, wall_ns=1000)
    assert m["treemap.pass_ratio"][0] == 2 / 4
    assert m["corridor.pass_ratio"][0] == 1 / 2
    assert m["corridor.errors"][0] == 1
    assert m["corridor.candidates"][0] == 15
    assert m["corridor.valid_ratio"][0] == 3 / 15
    assert m["corridor.failed_busy_ms"][0] == 300 / 1e6
    assert m["corridor.busy_ms"][0] == 500 / 1e6
    assert m["share.covered_pct"][0] == 100.0


# -- tracing is harmless ------------------------------------------------------


def fake_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def broken():
        raise KeyError("boom")

    mod.inner, mod.outer, mod.broken = inner, outer, broken
    return mod


def test_installed_wraps_then_restores_and_records_parents():
    mod = fake_module()
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    with installed(tracer, {mod: ("inner", "outer")}):
        tracer.op = 7
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == originals
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7)]


def test_installed_restores_on_error_and_records_it():
    mod = fake_module()
    original = mod.broken
    tracer = Tracer()
    with pytest.raises(KeyError):
        with installed(tracer, {mod: ("broken",)}):
            mod.broken()
    assert mod.broken is original
    assert tracer.spans[0][5] == "KeyError"


# -- compare verdicts ----------------------------------------------------------


def runs(*values):
    return dict(enumerate(values))


def test_verdicts():
    steady = runs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
    assert verdict(steady, steady, "higher", 0.1) == "same"
    slower = runs(*(v * 0.8 for v in steady.values()))
    assert verdict(steady, slower, "higher", 0.1) == "regressed"
    faster = runs(*(v * 1.05 for v in steady.values()))
    assert verdict(steady, faster, "higher", 0.1) == "improved"
    noisy = runs(60, 140, 80, 120, 100, 70, 130, 90, 110, 100)
    assert spread(list(noisy.values())) > 0.1
    assert verdict(steady, noisy, "higher", 0.1) == "unresolved"
    assert verdict(noisy, runs(*(v * 3 for v in noisy.values())), "lower", 0.1) == "regressed"
