"""Tests for the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import sys
import threading

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import probes  # noqa: E402


# ----------------------------------------------------------------------
# tail percentile: at least ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (100000, 99.0), (1000, 99.0), (999, 75.0), (100, 75.0), (40, 75.0),
    (39, 50.0), (20, 50.0), (19, None), (0, None),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert harness.tail_percentile(count) == expected


@pytest.mark.parametrize("count", [20, 39, 40, 99, 100, 199, 200, 999,
                                   1000, 9999, 10000])
def test_tail_value_has_ten_larger_samples(count):
    samples = [i / 1000.0 for i in range(count)]
    summary = harness.latency_summary(samples, window_s=100.0)
    beyond = sum(1 for s in samples if s * 1e3 > summary["tail_ms"])
    assert beyond >= harness.TAIL_MIN_BEYOND
    # ...and the next ladder step up would leave fewer than ten.
    q = summary["tail_q"]
    higher = [p for p in harness.TAIL_LADDER if p > q]
    if higher:
        assert count * (100 - min(higher)) / 100 < harness.TAIL_MIN_BEYOND


def test_tail_with_too_few_samples_is_the_maximum():
    summary = harness.latency_summary([0.001 * i for i in range(1, 6)], 1.0)
    assert summary["tail_q"] == 100.0
    assert summary["tail_ms"] == pytest.approx(5.0)
    assert summary["p50_ms"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# latencies at the reference speed
# ----------------------------------------------------------------------
def test_requests_scale_by_the_probes_around_them():
    # Probes of 1, 3 and 1 ms: each stretch's mean, 2 ms, is the
    # reference, so nothing is scaled; the probes' own time is left out.
    probes = [(0.0, 0.001, 1e-3), (10.0, 10.003, 3e-3), (20.0, 20.001, 1e-3)]
    latencies, seconds = harness.at_reference_speed(
        [(1.0, 0.5), (12.0, 0.25)], probes, reference_s=2e-3)
    assert latencies == pytest.approx([0.5, 0.25])
    assert seconds == pytest.approx(9.999 + 9.997)


def test_a_slow_stretch_scales_down_and_failures_stay_infinite():
    probes = [(0.0, 0.0, 4e-3), (1.0, 1.0, 4e-3), (2.0, 2.0, 1e-3)]
    latencies, seconds = harness.at_reference_speed(
        [(0.5, 0.2), (0.9, math.inf), (1.5, 0.2), (-1.0, 0.1), (3.0, 0.1)],
        probes, reference_s=2e-3)
    # 4 ms probes: half the reference speed; 2.5 ms mean: 0.8 of it.
    # Requests outside the probes use the nearest stretch.
    assert latencies == pytest.approx([0.1, math.inf, 0.16, 0.05, 0.08])
    assert seconds == pytest.approx(0.5 + 0.8)


def test_speed_scaling_needs_two_probes():
    with pytest.raises(ValueError):
        harness.at_reference_speed([], [(0.0, 0.0, 1e-3)], 1e-3)


# ----------------------------------------------------------------------
# self time = span minus child coverage
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    # [1,3] and [2,5] overlap (cover 4); [8,12] is clipped to [8,10].
    assert harness.self_time(0, 10, [(1, 3), (2, 5), (8, 12)]) == 4


def test_self_time_of_parallel_children_never_negative():
    children = [(0, 10), (0, 10), (1, 9)]
    assert harness.self_time(0, 10, children) == 0


def test_self_time_ignores_children_outside_the_span():
    assert harness.self_time(5, 6, [(0, 1), (7, 9)]) == 1
    assert harness.self_time(0, 2, []) == 2


def test_recorder_nests_spans_and_restores_originals():
    class Layer:
        def outer(self):
            self.inner()
            worker = threading.Thread(
                target=contextvars.copy_context().run, args=(self.inner,))
            worker.start()
            worker.join()
            return "done"

        def inner(self):
            return 1

    original_outer = Layer.outer
    recorder = probes.Recorder()
    recorder.wrap(Layer, "outer", "outer")
    recorder.wrap(Layer, "inner", "inner")
    assert Layer().outer() == "done"
    recorder.uninstall()
    assert Layer.outer is original_outer
    (outer,) = [s for s in recorder.spans if s.name == "outer"]
    inners = [s for s in recorder.spans if s.name == "inner"]
    assert outer.parent is None
    # The pool-style call inherits the context, so it nests too.
    assert [s.parent for s in inners] == [outer.sid, outer.sid]
    metrics_self = harness.self_time(
        outer.start, outer.end, [(s.start, s.end) for s in inners])
    assert 0 <= metrics_self <= outer.duration


def test_recorder_marks_failed_calls():
    class Layer:
        def boom(self):
            raise KeyError("x")

    recorder = probes.Recorder()
    recorder.wrap(Layer, "boom", "boom")
    with pytest.raises(KeyError):
        Layer().boom()
    recorder.uninstall()
    assert recorder.spans[0].attrs == {"error": True}


def test_install_wraps_the_program_and_uninstall_restores_it():
    from repro.service.core import OptimizerService
    from repro.service.frontend import parse_wire_line
    import repro.service.frontend as frontend

    before = OptimizerService.fingerprint
    recorder = probes.Recorder()
    probes.install(recorder)
    try:
        assert OptimizerService.fingerprint is not before
        assert frontend.parse_wire_line("adult epsilon=0.01").request == {
            "dataset": "adult", "epsilon": 0.01}
    finally:
        recorder.uninstall()
    assert OptimizerService.fingerprint is before
    assert frontend.parse_wire_line is parse_wire_line
    assert [s.name for s in recorder.spans] == ["parse"]


def test_layer_metrics_read_zero_for_layers_off_the_path():
    metrics = probes.layer_metrics([
        probes.Span(1, "optimize", None, 0.0, 0.002, {"hit": True}),
        probes.Span(2, "fingerprint", 1, 0.0005, 0.0015),
    ])
    assert metrics["service.optimize_hit_us"] == pytest.approx(2000)
    assert metrics["fingerprint.us"] == pytest.approx(1000)
    assert metrics["cache.hit_ratio"] == 1.0
    assert metrics["executor.run_ms"] == 0.0
    assert metrics["remote.calls_per_job"] == 0.0


# ----------------------------------------------------------------------
# metric-name grammar
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["setup_s", "remote.get_ms.p50",
                                  "iterations.trial_ms.grad_avg", "9-a",
                                  "a" * 64])
def test_valid_metric_names(name):
    assert harness.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "a" * 65,
                                  "µs", None])
def test_invalid_metric_names(name):
    assert not harness.valid_metric_name(name)


def test_benchmark_json_follows_the_grammar():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    assert set(config) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    names = []
    for workload in config["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in config["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in config["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in config["end_to_end"] + config["per_layer"]:
        assert harness.valid_unit(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(harness.valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in config["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in config["end_to_end"])
    # Every per-layer metric the probes compute is declared, and back.
    declared = {m["name"] for m in config["per_layer"]}
    assert declared == set(probes.layer_metrics([]))


# ----------------------------------------------------------------------
# failure counting
# ----------------------------------------------------------------------
def test_failed_requests_count_and_miss_the_percentiles():
    tally = harness.Tally()
    for latency in (0.001, 0.002, 0.003):
        tally.ok(latency)
    tally.fail("refused: overloaded")
    tally.fail("connection reset")
    assert (tally.attempted, tally.failed) == (5, 2)
    assert not tally.correct
    assert tally.error_rate == pytest.approx(0.4)
    summary = harness.latency_summary(tally.latencies_s, window_s=10.0)
    # Sorted: 1, 2, 3 ms, then two failures at the 10 s window.
    assert summary["p50_ms"] == pytest.approx(3.0)
    assert summary["tail_ms"] == pytest.approx(10_000.0)


def test_wrong_answers_make_the_run_incorrect_without_failing_requests():
    tally = harness.Tally()
    tally.ok(0.001)
    assert tally.check(False, "miss where a hit was due") is False
    assert tally.failed == 0 and not tally.correct


def test_merge_adds_counts():
    a, b = harness.Tally(), harness.Tally()
    a.ok(0.1)
    b.fail("x")
    a.merge(b)
    assert (a.attempted, a.failed, a.problem_count) == (2, 1, 1)
    assert math.inf in a.latencies_s


def test_result_line_shape_and_refusals():
    tally = harness.Tally()
    tally.ok(0.001)
    line = json.loads(harness.result_line(
        tally, {"latency_p50_ms": 1.25}, {"latency_p50_ms": "ms"}))
    assert line == {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"latency_p50_ms": {"value": 1.25,
                                                   "unit": "ms"}}}
    with pytest.raises(ValueError):
        harness.result_line(tally, {}, {"latency_p50_ms": "ms"})
    with pytest.raises(ValueError):
        harness.result_line(tally, {"x": math.nan}, {"x": "ms"})
