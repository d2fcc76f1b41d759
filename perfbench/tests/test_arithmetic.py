"""Tests of the benchmark's own arithmetic.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import math
from pathlib import Path

import pytest

import spans
from metrics import failed_frac, mismatches, tail_percentile
from spans import Span, Tracer, self_times


def _span(id_, parent, start, end):
    return Span(id_, f"s{id_}", parent, 0, start, end)


def test_self_time_subtracts_children_once():
    # parent [0, 10]; child [1, 5] with grandchild [2, 3]; child [6, 7]
    spans_ = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 1, 2.0, 3.0),
              _span(3, 0, 6.0, 7.0)]
    own = self_times(spans_)
    assert own == {0: 5.0, 1: 3.0, 2: 1.0, 3: 1.0}


def test_self_time_uses_union_of_children_clipped_to_parent():
    spans_ = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0), _span(2, 0, 2.0, 4.0),
              _span(3, 0, 8.0, 12.0)]
    assert self_times(spans_)[0] == pytest.approx(10.0 - 3.0 - 2.0)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_wrapped_calls_record_nested_spans_with_experiment_ids():
    tracer = Tracer(clock=_Clock())
    inner = spans._wrap(tracer, lambda: None, "inner", "span", None)
    outer = spans._wrap(tracer, lambda: inner(), "outer", "experiment", None)
    outer()
    outer()
    inner()
    assert tracer.experiments == 2
    assert [(s.name, s.parent, s.experiment) for s in tracer.spans] == [
        ("outer", None, 0), ("inner", 0, 0), ("outer", None, 1), ("inner", 2, 1),
        ("inner", None, None)]
    # clock ticks 1 per read: outer spans 3 ticks, the inner one 1 tick of them
    assert self_times(tracer.spans)[0] == 2.0
    assert tracer.calls == {"outer": 2, "inner": 3}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=_Clock())

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        spans._wrap(tracer, boom, "boom", "experiment", None)()
    assert not math.isnan(tracer.spans[0].end)
    assert tracer.begin("next").parent is None


def test_layer_metrics_are_per_experiment_and_missing_sites_are_none():
    tracer = Tracer(clock=_Clock())
    for _ in range(2):
        span = tracer.begin("harness.run_experiment", experiment=True)
        fused = tracer.begin("dkf.fused_run")
        tracer.end(fused)
        tracer.count("dkf.fused_pinv_steps", 3)
        tracer.end(span, experiment=True)
    values = spans.layer_metrics(tracer, missing=["dkf.engine"])
    assert values["dkf.fused_run.s"] == 1.0
    assert values["dkf.fused_run.calls"] == 1.0
    assert values["dkf.fused_pinv_steps"] == 3.0
    assert values["harness.run_experiment.self_s"] == 2.0
    assert values["dkf.engine.s"] is None and values["dkf.a_pinv_steps"] is None
    assert values["selection.admit_ratio"] == 0.0  # no applicable node: off this path


def test_missing_sites_lists_expected_sites_without_calls():
    tracer = Tracer()
    tracer.called("harness.run_experiment")
    missing = spans.missing_sites(tracer, "greedy")
    assert "harness.run_experiment" not in missing
    assert "selection.greedy_select" in missing
    assert "selection.stability_select" not in missing  # not on the greedy path


@pytest.mark.parametrize("n, expected", [
    (5, None), (10, None), (11, (9, 0)), (20, (50, 9)), (100, (90, 89)), (1000, (99, 989)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = list(range(n))[::-1]  # unsorted input; value equals its rank - 1
    assert tail_percentile(samples) == expected
    if expected is not None:
        p, value = expected
        assert sum(1 for x in samples if x > value) >= 10


def test_failed_frac():
    assert failed_frac(0, 25) == 0.0
    assert failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(3, 2)


def test_reference_comparison():
    ref = {"selected": "1f", "mse": 0.5, "md": float("nan"), "rows": [[1, 0.25, 3]]}
    assert mismatches(ref, {"selected": "1f", "mse": 0.5 * (1 + 5e-13), "md": float("nan"),
                            "rows": [[1, 0.25, 3]]}) == []
    got = {"selected": "1e", "mse": 0.5 * (1 + 1e-11), "md": 1.0, "rows": [[2, 0.25, 3]]}
    assert mismatches(ref, got) == ["$.selected", "$.mse", "$.md", "$.rows[0][0]"]
    assert mismatches(ref, {"selected": "1f"}) == ["$"]
    assert mismatches([1, 2], [1]) == ["$"]


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    expected.update({"trace.run_s": "s", "trace.overhead_s": "s"})
    assert per_layer == expected
    assert {m["name"] for m in bench["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
