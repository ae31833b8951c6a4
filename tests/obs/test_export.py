"""Tests for repro.obs.export: the Chrome trace-event exporter."""

import json

import numpy as np

from repro import obs
from repro.obs.export import to_chrome_trace, validate_chrome_trace, write_chrome_trace


def ev(name, span_id, parent_id, t0, dur, **attrs):
    """Hand-rolled span event in the shape repro.obs.trace.span_event produces."""
    return {
        "type": "span",
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "t_start": t0,
        "duration": dur,
        "attrs": attrs,
    }


def nested_events():
    """root[0,10] > mid[1,5] > leaf[2,2], plus a span carrying a ``worker`` attr."""
    return [
        ev("leaf", 3, 2, 2.0, 2.0),
        ev("mid", 2, 1, 1.0, 5.0),
        ev("work", 4, 1, 1.5, 6.0, worker=0),
        ev("root", 1, None, 0.0, 10.0),
    ]


def traced_events():
    """Real events recorded through the tracer (exit order, children first)."""
    tracer = obs.enable_tracing(obs.MemorySink())
    try:
        with obs.span("outer", n=8):
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b", flag=True):
                pass
        return list(tracer.sink.events)
    finally:
        obs.disable_tracing()


class TestChromeTrace:
    def test_real_trace_validates(self):
        doc = to_chrome_trace(traced_events())
        assert validate_chrome_trace(doc) == []

    def test_complete_events_have_required_fields(self):
        doc = to_chrome_trace(nested_events())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 4
        for e in xs:
            for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
                assert key in e
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_timestamps_rebased_to_microseconds(self):
        doc = to_chrome_trace(nested_events())
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert by_name["root"]["ts"] == 0.0
        assert by_name["mid"]["ts"] == 1e6 and by_name["mid"]["dur"] == 5e6
        assert by_name["leaf"]["ts"] == 2e6

    def test_worker_spans_get_own_lane_with_thread_names(self):
        doc = to_chrome_trace(nested_events())
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        # A ``worker`` attr is an attribute like any other: one lane for all.
        assert by_name["work"]["args"]["worker"] == 0
        assert {e["tid"] for e in doc["traceEvents"]} == {0}
        meta = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert meta == {0: "main"}

    def test_manifest_rides_in_metadata(self):
        doc = to_chrome_trace(nested_events(), manifest={"id": "abc", "seed": 1})
        assert doc["metadata"]["id"] == "abc"

    def test_validator_flags_nesting_escape(self):
        bad = [ev("parent", 1, None, 0.0, 1.0), ev("child", 2, 1, 0.5, 5.0)]
        problems = validate_chrome_trace(to_chrome_trace(bad))
        assert problems and "escapes parent" in problems[0]

    def test_validator_flags_missing_envelope(self):
        assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]

    def test_numpy_attrs_survive_write(self, tmp_path):
        events = [ev("np", 1, None, 0.0, 1.0, n=np.int64(4), ok=np.bool_(True))]
        p = write_chrome_trace(tmp_path / "t.json", events)
        doc = json.loads(p.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["traceEvents"][0]["args"]["n"] == 4

