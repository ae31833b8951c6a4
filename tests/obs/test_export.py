"""Tests for repro.obs.export: chrome / speedscope / folded exporters."""

import json

import numpy as np

from repro import obs
from repro.obs.export import (
    to_chrome_trace,
    to_folded,
    to_speedscope,
    validate_chrome_trace,
    validate_speedscope,
    write_chrome_trace,
    write_folded,
    write_speedscope,
)


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
    """root[0,10] > mid[1,5] > leaf[2,2], plus a worker span on its own lane."""
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
        assert by_name["root"]["tid"] == 0
        assert by_name["work"]["tid"] == 1
        meta = {e["tid"]: e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert meta == {0: "main", 1: "worker-0"}

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


class TestSpeedscope:
    def test_real_trace_round_trips(self, tmp_path):
        p = write_speedscope(tmp_path / "p.json", traced_events(), name="t")
        doc = json.loads(p.read_text())
        assert validate_speedscope(doc) == []
        names = [f["name"] for f in doc["shared"]["frames"]]
        assert set(names) == {"outer", "inner.a", "inner.b"}

    def test_one_profile_per_lane(self):
        doc = to_speedscope(nested_events())
        assert [p["name"].split("[")[1] for p in doc["profiles"]] == [
            "main]",
            "worker-0]",
        ]
        assert validate_speedscope(doc) == []

    def test_stack_discipline_under_overlap(self):
        # Sibling intervals that overlap (measurement jitter) must still
        # produce a well-formed open/close sequence.
        events = [
            ev("root", 1, None, 0.0, 10.0),
            ev("a", 2, 1, 1.0, 4.0),
            ev("b", 3, 1, 3.0, 4.0),  # overlaps a's tail
        ]
        assert validate_speedscope(to_speedscope(events)) == []

    def test_validator_flags_unbalanced_stack(self):
        doc = to_speedscope(nested_events())
        doc["profiles"][0]["events"].pop()  # drop a close
        assert any("left open" in p for p in validate_speedscope(doc))


class TestFolded:
    def test_paths_counts_and_self_time(self):
        lines = to_folded(nested_events()).splitlines()
        rows = {}
        for line in lines:
            path, count, self_ns = line.rsplit(" ", 2)
            rows[path] = (int(count), int(self_ns))
        assert rows["root;mid;leaf"] == (1, 2_000_000_000)
        assert rows["root;mid"] == (1, 3_000_000_000)  # 5s - 2s child
        # root's self time: 10 - (5 + 6) clamps at zero.
        assert rows["root"] == (1, 0)

    def test_repeated_paths_aggregate(self):
        events = [
            ev("k", 1, None, 0.0, 1.0),
            ev("k", 2, None, 2.0, 3.0),
        ]
        assert to_folded(events) == "k 2 4000000000"

    def test_empty_stream_writes_empty_file(self, tmp_path):
        p = write_folded(tmp_path / "f.txt", [])
        assert p.read_text() == ""

    def test_orphaned_parent_promotes_to_root(self):
        lines = to_folded([ev("lost", 9, 12345, 0.0, 1.0)]).splitlines()
        assert lines == ["lost 1 1000000000"]
