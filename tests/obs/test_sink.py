"""Tests for repro.obs.sink: ring buffer, JSONL round-trip, tee, describe."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.sink import JsonlSink, MemorySink, TeeSink, describe, read_jsonl


class TestMemorySink:
    def test_records_in_order(self):
        sink = MemorySink()
        for i in range(3):
            sink.emit({"type": "span", "i": i})
        assert [e["i"] for e in sink.events] == [0, 1, 2]
        assert len(sink) == 3

    def test_ring_buffer_evicts_oldest(self):
        sink = MemorySink(maxlen=2)
        for i in range(5):
            sink.emit({"i": i})
        assert [e["i"] for e in sink.events] == [3, 4]
        assert sink.n_emitted == 5

    def test_clear(self):
        sink = MemorySink()
        sink.emit({})
        sink.clear()
        assert sink.events == []


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = [
            {"type": "span", "name": "a", "span_id": 1, "parent_id": None,
             "duration": 0.25, "attrs": {"rep": "hybrid"}},
            {"type": "span", "name": "b", "span_id": 2, "parent_id": 1,
             "duration": 0.5, "attrs": {}},
        ]
        with JsonlSink(path) as sink:
            for e in events:
                sink.emit(e)
        assert read_jsonl(path) == events

    def test_numpy_values_coerced(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({
                "count": np.int64(3),
                "rate": np.float64(1.5),
                "ok": np.bool_(True),
                "arr": np.array([1, 2]),
            })
        (event,) = read_jsonl(path)
        assert event == {"count": 3, "rate": 1.5, "ok": True, "arr": [1, 2]}

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({})

    def test_append_mode(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"i": 0})
        with JsonlSink(path, append=True) as sink:
            sink.emit({"i": 1})
        assert [e["i"] for e in read_jsonl(path)] == [0, 1]

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"a": 1})
            sink.emit({"b": 2})
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)


class TestTeeSink:
    def test_fans_out_and_closes(self, tmp_path):
        mem1, mem2 = MemorySink(), MemorySink()
        jsonl = JsonlSink(tmp_path / "t.jsonl")
        tee = TeeSink(mem1, mem2, jsonl)
        tee.emit({"x": 1})
        tee.close()
        assert mem1.events == mem2.events == [{"x": 1}]
        assert read_jsonl(tmp_path / "t.jsonl") == [{"x": 1}]
        with pytest.raises(ValueError):
            jsonl.emit({})


class TestDescribe:
    def test_tree_plus_counters(self, tracer):
        with obs.span("root"):
            with obs.span("child"):
                pass
        obs.METRICS.inc("update_engine.arc_ops", 7)
        text = describe(tracer.sink.events, metrics=obs.METRICS)
        assert "root" in text and "child" in text
        assert "top counters" in text
        assert "update_engine.arc_ops" in text

    def test_without_metrics(self, tracer):
        with obs.span("root"):
            pass
        text = describe(tracer.sink.events)
        assert "root" in text and "top counters" not in text

    def test_top_keeps_busiest(self):
        reg = obs.MetricsRegistry()
        reg.inc("small", 1)
        reg.inc("big", 1000)
        out = describe([], metrics=reg, top=1)
        assert "-- top counters (1 of 2) --" in out
        assert "big" in out and "small" not in out

    def test_empty_registry_prints_no_counter_table(self):
        assert "top counters" not in describe([], metrics=obs.MetricsRegistry())


class TestNumpyThroughFullTracePath:
    def test_span_attrs_with_numpy_scalars_reach_jsonl(self, tmp_path):
        # Regression: kernels stamp span attrs with np.int64 / np.bool_
        # (e.g. sp.set(hops=np.int64(...))); the JSONL sink must coerce
        # them instead of crashing the whole traced run at emit time.
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        obs.enable_tracing(sink)
        try:
            with obs.span(
                "kernel",
                n=np.int64(128),
                identical=np.bool_(True),
                rate=np.float64(0.5),
            ) as sp:
                sp.set(hops=np.int64(7), sizes=np.array([3, 4]))
        finally:
            obs.disable_tracing()
            sink.close()
        (event,) = read_jsonl(path)
        assert event["attrs"] == {
            "n": 128,
            "identical": True,
            "rate": 0.5,
            "hops": 7,
            "sizes": [3, 4],
        }
