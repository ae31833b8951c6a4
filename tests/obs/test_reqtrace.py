"""Tests for repro.obs.reqtrace: sampling, span trees, propagation, stores."""

import threading

import pytest

from repro import obs
from repro.obs import activate, bind, current_tracer, span
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import RequestTracer
from repro.obs.trace import _NULL_SPAN


def tracer(**kw):
    kw.setdefault("registry", MetricsRegistry())
    return RequestTracer(**kw)


class TestSampling:
    def test_head_sampling_is_deterministic(self):
        t = tracer(head_every=3, slow_threshold_seconds=60.0)
        kept = [t.finish(t.start("q"))["sampled"] for _ in range(7)]
        assert kept == ["head", "none", "none", "head", "none", "none", "head"]

    def test_head_zero_disables_head_sampling(self):
        t = tracer(head_every=0, slow_threshold_seconds=60.0)
        assert t.finish(t.start("q"))["sampled"] == "none"
        assert t.sampled() == []

    def test_tail_always_keeps_slow_requests(self):
        t = tracer(head_every=0, slow_threshold_seconds=0.0)
        record = t.finish(t.start("q"))
        assert record["sampled"] == "tail" and record["slow"]
        assert "events" in record
        assert [r["trace_id"] for r in t.slow()] == [record["trace_id"]]

    def test_unsampled_summary_carries_no_events(self):
        t = tracer(head_every=0, slow_threshold_seconds=60.0)
        summary = t.finish(t.start("q"))
        assert "events" not in summary
        assert t.recent()[0]["trace_id"] == summary["trace_id"]

    def test_counters(self):
        reg = MetricsRegistry()
        t = tracer(registry=reg, head_every=1, slow_threshold_seconds=0.0)
        t.finish(t.start("q"))
        counters = reg.snapshot()["counters"]
        assert counters["obs.reqtrace.requests"] == 1
        assert counters["obs.reqtrace.sampled"] == 1
        assert counters["obs.reqtrace.slow"] == 1

    def test_trace_ids_are_unique_and_stamped(self):
        t = tracer(head_every=1)
        a, b = t.start("q"), t.start("q")
        assert a.trace_id != b.trace_id
        assert a.request_id == 1 and b.request_id == 2
        with activate(a.root), span("child"):
            pass
        (child,) = t.finish(a)["events"][1:]
        assert child["attrs"]["trace_id"] == a.trace_id
        assert child["attrs"]["request_id"] == 1

    def test_config_reports_bounds(self):
        t = tracer(head_every=4, slow_threshold_seconds=0.5, max_slow=9)
        cfg = t.config()
        assert cfg["head_every"] == 4
        assert cfg["slow_threshold_seconds"] == 0.5
        assert cfg["max_slow"] == 9


class TestSpanTree:
    def test_nested_spans_parent_correctly(self):
        t = tracer(head_every=1)
        trace = t.start("route")
        with activate(trace.root), span("outer"):
            with span("inner", k=1):
                pass
        record = t.finish(trace)
        by_name = {e["name"]: e for e in record["events"]}
        assert by_name["route"]["parent_id"] is None
        assert by_name["outer"]["parent_id"] == by_name["route"]["span_id"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["inner"]["attrs"]["k"] == 1
        assert by_name["inner"]["attrs"]["trace_id"] == trace.trace_id

    def test_span_error_attribute_on_exception(self):
        t = tracer(head_every=1)
        trace = t.start("route")
        with pytest.raises(ValueError), activate(trace.root), span("boom"):
            raise ValueError("x")
        record = t.finish(trace, status=500, error="ValueError")
        boom = next(e for e in record["events"] if e["name"] == "boom")
        assert boom["attrs"]["error"] == "ValueError"
        assert record["status"] == 500 and record["error"] == "ValueError"

    def test_exported_tree_validates_as_chrome_trace(self):
        t = tracer(head_every=1)
        trace = t.start("route")
        with activate(trace.root), span("exec"):
            with span("kernel"):
                pass
        record = t.finish(trace)
        assert validate_chrome_trace(to_chrome_trace(record["events"])) == []

    def test_span_cap_counts_drops(self):
        t = tracer(head_every=1, max_spans=2)
        trace = t.start("route")
        with activate(trace.root):
            for _ in range(5):
                with span("s"):
                    pass
        record = t.finish(trace)
        assert record["n_spans"] == 3  # root + 2 kept
        assert record["n_dropped_spans"] == 3
        assert len(record["events"]) == 3

    def test_stores_are_bounded(self):
        t = tracer(head_every=0, slow_threshold_seconds=0.0, max_slow=2, max_recent=3)
        for _ in range(5):
            t.finish(t.start("q"))
        assert len(t.slow()) == 2 and len(t.recent()) == 3
        # oldest evicted, newest kept
        assert t.slow()[-1]["request_id"] == 5


class TestPropagation:
    def test_span_is_noop_singleton_without_an_active_scope(self):
        assert current_tracer() is None
        sp = span("nothing", k=1)
        assert sp is _NULL_SPAN and not sp.enabled
        with sp:
            sp.set(more=2)  # swallowed, not recorded

    def test_activate_scopes_the_context(self):
        t = tracer(head_every=1)
        trace = t.start("route")
        with activate(trace.root):
            assert current_tracer() is trace
            with span("inside"):
                pass
        assert current_tracer() is None
        assert span("outside") is _NULL_SPAN
        record = t.finish(trace)
        assert [e["name"] for e in record["events"]] == ["route", "inside"]

    def test_innermost_scope_wins_over_the_process_tracer(self):
        process = obs.enable_tracing()
        t = tracer(head_every=1)
        trace = t.start("route")
        with span("process.outer"):
            with activate(trace.root), span("request.kernel"):
                pass
            with span("process.inner"):
                pass
        assert [e["name"] for e in process.sink.events] == ["process.inner", "process.outer"]
        request, kernel = t.finish(trace)["events"]
        # one span, one tree: the request's span never parents into the other tracer
        assert kernel["name"] == "request.kernel"
        assert kernel["parent_id"] == request["span_id"]

    def test_bind_carries_the_root_into_another_thread(self):
        t = tracer(head_every=1)
        trace = t.start("route")

        def work():
            assert current_tracer() is trace
            with span("threaded"):
                pass

        thread = threading.Thread(target=bind(trace.root, work))
        thread.start()
        thread.join()
        assert current_tracer() is None  # binding never leaks out
        record = t.finish(trace)
        threaded = next(e for e in record["events"] if e["name"] == "threaded")
        assert threaded["parent_id"] == trace.root.span_id
