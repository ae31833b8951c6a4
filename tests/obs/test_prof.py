"""What a span records: its own attributes, its place in the tree, nothing when off.

Spans carry no memory sampler.  An event's ``attrs`` are exactly what the
code passed at creation or through :meth:`~repro.obs.trace.Span.set` (plus
``error`` when the body raises), parentage follows the open span, and a
disabled span records nothing and leaves no state behind.  Memory is read
from the structures themselves (``memory_bytes()``), not from spans.
"""

import threading
import time

import pytest

from repro import obs
from repro.api import DynamicGraph
from repro.generators import rmat_graph
from repro.obs.trace import _NULL_SPAN, span_forest


class TestLifecycle:
    def test_disabled_by_default(self):
        assert not obs.tracing_enabled()
        assert obs.current_tracer() is None
        assert obs.span("x") is _NULL_SPAN

    def test_enable_is_idempotent(self):
        sink = obs.MemorySink()
        obs.enable_tracing(sink)
        tracer = obs.enable_tracing(sink)
        with obs.span("once"):
            pass
        assert obs.current_tracer() is tracer
        assert [e["name"] for e in sink.events] == ["once"]

    def test_disable_twice_is_safe(self, tracer):
        obs.disable_tracing()
        obs.disable_tracing()
        assert not obs.tracing_enabled()
        assert obs.span("x") is _NULL_SPAN


class TestSpanAttrs:
    def test_span_gains_memory_attrs(self, tracer):
        # A span's attrs are the ones the code gave it, and no others.
        with obs.span("alloc", n=3) as sp:
            blob = bytearray(1 << 20)
            sp.set(reached=7)
        del blob
        assert tracer.sink.events[-1]["attrs"] == {"n": 3, "reached": 7}

    def test_freed_allocation_peaks_but_nets_out(self, tracer):
        # set() overrides a creation attr; the event holds a copy at exit.
        with obs.span("s", n=1) as sp:
            sp.set(n=2)
        sp.attrs["n"] = 3
        assert tracer.sink.events[-1]["attrs"] == {"n": 2}

    def test_parent_peak_covers_child_allocations(self, tracer):
        with obs.span("parent"):
            with obs.span("child"):
                time.sleep(0.002)
        child, parent = tracer.sink.events
        assert (child["name"], parent["name"]) == ("child", "parent")
        assert child["parent_id"] == parent["span_id"] and parent["parent_id"] is None
        assert parent["duration"] >= child["duration"] >= 0.002

    def test_sequential_children_fold_into_parent(self, tracer):
        with obs.span("parent"):
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        events = {e["name"]: e for e in tracer.sink.events}
        forest = span_forest(tracer.sink.events)
        kids = forest[events["parent"]["span_id"]]
        assert [e["name"] for e in kids] == ["first", "second"]
        assert [e["name"] for e in forest[None]] == ["parent"]

    def test_spans_without_profiler_have_no_memory_attrs(self, tracer):
        # The rendered tree shows its listed attrs; memory is not one of them.
        with obs.span("plain", n_queries=4, peak_bytes=9, alloc_bytes=5):
            pass
        tree = obs.format_span_tree(tracer.sink.events)
        assert "n_queries=4" in tree
        assert "peak_bytes" not in tree and "alloc_bytes" not in tree


class TestMeasuredBlock:
    def test_inert_without_profiler(self):
        with obs.span("x", a=1) as sp:
            assert sp.set(b=2) is sp
        assert sp is _NULL_SPAN and not sp.enabled
        assert obs.emit_event("x") is None
        assert obs.current_tracer() is None

    def test_measures_peak(self, tracer):
        t0 = time.perf_counter()
        with obs.span("sleep"):
            time.sleep(0.01)
        event = tracer.sink.events[-1]
        assert event["t_start"] >= t0
        assert 0.01 <= event["duration"] <= time.perf_counter() - t0

    def test_participates_in_span_nesting(self, tracer):
        # A span opened on another thread under bind() parents at the outer span.
        def inner():
            with obs.span("inner"):
                pass

        with obs.span("outer") as outer:
            worker = threading.Thread(target=obs.bind(outer, inner))
            worker.start()
            worker.join()
        events = {e["name"]: e for e in tracer.sink.events}
        assert events["inner"]["parent_id"] == events["outer"]["span_id"]

    def test_rss_delta_tracked_when_available(self, tracer):
        # A raising body marks its span and restores the parent chain.
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        with obs.span("after"):
            pass
        boom, after = tracer.sink.events
        assert boom["attrs"] == {"error": "ValueError"}
        assert after["parent_id"] is None


class TestRssBytes:
    def test_positive_when_available(self):
        # Memory is the structure's own count, and it grows with its arcs.
        small = DynamicGraph.from_edgelist(rmat_graph(8, 2, seed=1))
        large = DynamicGraph.from_edgelist(rmat_graph(8, 16, seed=1))
        assert 0 < small.memory_bytes() < large.memory_bytes()
