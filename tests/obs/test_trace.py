"""Tests for repro.obs.trace: span nesting, disabled path, rendering."""

import asyncio
import threading
import time

import pytest

from repro import obs
from repro.obs.trace import _NULL_SPAN, format_span_tree


class TestDisabledPath:
    def test_span_is_shared_noop_singleton(self):
        assert not obs.tracing_enabled()
        s1 = obs.span("a", big_attr=list(range(10)))
        s2 = obs.span("b")
        assert s1 is s2 is _NULL_SPAN
        assert s1.enabled is False

    def test_noop_span_contextmanager(self):
        with obs.span("a") as s:
            s.set(x=1)  # silently dropped
        assert obs.current_tracer() is None

    def test_no_events_recorded_when_disabled(self):
        tracer = obs.enable_tracing(obs.MemorySink())
        obs.disable_tracing()
        with obs.span("a"):
            pass
        assert tracer.sink.events == []

    def test_overhead_is_one_call_and_test(self):
        """The disabled path must stay allocation-free per call.

        A coarse guard (not a benchmark): a million disabled span() calls
        complete in well under a second on any host this suite runs on,
        which bounds per-call overhead to ~1us — invisible next to the
        ~10us/update pure-Python apply path it instruments.
        """
        t0 = time.perf_counter()
        for _ in range(100_000):
            obs.span("update_engine.apply_stream")
        assert time.perf_counter() - t0 < 1.0


class TestSpanNesting:
    def test_parent_child_ids(self, tracer):
        with obs.span("outer"):
            with obs.span("mid"):
                with obs.span("inner"):
                    pass
        events = {e["name"]: e for e in tracer.sink.events}
        assert events["outer"]["parent_id"] is None
        assert events["mid"]["parent_id"] == events["outer"]["span_id"]
        assert events["inner"]["parent_id"] == events["mid"]["span_id"]

    def test_children_emitted_before_parents(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        assert [e["name"] for e in tracer.sink.events] == ["inner", "outer"]

    def test_siblings_share_parent(self, tracer):
        with obs.span("root"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        events = {e["name"]: e for e in tracer.sink.events}
        assert events["a"]["parent_id"] == events["root"]["span_id"]
        assert events["b"]["parent_id"] == events["root"]["span_id"]

    def test_durations_nest(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.002)
        events = {e["name"]: e for e in tracer.sink.events}
        assert 0 < events["inner"]["duration"] <= events["outer"]["duration"]

    def test_scope_tracks_open_spans(self, tracer):
        assert obs.span("probe").parent_id is None
        with obs.span("a") as a:
            assert obs.span("probe").parent_id == a.span_id
            with obs.span("b") as b:
                assert obs.span("probe").parent_id == b.span_id
            assert obs.span("probe").parent_id == a.span_id
        assert obs.span("probe").parent_id is None


class TestConcurrentScopes:
    """The current span is per thread / per asyncio task, not per process."""

    def test_interleaved_threads_parent_only_within_their_thread(self, tracer):
        a_open, b_done = threading.Event(), threading.Event()

        def thread_a():
            with obs.span("A.outer"):
                a_open.set()
                b_done.wait(10)
                with obs.span("A.inner"):
                    pass

        def thread_b():
            a_open.wait(10)
            with obs.span("B.outer"):
                with obs.span("B.inner"):
                    pass
            b_done.set()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = {e["name"]: e for e in tracer.sink.events}
        for who in "AB":
            assert events[f"{who}.outer"]["parent_id"] is None
            assert events[f"{who}.inner"]["parent_id"] == events[f"{who}.outer"]["span_id"]

    def test_out_of_order_exit_across_threads_leaves_no_dead_parent(self, tracer):
        # A enters, B enters, A exits, B exits — each span held by its own thread.
        gates = {name: (threading.Event(), threading.Event()) for name in "AB"}

        def hold(name):
            entered, leave = gates[name]
            with obs.span(name):
                entered.set()
                leave.wait(10)

        threads = {name: threading.Thread(target=hold, args=(name,)) for name in "AB"}
        for name in "AB":
            threads[name].start()
            gates[name][0].wait(10)
        for name in "AB":
            gates[name][1].set()
            threads[name].join()
        with obs.span("afterwards") as later:
            pass
        assert later.parent_id is None
        assert all(e["parent_id"] is None for e in tracer.sink.events)

    def test_concurrent_asyncio_tasks_keep_separate_parent_chains(self, tracer):
        async def request(name):
            with obs.span(f"{name}.outer"):
                await asyncio.sleep(0.001)  # let the other task open its span
                with obs.span(f"{name}.inner"):
                    await asyncio.sleep(0.001)

        async def main():
            await asyncio.gather(request("x"), request("y"))

        asyncio.run(main())
        events = {e["name"]: e for e in tracer.sink.events}
        for who in "xy":
            assert events[f"{who}.outer"]["parent_id"] is None
            assert events[f"{who}.inner"]["parent_id"] == events[f"{who}.outer"]["span_id"]


class TestSpanAttrs:
    def test_creation_and_set_attrs(self, tracer):
        with obs.span("s", representation="hybrid") as sp:
            sp.set(misses=3, host_seconds=0.5)
        (event,) = tracer.sink.events
        assert event["attrs"] == {
            "representation": "hybrid",
            "misses": 3,
            "host_seconds": 0.5,
        }

    def test_exception_marks_span_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        (event,) = tracer.sink.events
        assert event["attrs"]["error"] == "ValueError"

    def test_manifest_id_stamped(self):
        manifest = obs.RunManifest.capture(seed=9)
        tracer = obs.enable_tracing(obs.MemorySink(), manifest=manifest)
        with obs.span("s"):
            pass
        (event,) = tracer.sink.events
        assert event["manifest_id"] == manifest.id

    def test_no_manifest_no_id(self, tracer):
        with obs.span("s"):
            pass
        assert "manifest_id" not in tracer.sink.events[0]


class TestFormatSpanTree:
    def test_indentation_and_order(self, tracer):
        with obs.span("root"):
            with obs.span("first"):
                with obs.span("deep"):
                    pass
            with obs.span("second"):
                pass
        text = format_span_tree(tracer.sink.events)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  first")
        assert lines[2].startswith("    deep")
        assert lines[3].startswith("  second")

    def test_attrs_shown_inline(self, tracer):
        with obs.span("s", representation="hybrid", n_updates=42):
            pass
        text = format_span_tree(tracer.sink.events)
        assert "representation=hybrid" in text
        assert "n_updates=42" in text

    def test_empty(self):
        assert "no spans" in format_span_tree([])

    def test_orphans_promoted_to_roots(self, tracer):
        with obs.span("root"):
            with obs.span("kid"):
                pass
        events = [e for e in tracer.sink.events if e["name"] == "kid"]
        text = format_span_tree(events)  # parent evicted / filtered out
        assert text.splitlines()[0].startswith("kid")


class TestEnableDisable:
    def test_enable_returns_current(self):
        t = obs.enable_tracing()
        assert obs.current_tracer() is t
        assert obs.tracing_enabled()
        obs.disable_tracing()
        assert obs.current_tracer() is None

    def test_reenable_replaces(self):
        t1 = obs.enable_tracing()
        t2 = obs.enable_tracing()
        assert obs.current_tracer() is t2 is not t1
