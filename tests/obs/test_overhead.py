"""Overhead contracts of the observability stack.

Two guarantees are pinned here:

* **Disabled is (near) free.**  The kernels bind ``span``/``METRICS`` at
  import time, so instrumentation cannot be patched away — instead we
  bound what it *costs*: the measured per-call price of a disabled
  ``span()`` times the number of instrumentation sites a real workload
  hits must stay far below the workload's own runtime.  This is a
  computed bound, not a noise-prone A/B timing, so it is stable in CI.
* **The live collector never changes results.**  Enabling the background
  collector (satellite thread, scrapes, rollups) must leave kernel
  outputs bit-identical — telemetry observes, it never participates.

The <2% *enabled*-collector wall-clock gate lives in
``benchmarks/test_obs_overhead.py``, outside tier-1: its paired timings
need a machine that is not also running the rest of the suite.
"""

import threading
import time

import numpy as np

from repro import obs
from repro.api import DynamicGraph
from repro.generators import mixed_stream, rmat_graph
from repro.obs.trace import _NULL_SPAN


def run_workload(scale=8, updates=400):
    """A small end-to-end slice; returns bit-comparable outputs."""
    graph = rmat_graph(scale, 4, seed=5, ts_range=(1, 50))
    g = DynamicGraph.from_edgelist(graph, representation="hybrid")
    res = g.apply(mixed_stream(graph, updates, insert_frac=0.75, seed=2))
    comps = g.connected_components()
    return res.n_updates, comps.labels, comps.n_passes


class TestDisabledOverhead:
    def test_disabled_span_is_the_shared_noop_singleton(self):
        assert not obs.tracing_enabled()
        assert obs.span("anything", attr=1) is _NULL_SPAN
        assert obs.emit_event("anything") is None

    def test_disabled_span_per_call_cost_is_sub_microsecond_scale(self):
        assert not obs.tracing_enabled()
        n = 100_000
        span = obs.span
        t0 = time.perf_counter()
        for _ in range(n):
            with span("x"):
                pass
        per_call = (time.perf_counter() - t0) / n
        # Generous ceiling (~10x typical): a no-op span costs well under
        # 5us even on slow shared CI machines.
        assert per_call < 5e-6, f"disabled span() cost {per_call * 1e6:.2f}us/call"

    def test_disabled_obs_overhead_bounded_below_2pct_of_workload(self):
        # Count the instrumentation sites a real workload actually hits...
        sink = obs.MemorySink()
        tracer = obs.enable_tracing(sink)
        try:
            run_workload()
            n_sites = tracer.n_events
        finally:
            obs.disable_tracing()
        assert n_sites > 0

        # ...measure the disabled per-call price...
        n = 50_000
        span = obs.span
        t0 = time.perf_counter()
        for _ in range(n):
            with span("x"):
                pass
        per_call = (time.perf_counter() - t0) / n

        # ...and time the workload with everything off.
        assert not obs.tracing_enabled()
        assert not obs.live_telemetry_enabled()
        assert not obs.memory_profiling_enabled()
        t0 = time.perf_counter()
        run_workload()
        workload_s = time.perf_counter() - t0

        instrumentation_s = n_sites * per_call
        assert instrumentation_s < 0.02 * workload_s, (
            f"{n_sites} sites x {per_call * 1e6:.2f}us = "
            f"{instrumentation_s * 1e3:.2f}ms vs workload {workload_s * 1e3:.0f}ms"
        )


class TestZeroResidue:
    def test_full_stack_disable_leaves_nothing_behind(self):
        tracer = obs.enable_tracing(obs.MemorySink())
        collector = obs.enable_live_telemetry(interval=0.01)
        obs.enable_memory_profiling()
        with obs.span("residue.check"):
            obs.METRICS.inc("residue.counter")
        deadline = time.monotonic() + 2.0
        while collector.n_ticks == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        obs.disable_memory_profiling()
        obs.disable_live_telemetry()
        obs.disable_tracing()

        assert not obs.tracing_enabled() and obs.current_tracer() is None
        assert not obs.live_telemetry_enabled() and obs.current_collector() is None
        assert not obs.memory_profiling_enabled()
        assert not collector.running
        assert obs.span("x") is _NULL_SPAN and obs.emit_event("x") is None
        lingering = [
            t.name for t in threading.enumerate()
            if t.name.startswith("repro-telemetry")
        ]
        assert lingering == []
        assert tracer.n_events == 1  # only the span from the enabled window


class TestCollectorNeutrality:
    def test_results_bit_identical_with_collector_on(self):
        n_off, labels_off, passes_off = run_workload()
        obs.enable_live_telemetry(interval=0.005)
        try:
            n_on, labels_on, passes_on = run_workload()
        finally:
            obs.disable_live_telemetry()
        assert n_on == n_off and passes_on == passes_off
        assert np.array_equal(labels_on, labels_off)
