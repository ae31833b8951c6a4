"""Overhead contracts of the observability stack.

Two guarantees are pinned here:

* **Disabled is (near) free.**  The kernels bind ``span``/``METRICS`` at
  import time, so instrumentation cannot be patched away — instead we
  bound what it *costs*: the measured per-call price of a disabled
  ``span()`` times the number of instrumentation sites a real workload
  hits must stay far below the workload's own runtime.  This is a
  computed bound, not a noise-prone A/B timing, so it is stable in CI.
* **A scraper never changes results.**  Rendering ``/metrics.json`` from a
  background thread while a workload runs must leave kernel outputs
  bit-identical — telemetry observes, it never participates.
* **``repro serve`` leaves nothing behind.**  Its shutdown stops every
  thread it started, and it starts no worker process.

The <2% scraped wall-clock gate lives in ``benchmarks/test_obs_overhead.py``,
outside tier-1: its paired timings need a machine that is not also running
the rest of the suite.
"""

import json
import multiprocessing
import threading
import time
import urllib.request

import numpy as np

from repro import obs
from repro.__main__ import main
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
        t0 = time.perf_counter()
        run_workload()
        workload_s = time.perf_counter() - t0

        instrumentation_s = n_sites * per_call
        assert instrumentation_s < 0.02 * workload_s, (
            f"{n_sites} sites x {per_call * 1e6:.2f}us = "
            f"{instrumentation_s * 1e3:.2f}ms vs workload {workload_s * 1e3:.0f}ms"
        )


class TestZeroResidue:
    def test_full_stack_disable_leaves_nothing_behind(self, tmp_path):
        tracer = obs.enable_tracing(obs.MemorySink())
        with obs.span("residue.check"):
            obs.METRICS.inc("residue.counter")
        obs.disable_tracing()
        assert not obs.tracing_enabled() and obs.current_tracer() is None
        assert obs.span("x") is _NULL_SPAN and obs.emit_event("x") is None
        assert tracer.n_events == 1  # only the span from the enabled window
        assert tracer.sink.events[0]["attrs"] == {}  # no sampler decorates spans

        # A service run answers /components in-process: no worker process
        # starts, and every thread is gone once the command returns.
        url_file, report_file = tmp_path / "url.txt", tmp_path / "report.json"
        before = set(multiprocessing.active_children())
        threads_before = set(threading.enumerate())
        workers: list = []

        def drive():
            deadline = time.monotonic() + 30
            while not (url_file.exists() and url_file.read_text().strip()):
                assert time.monotonic() < deadline, "serve never published its URL"
                time.sleep(0.02)
            url = url_file.read_text().strip()
            with urllib.request.urlopen(url + "/components", timeout=30) as r:
                assert r.status == 200
            workers.extend(set(multiprocessing.active_children()) - before)

        driver = threading.Thread(target=drive)
        driver.start()
        assert main([
            "serve", "--scale", "7", "--edge-factor", "2",
            "--duration", "3", "--url-file", str(url_file),
            "--report", str(report_file), "--quiet",
        ]) == 0
        driver.join()

        report = json.loads(report_file.read_text())
        assert sorted(report) == [
            "max_epoch_lag", "query_latency_seconds", "reqtrace",
            "scale", "stats", "url",
        ]
        assert report["stats"]["queries"] >= 1
        assert "sharded" not in report["stats"]
        names = [t.name for t in threading.enumerate()]
        assert not [n for n in names if n.startswith(("repro-telemetry", "repro-heartbeat"))]
        started = [t.name for t in set(threading.enumerate()) - threads_before]
        assert not [n for n in started if n.startswith("repro-")], started
        assert workers == [] and obs.METRICS.counter("parallel.pools_started").value == 0
        assert set(multiprocessing.active_children()) <= before


class TestCollectorNeutrality:
    def test_results_bit_identical_with_collector_on(self):
        n_off, labels_off, passes_off = run_workload()
        stop, rendered, renders = threading.Event(), threading.Event(), []

        def scrape():
            # Render before waiting: the workload starts once a render has landed.
            while True:
                renders.append(json.dumps({"snapshot": obs.METRICS.snapshot()}, sort_keys=True))
                rendered.set()
                if stop.wait(0.005):
                    return

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            assert rendered.wait(30)
            n_on, labels_on, passes_on = run_workload()
        finally:
            stop.set()
            scraper.join()
        assert renders
        assert n_on == n_off and passes_on == passes_off
        assert np.array_equal(labels_on, labels_off)
