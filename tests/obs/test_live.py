"""What a metrics reader needs from the registry, and the pool's failure path.

A reader of the process registry (a ``/metrics`` scraper, a benchmark that
diffs two snapshots) asks for rates from two snapshots, levels, quantiles,
bounded memory and safety across a reset; :class:`MetricsRegistry`,
:func:`snapshot_delta` and :class:`Histogram` answer them.  Whether a pool
worker is dead or wedged is answered by the pool itself: a crash or a round
timeout raises :class:`~repro.errors.WorkerCrashError`, and
:meth:`WorkerPool.restart` recovers.
"""

import threading
import time

import pytest

from repro.errors import WorkerCrashError
from repro.obs import MemorySink, disable_tracing, enable_tracing
from repro.obs.metrics import BUCKET_BOUNDS, METRICS, MetricsRegistry, snapshot_delta
from repro.obs.sink import describe
from repro.parallel.pool import TaskSpec, WorkerPool


def rate(before: dict, after: dict, name: str, seconds: float) -> float:
    """A counter's rate between two snapshots taken ``seconds`` apart."""
    return snapshot_delta(before, after)["counters"].get(name, 0) / seconds


class TestMetricWindow:
    def test_counter_rollup_describes_rates(self):
        reg = MetricsRegistry()
        snaps = [reg.snapshot()]
        for n in (10, 30):
            reg.inc("c", n)
            snaps.append(reg.snapshot())
        assert snaps[-1]["counters"]["c"] == 40
        assert [rate(a, b, "c", 1.0) for a, b in zip(snaps, snaps[1:])] == [10.0, 30.0]

    def test_gauge_rollup_describes_levels(self):
        reg = MetricsRegistry()
        reg.set("g", 5.0)
        first = reg.snapshot()
        for level in (1.0, 3.0):
            reg.set("g", level)
        last = reg.snapshot()
        assert last["gauges"]["g"] == 3.0  # the level, not a sum
        assert snapshot_delta(first, last)["gauges"] == {"g": 3.0}
        assert snapshot_delta(last, reg.snapshot())["gauges"] == {}  # unchanged: omitted

    def test_window_is_bounded(self):
        reg = MetricsRegistry()
        for i in range(20_000):
            reg.observe("h", float(i))
        h = reg.histogram("h")
        assert len(h.buckets) == len(BUCKET_BOUNDS) + 1  # fixed, whatever the count
        summary = reg.snapshot()["histograms"]["h"]
        assert summary["count"] == 20_000 and len(summary["buckets"]) == len(h.buckets)
        assert (summary["min"], summary["max"]) == (0.0, 19_999.0)

    def test_quantiles_interpolate_over_window(self):
        reg = MetricsRegistry()
        for v in range(1, 102):
            reg.observe("h", float(v))
        h = reg.histogram("h")
        # Within the √2 bucket ladder's resolution of the exact answer.
        assert h.quantile(0.5) == pytest.approx(51.0, rel=0.2)
        assert h.quantile(0.99) == pytest.approx(100.0, rel=0.2)
        assert h.quantile(0.0) == 1.0 and h.quantile(1.0) == 101.0
        assert h.quantile(0.5) < h.quantile(0.99)

    def test_empty_and_single_sample_rollups_are_finite(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert reg.snapshot()["histograms"]["h"] == {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
        }
        assert h.quantile(0.5) == 0.0
        reg.observe("h", 5.0)
        assert h.quantile(0.5) == h.quantile(0.99) == 5.0
        snap = reg.snapshot()
        assert snapshot_delta(snap, snap) == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_counter_rate_never_negative_after_reset(self):
        reg = MetricsRegistry()
        reg.inc("c", 100)
        reg.observe("h", 1.0)
        before = reg.snapshot()
        reg.reset()  # a reset between two reads
        reg.inc("c", 10)
        delta = snapshot_delta(before, reg.snapshot())
        assert "c" not in delta["counters"] and "h" not in delta["histograms"]
        assert rate(before, reg.snapshot(), "c", 1.0) == 0.0


class TestTimeSeriesStore:
    def test_series_cap_drops_new_not_old(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("b")
        reg.reset()  # names stay registered: no series is dropped
        assert sorted(reg.snapshot()["counters"]) == ["a", "b"]
        reg.inc("a", 2)  # an existing series keeps growing
        assert reg.snapshot()["counters"] == {"a": 2, "b": 0}

    def test_rollups_keyed_by_name(self):
        reg = MetricsRegistry()
        reg.set("g", 1.5)
        snap = reg.snapshot()
        assert snap["gauges"]["g"] == 1.5
        assert "missing" not in snap["gauges"] and "missing" not in snap["counters"]


class TestTelemetryCollector:
    def test_tick_records_all_metric_kinds(self):
        reg = MetricsRegistry()
        reg.inc("c", 3)
        reg.set("g", 2.5)
        reg.observe("h", 0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 2.5}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["p50"] == 0.5

    def test_rates_derive_from_consecutive_ticks(self):
        reg = MetricsRegistry()
        reg.inc("ops", 10)
        first = reg.snapshot()
        reg.inc("ops", 20)
        reg.observe("lat", 0.25)
        second = reg.snapshot()
        assert rate(first, second, "ops", 2.0) == pytest.approx(10.0)  # 20 / 2 s
        assert snapshot_delta(first, second)["histograms"]["lat"]["count"] == 1

    def test_background_thread_ticks(self):
        # A reader on another thread sees counters only ever grow.
        reg = MetricsRegistry()
        stop = threading.Event()
        seen: list[int] = []

        def read():
            while not stop.is_set():
                seen.append(reg.snapshot()["counters"].get("ops", 0))

        reader = threading.Thread(target=read)
        reader.start()
        try:
            for _ in range(20_000):
                reg.inc("ops")
                reg.observe("lat", 1e-3)
        finally:
            stop.set()
            reader.join()
        assert seen and seen == sorted(seen)
        assert reg.snapshot()["counters"]["ops"] == 20_000

    def test_attached_watchdog_checked_each_tick(self):
        # Each worker task's delta lands under its worker and the combined rollup.
        parent, worker = MetricsRegistry(), MetricsRegistry()
        for _ in range(2):
            before = worker.snapshot()
            worker.inc("kernel.ops", 5)
            worker.set("kernel.level", 100.0)
            parent.merge_snapshot(
                snapshot_delta(before, worker.snapshot()), prefix="worker0", rollup="workers"
            )
        counters = parent.snapshot()["counters"]
        assert counters["worker0.kernel.ops"] == counters["workers.kernel.ops"] == 10
        assert parent.gauge("workers.kernel.level").value == 100.0

    def test_module_level_enable_disable(self):
        METRICS.inc("reset.check", 3)
        METRICS.set("reset.level", 2.0)
        METRICS.observe("reset.lat", 0.5)
        METRICS.reset()
        snap = METRICS.snapshot()
        assert snap["counters"]["reset.check"] == 0
        assert snap["gauges"]["reset.level"] == 0.0
        assert snap["histograms"]["reset.lat"]["count"] == 0
        METRICS.observe("reset.lat", 0.25)  # fresh extremes after the reset
        assert METRICS.histogram("reset.lat").quantile(0.0) == 0.25


class TestWatchdog:
    def test_stalled_worker_alerts_once_per_task(self):
        with WorkerPool(1, timeout=0.3) as pool:
            with pytest.raises(WorkerCrashError, match="timed out") as exc:
                pool.run_tasks([TaskSpec("selftest.sleep", {"seconds": 2.0})])
            assert "0/1 results" in str(exc.value)

    def test_stale_heartbeat_counts_toward_stall(self):
        # The other worker answered; the round still times out on the wedged one.
        with WorkerPool(2, timeout=0.5) as pool:
            with pytest.raises(WorkerCrashError, match="1/2 results"):
                pool.run_tasks([
                    TaskSpec("selftest.sleep", {"seconds": 3.0}),
                    TaskSpec("selftest.echo", {"value": 1}),
                ])

    def test_idle_fast_worker_never_alerts(self):
        # The timeout bounds a round, not the time a pool sits idle.
        with WorkerPool(1, timeout=0.3) as pool:
            assert pool.run_tasks([TaskSpec("selftest.echo", {"value": 1})])[0]["echo"] == 1
            time.sleep(0.5)
            assert pool.run_tasks([TaskSpec("selftest.echo", {"value": 2})])[0]["echo"] == 2

    def test_memory_episode_resets_when_rss_drops(self):
        # A task's gauge ships back with its result: the worker's series
        # follows the last task, the rollup keeps the high-water mark.
        with WorkerPool(1, timeout=30.0) as pool:
            pool.run_tasks([TaskSpec("selftest.tick", {"n": 5})])
            high = METRICS.gauge("worker0.selftest.level").value
            pool.run_tasks([TaskSpec("selftest.tick", {"n": 1})])
            low = METRICS.gauge("worker0.selftest.level").value
        assert (high, low) == (5.0, 1.0)
        assert METRICS.gauge("workers.selftest.level").value == 5.0

    def test_dead_worker_alert_carries_exitcode(self):
        pool = WorkerPool(1, timeout=30.0)
        try:
            with pytest.raises(WorkerCrashError, match=r"repro-worker-0 \(exit 11\)"):
                pool.run_tasks([TaskSpec("selftest.exit", {"code": 11})])
        finally:
            pool.shutdown()

    def test_alerts_enter_trace_stream_and_describe(self):
        sink = MemorySink()
        enable_tracing(sink)
        try:
            with WorkerPool(1, timeout=30.0) as pool:
                with pytest.raises(WorkerCrashError, match="ValueError: wedged"):
                    pool.run_tasks([TaskSpec("selftest.fail", {"message": "wedged"})])
        finally:
            disable_tracing()
        # The failed task's span is adopted into the parent's stream.
        names = [e["name"] for e in sink.events]
        assert "parallel.selftest.fail" in names
        assert "parallel.selftest.fail" in describe(sink.events)
