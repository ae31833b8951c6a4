"""What a metrics reader needs from the registry, and the pool's failure path.

A reader of the process registry (a ``/metrics.json`` scraper, a benchmark that
diffs two snapshots) asks for rates from two snapshots, levels, quantiles,
bounded memory and safety across a reset; :class:`MetricsRegistry` and
:class:`Histogram` answer them.  Whether a pool worker is dead or wedged is
answered by the pool itself: a crash, a raising task or a round timeout
raises :class:`~repro.errors.WorkerCrashError` naming what went wrong.
"""

import threading
import time

import pytest

from repro.errors import WorkerCrashError
from repro.obs.metrics import BUCKET_BOUNDS, METRICS, MetricsRegistry
from repro.parallel.pool import TaskSpec, WorkerPool


def rate(before: dict, after: dict, name: str, seconds: float) -> float:
    """A counter's rate between two snapshots taken ``seconds`` apart."""
    return (after["counters"].get(name, 0) - before["counters"].get(name, 0)) / seconds


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
        assert first["gauges"]["g"] == 5.0
        assert last["gauges"]["g"] == 3.0  # the level, not a sum

    def test_window_is_bounded(self):
        reg = MetricsRegistry()
        for i in range(20_000):
            reg.observe("h", float(i))
        h = reg.histogram("h")
        assert len(h.buckets) == len(BUCKET_BOUNDS) + 1  # fixed, whatever the count
        assert sum(h.buckets) == 20_000
        summary = reg.snapshot()["histograms"]["h"]
        assert summary["count"] == 20_000 and "buckets" not in summary
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
        assert "lat" not in first["histograms"] and second["histograms"]["lat"]["count"] == 1

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


class TestPoolFailures:
    def test_round_timeout_counts_missing_results(self):
        with WorkerPool(1, timeout=0.3) as pool:
            with pytest.raises(WorkerCrashError, match="timed out") as exc:
                pool.run_tasks([TaskSpec("selftest.sleep", {"seconds": 2.0})])
            assert "0/1 results" in str(exc.value)

    def test_one_wedged_worker_times_the_round_out(self):
        # The other worker answered; the round still times out on the wedged one.
        with WorkerPool(2, timeout=0.5) as pool:
            with pytest.raises(WorkerCrashError, match="1/2 results"):
                pool.run_tasks([
                    TaskSpec("selftest.sleep", {"seconds": 3.0}),
                    TaskSpec("selftest.echo", {"value": 1}),
                ])

    def test_timeout_bounds_a_round_not_idle_time(self):
        with WorkerPool(1, timeout=0.3) as pool:
            assert pool.run_tasks([TaskSpec("selftest.echo", {"value": 1})])[0]["echo"] == 1
            time.sleep(0.5)
            assert pool.run_tasks([TaskSpec("selftest.echo", {"value": 2})])[0]["echo"] == 2

    def test_dead_worker_error_carries_exitcode(self):
        pool = WorkerPool(1, timeout=30.0)
        try:
            with pytest.raises(WorkerCrashError, match=r"repro-worker-0 \(exit 11\)"):
                pool.run_tasks([TaskSpec("selftest.exit", {"code": 11})])
        finally:
            pool.shutdown()

    def test_raising_task_error_carries_worker_traceback(self):
        with WorkerPool(1, timeout=30.0) as pool:
            with pytest.raises(WorkerCrashError, match="ValueError: wedged") as exc:
                pool.run_tasks([TaskSpec("selftest.fail", {"message": "wedged"})])
        assert "Traceback (most recent call last)" in str(exc.value)
        assert "_selftest_fail" in str(exc.value)
