"""Worker telemetry aggregation: worker{i}./workers. rollups + pool health."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adjacency.csr import build_csr
from repro.core.connectivity import ConnectivityIndex
from repro.errors import WorkerCrashError
from repro.generators.rmat import rmat_graph
from repro.obs import METRICS
from repro.parallel.backend import ProcessBackend
from repro.parallel.pool import TaskSpec, WorkerPool


def tick_specs(n_tasks, n=3):
    return [TaskSpec("selftest.tick", {"n": n}) for _ in range(n_tasks)]


class TestCounterRollup:
    def test_worker_counters_land_under_prefix_and_rollup(self, pool):
        METRICS.reset()
        outs = pool.run_tasks(tick_specs(4, n=3))
        assert outs == [3, 3, 3, 3]
        snap = METRICS.snapshot()["counters"]
        # Deterministic i % p routing: 2 tasks per worker of the 2-worker pool.
        assert snap["worker0.selftest.ticks"] == 6
        assert snap["worker1.selftest.ticks"] == 6
        assert snap["workers.selftest.ticks"] == 12

    def test_worker_histograms_merge(self, pool):
        METRICS.reset()
        pool.run_tasks(tick_specs(4, n=2))
        h = METRICS.histogram("workers.selftest.lat").summary()
        assert h["count"] == 4 and h["total"] == 8.0

    def test_rollup_accumulates_across_rounds(self, pool):
        METRICS.reset()
        pool.run_tasks(tick_specs(2, n=1))
        pool.run_tasks(tick_specs(2, n=1))
        assert METRICS.counter("workers.selftest.ticks").value == 4


class TestPoolHealth:
    def test_dispatch_and_completion_counters(self, pool):
        METRICS.reset()
        pool.run_tasks(tick_specs(4))
        snap = METRICS.snapshot()
        assert snap["counters"]["parallel.pool.tasks_dispatched"] == 4
        assert snap["counters"]["parallel.pool.tasks_completed"] == 4
        # reset() keeps registered names, so earlier crash tests may have
        # registered the error counter — its value must still be zero.
        assert snap["counters"].get("parallel.pool.task_errors", 0) == 0

    def test_task_and_queue_wait_histograms(self, pool):
        METRICS.reset()
        pool.run_tasks(tick_specs(3))
        snap = METRICS.snapshot()["histograms"]
        assert snap["parallel.pool.task_seconds"]["count"] == 3
        wait = snap["parallel.pool.queue_wait_seconds"]
        assert wait["count"] == 3 and wait["min"] >= 0.0

    def test_workers_gauge_set_on_start(self):
        METRICS.reset()
        with WorkerPool(2, timeout=60.0) as p:
            p.run_tasks(tick_specs(1))
            assert METRICS.gauge("parallel.pool.workers").value == 2.0

    def test_error_path_ticks_task_errors_and_relays_telemetry(self):
        with WorkerPool(2, timeout=60.0) as p:
            p.run_tasks(tick_specs(1))  # warm
            METRICS.reset()
            with pytest.raises(WorkerCrashError):
                p.run_tasks([TaskSpec("selftest.fail", {"message": "boom"})])
            snap = METRICS.snapshot()["counters"]
            assert snap["parallel.pool.task_errors"] == 1
            # The failing task still ships its exec-time telemetry.
            assert METRICS.histogram("parallel.pool.task_seconds").summary()["count"] == 1


class TestWorkerMemory:
    """Worker gauges: per-worker last values, a max rollup, only what a task changed."""

    def test_memory_peaks_shipped_when_profiling_enabled(self, pool):
        # Worker gauges land per worker and under the rollup.  The second
        # round changes the level, so its delta carries the gauge whatever
        # an earlier test left in the session pool's workers.
        METRICS.reset()
        pool.run_tasks(tick_specs(2, n=1))
        pool.run_tasks([TaskSpec("selftest.tick", {"n": 7}), *tick_specs(1, n=6)])
        snap = METRICS.snapshot()["gauges"]
        assert snap["worker0.selftest.level"] == 7.0
        assert snap["worker1.selftest.level"] == 6.0
        assert snap["workers.selftest.level"] == 7.0

    def test_no_memory_telemetry_when_profiling_disabled(self, pool):
        # A task ships only what it changed in its worker's registry: the
        # only worker gauges are the task's own (no memory gauge).
        METRICS.reset()
        pool.run_tasks(tick_specs(2, n=1))
        pool.run_tasks(tick_specs(2, n=2))
        gauges = {k for k, v in METRICS.snapshot()["gauges"].items()
                  if k.startswith("worker") and v}
        assert gauges == {
            "worker0.selftest.level", "worker1.selftest.level", "workers.selftest.level",
        }


class TestSerialEqualityContract:
    def test_worker_connectivity_counters_equal_serial(self):
        # The acceptance contract: a process-backend query batch ticks the
        # same ``connectivity.*`` counters as the serial batch, and all of
        # them in the parent — it sends the pool no task, so no worker
        # counter and no ``workers.`` rollup appears.
        csr = build_csr(rmat_graph(9, 6, seed=5))
        index = ConnectivityIndex.from_csr(csr)
        rng = np.random.default_rng(11)
        us = rng.integers(0, csr.n, size=3000)
        vs = rng.integers(0, csr.n, size=3000)

        METRICS.reset()
        serial = index.query_batch(us, vs)
        serial_hops = METRICS.counter("connectivity.hops").value
        serial_queries = METRICS.counter("connectivity.queries").value
        serial_chased = METRICS.counter("connectivity.hops_chased").value
        assert serial_queries == 3000 and serial_hops > 0
        # Resolved: the 512 vertices' depths walked once, fewer than the
        # depths of the 6 000 endpoints the batch counts.
        assert 0 < serial_chased < serial_hops

        METRICS.reset()
        with ProcessBackend(2) as be:
            be.pool.start()
            par = index.query_batch(us, vs, backend=be)
        snap = METRICS.snapshot()["counters"]
        assert np.array_equal(par.connected, serial.connected)
        assert par.total_hops == serial_hops
        assert snap["connectivity.hops"] == serial_hops
        assert snap["connectivity.queries"] == serial_queries
        assert snap["connectivity.hops_chased"] == serial_chased
        assert not any(k.startswith("worker") and v for k, v in snap.items()
                       if "connectivity." in k)
        assert snap["parallel.pool.tasks_dispatched"] == 0
