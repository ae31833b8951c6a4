"""The pool's own health metrics, ticked in the parent.

Workers ship results only; what the registry learns about a round is what
the parent counts as it dispatches and drains it.
"""

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


def echo_specs(n_tasks):
    return [TaskSpec("selftest.echo", {"value": i}) for i in range(n_tasks)]


class TestPoolHealth:
    def test_dispatch_and_completion_counters(self, pool):
        METRICS.reset()
        pool.run_tasks(echo_specs(4))
        snap = METRICS.snapshot()
        assert snap["counters"]["parallel.pool.tasks_dispatched"] == 4
        assert snap["counters"]["parallel.pool.tasks_completed"] == 4
        # reset() keeps registered names, so earlier crash tests may have
        # registered the error counter — its value must still be zero.
        assert snap["counters"].get("parallel.pool.task_errors", 0) == 0

    def test_workers_gauge_set_on_start(self):
        METRICS.reset()
        with WorkerPool(2, timeout=60.0) as p:
            p.run_tasks(echo_specs(1))
            assert METRICS.gauge("parallel.pool.workers").value == 2.0

    def test_error_path_ticks_task_errors_and_relays_telemetry(self):
        with WorkerPool(2, timeout=60.0) as p:
            p.run_tasks(echo_specs(1))  # warm
            METRICS.reset()
            with pytest.raises(WorkerCrashError):
                p.run_tasks([TaskSpec("selftest.fail", {"message": "boom"})])
            snap = METRICS.snapshot()["counters"]
            assert snap["parallel.pool.task_errors"] == 1
            # The failed task is dispatched but never counted as completed.
            assert snap["parallel.pool.tasks_dispatched"] == 1
            assert snap["parallel.pool.tasks_completed"] == 0


class TestSerialEqualityContract:
    def test_worker_connectivity_counters_equal_serial(self):
        # The acceptance contract: a process-backend query batch ticks the
        # same ``connectivity.*`` counters as the serial batch, all of them
        # in the parent: it sends the pool no task.
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
        assert snap["parallel.pool.tasks_dispatched"] == 0
