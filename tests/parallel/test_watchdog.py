"""Hang and crash coverage of the real :class:`~repro.parallel.pool.WorkerPool`.

The pool answers "is a worker dead or wedged" itself: a worker that dies
mid-round, or a round that outlives ``timeout``, raises
:class:`~repro.errors.WorkerCrashError` instead of hanging, and
:meth:`~repro.parallel.pool.WorkerPool.restart` brings back a clean
generation whose rounds never see the old one's late results.  The parent
counts each round's tasks as it dispatches and drains them; between rounds
the result queue carries nothing.
"""

import queue
import time

import pytest

from repro.errors import WorkerCrashError
from repro.obs.metrics import METRICS
from repro.parallel.pool import TaskSpec, WorkerPool


@pytest.fixture
def pool2():
    pool = WorkerPool(2, timeout=60.0)
    pool.start()
    yield pool
    pool.shutdown()


def counter(name):
    return METRICS.counter(name).value


class TestRoundBookkeeping:
    def test_round_counters_tick_per_task(self, pool2):
        # Each round's results come back and the parent counts its tasks.
        dispatched = counter("parallel.pool.tasks_dispatched")
        completed = counter("parallel.pool.tasks_completed")
        for value in (1, 2):
            out = pool2.run_tasks([TaskSpec("selftest.echo", {"value": value})] * 3)
            assert [o["echo"] for o in out] == [value] * 3
        assert counter("parallel.pool.tasks_dispatched") == dispatched + 6
        assert counter("parallel.pool.tasks_completed") == completed + 6

    def test_started_workers_alive_and_counted(self, pool2):
        assert [p.name for p in pool2._procs] == ["repro-worker-0", "repro-worker-1"]
        assert all(p.is_alive() for p in pool2._procs)
        assert METRICS.gauge("parallel.pool.workers").value == 2

    def test_result_queue_empty_between_rounds(self):
        with WorkerPool(1, timeout=30.0) as pool:
            pool.run_tasks([TaskSpec("selftest.echo", {"value": 1})])
            time.sleep(0.15)
            with pytest.raises(queue.Empty):
                pool._result_q.get(timeout=0.1)


class TestStallDetection:
    def test_round_timeout_raises_and_pool_recovers(self, pool2):
        restarts = counter("parallel.pool.restarts")
        pool2.timeout = 0.5
        with pytest.raises(WorkerCrashError, match="timed out"):
            pool2.run_tasks([
                TaskSpec("selftest.sleep", {"seconds": 1.5}),
                TaskSpec("selftest.echo", {"value": 1}),
            ])
        pool2.timeout = 60.0
        # Without a restart the wedged worker's late answer lands in the next
        # round's queue, and the round drops it.
        out = pool2.run_tasks([TaskSpec("selftest.echo", {"value": 8})] * 2)
        assert [o["echo"] for o in out] == [8, 8]
        pool2.restart()
        assert counter("parallel.pool.restarts") == restarts + 1
        # Clean recovery: the same pool keeps serving rounds.
        out = pool2.run_tasks([TaskSpec("selftest.echo", {"value": 9})] * 2)
        assert [o["echo"] for o in out] == [9, 9]

    def test_timeout_then_restart_recovers_cleanly(self):
        pool = WorkerPool(1, timeout=0.5)
        try:
            with pytest.raises(WorkerCrashError, match="timed out"):
                pool.run_tasks([TaskSpec("selftest.sleep", {"seconds": 30.0})])
            pool.restart()
            out = pool.run_tasks([TaskSpec("selftest.echo", {"value": 3})])
            assert out[0]["echo"] == 3
        finally:
            pool.shutdown()

    def test_killed_worker_raises_crash_error_naming_it(self):
        pool = WorkerPool(2, timeout=30.0)
        pool.start()
        try:
            victim = pool._procs[0]
            victim.terminate()
            victim.join(timeout=5.0)
            with pytest.raises(WorkerCrashError, match="repro-worker-0"):
                pool.run_tasks([TaskSpec("selftest.echo", {"value": i}) for i in range(2)])
            pool.restart()
            out = pool.run_tasks([TaskSpec("selftest.echo", {"value": i}) for i in range(2)])
            assert [o["echo"] for o in out] == [0, 1]
        finally:
            pool.shutdown()

    def test_restart_filters_stale_results_from_old_generation(self):
        # A round that times out leaves its (eventual) results in flight;
        # after restart the monotonic task counter keeps them out.
        pool = WorkerPool(1, timeout=0.4)
        try:
            with pytest.raises(WorkerCrashError):
                pool.run_tasks([TaskSpec("selftest.sleep", {"seconds": 5.0})])
            pool.restart()
            outs = pool.run_tasks(
                [TaskSpec("selftest.echo", {"value": i}) for i in range(4)]
            )
            assert [o["echo"] for o in outs] == [0, 1, 2, 3]
        finally:
            pool.shutdown()
