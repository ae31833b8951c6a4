"""Hang-detection coverage: heartbeats, watchdog alerts, pool recovery.

These tests exercise the real :class:`~repro.parallel.pool.WorkerPool`
against the :class:`~repro.obs.live.Watchdog`: a deliberately stalled
worker must surface as a structured alert event in the trace stream
*before* the round timeout matures into a
:class:`~repro.errors.WorkerCrashError`, and the pool must come back
clean via :meth:`~repro.parallel.pool.WorkerPool.restart`.
"""

import threading
import time

import pytest

from repro.errors import WorkerCrashError
from repro.obs import MemorySink, disable_tracing, enable_tracing
from repro.obs.live import Watchdog
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import alerts
from repro.parallel.pool import TaskSpec, WorkerPool


@pytest.fixture
def hb_pool():
    pool = WorkerPool(2, timeout=60.0, heartbeat_interval=0.05)
    pool.start()
    yield pool
    pool.shutdown()


def wait_for(predicate, *, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestHeartbeats:
    def test_beats_flow_between_rounds(self, hb_pool):
        hb_pool.run_tasks([TaskSpec("selftest.echo", {"value": 1})])

        def both_beating_idle():
            # a beat sent before the worker cleared its task state may come first
            beats = hb_pool.poll_heartbeats()
            return len(beats) == hb_pool.workers and all(
                b["task_id"] is None for b in beats.values()
            )

        assert wait_for(both_beating_idle)
        beats = hb_pool.heartbeats()
        assert sorted(beats) == [0, 1]
        for beat in beats.values():
            assert beat["task_id"] is None  # idle between rounds
            assert "received" in beat and "rss_bytes" in beat
        assert beats[0]["n_done"] >= 1

    def test_worker_health_reports_alive(self, hb_pool):
        health = hb_pool.worker_health()
        assert [h["worker"] for h in health] == [0, 1]
        assert all(h["alive"] for h in health)

    def test_default_pool_sends_no_heartbeats(self):
        with WorkerPool(1, timeout=30.0) as pool:
            pool.run_tasks([TaskSpec("selftest.echo", {"value": 1})])
            time.sleep(0.15)
            assert pool.poll_heartbeats() == {}


class TestStallDetection:
    def run_round_in_thread(self, pool, spec):
        errors = []

        def run():
            try:
                pool.run_tasks([spec])
            except WorkerCrashError as exc:
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        return thread, errors

    def test_stalled_worker_raises_alert_and_pool_recovers(self, hb_pool):
        sink = MemorySink()
        enable_tracing(sink)
        reg = MetricsRegistry()
        wd = Watchdog(hb_pool, stall_after=0.3, registry=reg)
        thread, errors = self.run_round_in_thread(
            hb_pool, TaskSpec("selftest.sleep", {"seconds": 1.5})
        )
        try:
            # The watchdog fires while the round is still in flight: the
            # drain loop records heartbeats, the check runs on this thread.
            assert wait_for(lambda: wd.check(), timeout=10.0)
        finally:
            thread.join()
            disable_tracing()
        assert not errors  # the round itself completed within its timeout
        (alert,) = wd.alerts
        assert alert["kind"] == "worker_stalled"
        assert alert["task"] == "selftest.sleep"
        assert alert["error_type"] == "WorkerCrashError"
        assert reg.counter("obs.watchdog.worker_stalled").value == 1
        flagged = alerts(sink.events)
        assert [e["name"] for e in flagged] == ["watchdog.worker_stalled"]
        # Clean recovery: the same pool keeps serving rounds.
        out = hb_pool.run_tasks([TaskSpec("selftest.echo", {"value": 9})])
        assert out[0]["echo"] == 9

    def test_timeout_then_restart_recovers_cleanly(self):
        pool = WorkerPool(1, timeout=0.5, heartbeat_interval=0.05)
        try:
            with pytest.raises(WorkerCrashError, match="timed out"):
                pool.run_tasks([TaskSpec("selftest.sleep", {"seconds": 30.0})])
            pool.restart()
            out = pool.run_tasks([TaskSpec("selftest.echo", {"value": 3})])
            assert out[0]["echo"] == 3
        finally:
            pool.shutdown()

    def test_dead_worker_surfaces_as_watchdog_alert(self):
        pool = WorkerPool(2, timeout=30.0, heartbeat_interval=0.05)
        pool.start()
        try:
            wd = Watchdog(pool, registry=MetricsRegistry())
            victim = pool._procs[0]
            victim.terminate()
            victim.join(timeout=5.0)
            new = wd.check()
            kinds = {a["kind"] for a in new}
            assert kinds == {"worker_dead"}
            assert new[0]["worker"] == 0
        finally:
            pool.shutdown()

    def test_restart_filters_stale_results_from_old_generation(self):
        # A round that times out leaves its (eventual) results in flight;
        # after restart the monotonic task counter keeps them out.
        pool = WorkerPool(1, timeout=0.4, heartbeat_interval=0.05)
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
