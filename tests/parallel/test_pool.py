"""Worker-pool behaviour: ordering, tracing, and crash resilience."""

import numpy as np
import pytest

from repro.errors import ParallelError, WorkerCrashError
from repro.obs import disable_tracing, enable_tracing
from repro.parallel.pool import TaskSpec, WorkerPool, default_workers
from repro.parallel.shm import ShmArena


class TestBasics:
    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_bad_worker_count(self):
        with pytest.raises(ParallelError):
            WorkerPool(-2)

    def test_results_in_submission_order(self, pool):
        tasks = [TaskSpec("selftest.echo", {"value": i}) for i in range(11)]
        outs = pool.run_tasks(tasks)
        assert [o["echo"] for o in outs] == list(range(11))

    def test_empty_round(self, pool):
        assert pool.run_tasks([]) == []

    def test_unknown_task_rejected_in_parent(self, pool):
        with pytest.raises(ParallelError, match="unknown task"):
            pool.run_tasks([TaskSpec("no.such.task", {})])

    def test_shared_arrays_reach_the_worker(self, pool):
        with ShmArena.create({"data": np.arange(6)}) as arena:
            outs = pool.run_tasks(
                [TaskSpec("selftest.echo", {"value": 1}, arenas=(arena.descriptor,))]
            )
        assert outs[0]["arrays"] == ["data"]

    def test_context_manager_shuts_down(self):
        with WorkerPool(1) as p:
            assert p.run_tasks([TaskSpec("selftest.echo", {"value": 9})])[0]["echo"] == 9
        with pytest.raises(ParallelError, match="shut down"):
            p.start()


class TestTraceAdoption:
    def test_worker_spans_adopted_under_parent(self, pool):
        tracer = enable_tracing()
        try:
            from repro.obs import span

            with span("parent.round"):
                pool.run_tasks([TaskSpec("selftest.echo", {"value": 5})])
            events = tracer.sink.events
        finally:
            disable_tracing()
        names = [e["name"] for e in events]
        assert "parallel.selftest.echo" in names
        assert "parallel.selftest.echo.inner" in names
        worker_ev = next(e for e in events if e["name"] == "parallel.selftest.echo")
        assert "worker" in worker_ev["attrs"]
        parent_ev = next(e for e in events if e["name"] == "parent.round")
        # adopted root spans hang off the then-open parent span
        assert worker_ev["parent_id"] == parent_ev["span_id"]
        # the inner worker span keeps its remapped parent chain
        inner = next(e for e in events if e["name"] == "parallel.selftest.echo.inner")
        assert inner["parent_id"] == worker_ev["span_id"]

    def test_workers_forked_inside_an_open_span_still_ship_spans(self):
        tracer = enable_tracing()
        try:
            from repro.obs import span

            with span("parent.round") as parent:
                with WorkerPool(2, timeout=60.0) as p:
                    p.run_tasks([TaskSpec("selftest.echo", {"value": 5})])
            events = tracer.sink.events
        finally:
            disable_tracing()
        worker_ev = next(e for e in events if e["name"] == "parallel.selftest.echo")
        assert worker_ev["parent_id"] == parent.span_id

    def test_span_ids_do_not_collide_with_parent_ids(self, pool):
        tracer = enable_tracing()
        try:
            from repro.obs import span

            with span("a"), span("b"):
                pool.run_tasks([TaskSpec("selftest.echo", {"value": 1})])
            ids = [e["span_id"] for e in tracer.sink.events]
        finally:
            disable_tracing()
        assert len(ids) == len(set(ids))


class TestCrashResilience:
    def test_task_exception_raises_with_traceback(self):
        with WorkerPool(2, timeout=60.0) as p:
            with pytest.raises(WorkerCrashError, match="boom"):
                p.run_tasks(
                    [
                        TaskSpec("selftest.echo", {"value": 0}),
                        TaskSpec("selftest.fail", {"message": "boom"}),
                    ]
                )
            # a raised task does not kill the worker: the pool stays usable
            out = p.run_tasks([TaskSpec("selftest.echo", {"value": 3})])
            assert out[0]["echo"] == 3

    def test_killed_worker_raises_cleanly_without_hang(self):
        p = WorkerPool(2, timeout=60.0)
        try:
            with pytest.raises(WorkerCrashError, match="died"):
                p.run_tasks(
                    [
                        TaskSpec("selftest.echo", {"value": 0}),
                        TaskSpec("selftest.exit", {"code": 3}),
                    ]
                )
            # round integrity is gone: the pool refuses further use
            with pytest.raises(ParallelError):
                p.run_tasks([TaskSpec("selftest.echo", {"value": 1})])
        finally:
            p.shutdown()
