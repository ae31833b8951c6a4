"""Worker-pool behaviour: ordering, workers that never trace, and crash resilience."""

import json

import numpy as np
import pytest

from repro.adjacency.csr import build_csr
from repro.errors import ParallelError, WorkerCrashError
from repro.generators.rmat import rmat_graph
from repro.obs import JsonlSink, disable_tracing, enable_tracing, tracing_enabled
from repro.parallel.bfs import parallel_bfs
from repro.parallel.pool import _TASKS, TaskSpec, WorkerPool, default_workers
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


class TestWorkersNeverTrace:
    def test_parent_trace_file_holds_only_parent_spans(self, tmp_path, monkeypatch):
        # Workers fork after the process tracer (and its open trace file) is
        # installed; none of them may trace, so the file holds the parent's
        # spans only and every line of it parses.
        monkeypatch.setitem(_TASKS, "selftest.traced", lambda views, payload: tracing_enabled())
        csr = build_csr(rmat_graph(9, 8, seed=4))
        source = int(np.argmax(csr.degrees()))
        path = tmp_path / "trace.jsonl"
        tracer = enable_tracing(JsonlSink(path))
        try:
            with WorkerPool(2, timeout=60.0) as p:
                par = parallel_bfs(csr, source, p, small_level_edges=0)
                probes = p.run_tasks([TaskSpec("selftest.traced", {})] * 2)
        finally:
            disable_tracing()
            tracer.sink.close()
        assert par.n_reached > 1
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in events] == ["parallel.bfs"]
        assert probes == [False, False]


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
