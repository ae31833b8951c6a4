"""Process-backend components: bit-identity with the serial kernel, crash recovery."""

import numpy as np
import pytest

from repro.core.components import connected_components
from repro.errors import WorkerCrashError
from repro.generators.rmat import rmat_graph
from repro.adjacency.csr import build_csr
from repro.api import DynamicGraph
from repro.obs import METRICS
from repro.parallel.shm import ArenaDescriptor
from repro.service import GraphService, ShardRouter


@pytest.fixture(scope="module")
def graph():
    return build_csr(rmat_graph(9, 8, seed=17))


class TestBitIdentity:
    def test_labels_match_serial_kernel(self, graph, pool):
        expected = connected_components(graph).labels
        labels = ShardRouter(pool).components(graph)
        assert np.array_equal(labels, expected)

    def test_empty_graph(self, pool):
        empty = build_csr(rmat_graph(4, 0, seed=1))
        labels = ShardRouter(pool).components(empty)
        assert np.array_equal(labels, np.arange(1 << 4))


class TestCrashRecovery:
    def test_crash_surfaces_and_restart_recovers(self, graph):
        router = ShardRouter(workers=2)
        try:
            expected = connected_components(graph).labels
            router.pool.start()
            router.pool._procs[0].terminate()
            router.pool._procs[0].join(timeout=10)
            with pytest.raises(WorkerCrashError):
                router.components(graph)
            router.recover()
            assert router.n_crashes == 1
            labels = router.components(graph)
            assert np.array_equal(labels, expected)
        finally:
            router.close()

    def test_second_crash_falls_back_to_serial_kernel(self, graph):
        class DeadPool:
            """A pool whose every round loses a worker, restarts included."""

            workers = 2
            n_restarts = 0

            def start(self):
                pass

            def resident(self, graph):
                return ArenaDescriptor("", ())

            def restart(self):
                self.n_restarts += 1

            def run_tasks(self, tasks):
                raise WorkerCrashError("worker 0 died")

        router = ShardRouter(DeadPool())
        service = GraphService(DynamicGraph(graph.n), router=router)
        service.drainer.start()
        fallbacks = METRICS.counter("service.shard.fallbacks").value
        try:
            with service.store.reading() as epoch:
                labels = service._labels(epoch)
        finally:
            service.close()
        assert np.array_equal(labels, np.arange(graph.n))
        assert router.n_crashes == 1 and router.pool.n_restarts == 1
        assert METRICS.counter("service.shard.fallbacks").value == fallbacks + 1

    def test_router_borrows_pool_without_owning_it(self, graph, pool):
        router = ShardRouter(pool)
        labels = router.components(graph)
        router.close()  # must NOT shut the borrowed session pool down
        assert np.array_equal(labels, connected_components(graph).labels)
        # the shared pool still answers (it would raise if closed)
        assert np.array_equal(router.components(graph), labels)
