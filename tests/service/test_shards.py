"""Component labels off the serial path: the process backend and the service memo.

The service computes an epoch's labels one way — the serial kernel, once per
epoch.  The pool's components driver (a caller's :class:`ProcessBackend`,
outside the service) must stay bit-identical to that kernel, recover from a
worker crash through ``pool.restart()``, and stay up between calls until its
holder closes it.
"""

import numpy as np
import pytest

from repro.adjacency.csr import build_csr
from repro.api import DynamicGraph
from repro.core.components import connected_components
from repro.errors import WorkerCrashError
from repro.generators.rmat import rmat_graph
from repro.obs import METRICS
from repro.parallel.backend import ProcessBackend
from repro.service import GraphService


@pytest.fixture(scope="module")
def graph():
    return build_csr(rmat_graph(9, 8, seed=17))


@pytest.fixture(scope="module")
def backend():
    with ProcessBackend(2) as be:
        yield be


class TestBitIdentity:
    def test_labels_match_serial_kernel(self, graph, backend):
        expected = connected_components(graph).labels
        labels = backend.connected_components(graph).labels
        assert np.array_equal(labels, expected)

    def test_empty_graph(self, backend):
        empty = build_csr(rmat_graph(4, 0, seed=1))
        labels = backend.connected_components(empty).labels
        assert np.array_equal(labels, np.arange(1 << 4))


class TestCrashRecovery:
    def test_crash_surfaces_and_restart_recovers(self, graph):
        with ProcessBackend(2) as be:
            expected = connected_components(graph).labels
            be.pool.start()
            be.pool._procs[0].terminate()
            be.pool._procs[0].join(timeout=10)
            with pytest.raises(WorkerCrashError):
                be.connected_components(graph)
            restarts = METRICS.counter("parallel.pool.restarts").value
            be.pool.restart()
            assert METRICS.counter("parallel.pool.restarts").value == restarts + 1
            labels = be.connected_components(graph).labels
            assert np.array_equal(labels, expected)

    def test_second_crash_falls_back_to_serial_kernel(self):
        # The service's labels are the serial kernel's, computed once per epoch.
        g = DynamicGraph.from_edgelist(rmat_graph(9, 8, seed=17))
        service = GraphService(g, reqtrace=False)
        service.drainer.start()
        misses = METRICS.counter("service.epoch.cache_misses").value
        try:
            with service.store.reading() as epoch:
                first = service._labels(epoch)
                again = service._labels(epoch)
                expected = connected_components(epoch.snapshot).labels
        finally:
            service.close()
        assert again is first
        assert np.array_equal(first, expected)
        assert np.unique(expected).size < g.n  # not the trivial labelling
        assert METRICS.counter("service.epoch.cache_misses").value == misses + 1

    def test_router_borrows_pool_without_owning_it(self, graph, backend):
        # A call on a graph's snapshot leaves the pool running for the next.
        g = DynamicGraph.from_edgelist(rmat_graph(9, 8, seed=17))
        labels = backend.connected_components(g.snapshot()).labels
        assert np.array_equal(labels, g.connected_components().labels)
        assert backend.pool._procs and all(p.is_alive() for p in backend.pool._procs)
        assert np.array_equal(backend.connected_components(g.snapshot()).labels, labels)
