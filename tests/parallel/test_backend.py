"""The pool object against the serial kernels on a ``DynamicGraph`` snapshot."""

import numpy as np
import pytest

from repro.api import DynamicGraph
from repro.core.connectivity import ConnectivityIndex
from repro.core.linkcut import LinkCutForest
from repro.adjacency.csr import build_csr
from repro.generators.rmat import rmat_graph
from repro.parallel.backend import ProcessBackend


class TestResolveBackend:
    def test_close_is_idempotent(self):
        be = ProcessBackend(1)
        be.pool.start()
        procs = list(be.pool._procs)
        be.close()
        assert procs and not any(p.is_alive() for p in procs)
        be.close()


@pytest.fixture(scope="module")
def graph():
    el = rmat_graph(8, 8, seed=13)
    return DynamicGraph.from_edges(el.n, el.src, el.dst, representation="dynarr")


class TestApiThreadThrough:
    def test_bfs_backends_agree(self, graph):
        serial = graph.bfs(0)
        with ProcessBackend(2) as be:
            par = be.bfs(graph.snapshot(), 0)
        np.testing.assert_array_equal(serial.dist, par.dist)
        np.testing.assert_array_equal(serial.parent, par.parent)
        assert serial.frontier_sizes == par.frontier_sizes

    def test_components_backends_agree(self, graph):
        serial = graph.connected_components()
        with ProcessBackend(2) as be:
            par = be.connected_components(graph.snapshot())
        np.testing.assert_array_equal(serial.labels, par.labels)
        assert serial.n_components == par.n_components

    def test_backend_instance_is_reusable(self, graph):
        with ProcessBackend(2) as be:
            first = be.bfs(graph.snapshot(), 0)
            second = be.bfs(graph.snapshot(), 1)
        np.testing.assert_array_equal(first.dist, graph.bfs(0).dist)
        np.testing.assert_array_equal(second.dist, graph.bfs(1).dist)


class TestConnectivityIndexBackend:
    def test_query_batch_backends_agree(self):
        csr = build_csr(rmat_graph(8, 8, seed=21))
        forest, record = LinkCutForest.from_csr(csr)
        index = ConnectivityIndex(forest, record)

        rng = np.random.default_rng(5)
        us, vs = rng.integers(0, csr.n, size=(2, 2000))
        serial = index.query_batch(us, vs)
        with ProcessBackend(2) as be:
            par = index.query_batch(us, vs, backend=be)
            assert not be.pool._started  # a label only: no worker started
        np.testing.assert_array_equal(serial.connected, par.connected)
        assert serial.total_hops == par.total_hops
        assert par.profile.meta["backend"] == "process"
        assert serial.profile.meta["backend"] == "serial"
