"""Backend selection semantics and the ``backend=`` API thread-through."""

import numpy as np
import pytest

from repro.api import DynamicGraph
from repro.core.connectivity import ConnectivityIndex
from repro.core.linkcut import LinkCutForest
from repro.adjacency.csr import build_csr
from repro.errors import ParallelError
from repro.generators.rmat import rmat_graph
from repro.parallel.backend import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)


class TestResolveBackend:
    def test_strings_are_owned(self):
        for name in BACKENDS:
            be, owned = resolve_backend(name)
            try:
                assert owned
                assert be.name == name
            finally:
                be.close()

    def test_instances_are_borrowed(self):
        be = SerialBackend()
        got, owned = resolve_backend(be)
        assert got is be and not owned

        pbe = ProcessBackend(1)
        try:
            got, owned = resolve_backend(pbe, workers=1)
            assert got is pbe and not owned
        finally:
            pbe.close()

    def test_worker_mismatch_rejected(self):
        pbe = ProcessBackend(1)
        try:
            with pytest.raises(ParallelError, match="workers"):
                resolve_backend(pbe, workers=3)
        finally:
            pbe.close()

    def test_unknown_backend(self):
        with pytest.raises(ParallelError, match="unknown backend"):
            resolve_backend("threads")

    def test_close_is_idempotent(self):
        be, _ = resolve_backend("process", workers=1)
        be.close()
        be.close()


@pytest.fixture(scope="module")
def graph():
    el = rmat_graph(8, 8, seed=13)
    return DynamicGraph.from_edges(el.n, el.src, el.dst, representation="dynarr")


class TestApiThreadThrough:
    def test_bfs_backends_agree(self, graph):
        serial = graph.bfs(0)
        par = graph.bfs(0, backend="process", workers=2)
        np.testing.assert_array_equal(serial.dist, par.dist)
        np.testing.assert_array_equal(serial.parent, par.parent)
        assert serial.frontier_sizes == par.frontier_sizes

    def test_components_backends_agree(self, graph):
        serial = graph.connected_components()
        par = graph.connected_components(backend="process", workers=2)
        np.testing.assert_array_equal(serial.labels, par.labels)
        assert serial.n_components == par.n_components

    def test_backend_instance_is_reusable(self, graph):
        with ProcessBackend(2) as be:
            first = graph.bfs(0, backend=be)
            second = graph.bfs(1, backend=be)
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
        par = index.query_batch(us, vs, backend="process", workers=2)
        np.testing.assert_array_equal(serial.connected, par.connected)
        assert serial.total_hops == par.total_hops
        assert par.profile.meta["backend"] == "process"
        assert par.profile.meta["workers"] == 2
        assert serial.profile.meta["workers"] == 1
