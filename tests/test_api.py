"""Tests for the DynamicGraph facade."""

import numpy as np
import pytest

from repro.adjacency.dynarr import DynArrAdjacency
from repro.api import DynamicGraph
from repro.errors import GraphError
from repro.generators.rmat import rmat_graph
from repro.generators.streams import mixed_stream


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, 8, seed=31, ts_range=(1, 60))


class TestConstruction:
    def test_from_edgelist(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        assert g.n == graph.n
        assert g.n_edges == graph.m
        assert g.rep.kind == "hybrid"

    def test_from_edges(self):
        g = DynamicGraph.from_edges(4, [0, 1], [1, 2], representation="dynarr")
        assert g.n_edges == 2
        assert g.has_edge(1, 0)  # symmetrised

    def test_directed(self):
        g = DynamicGraph.from_edges(4, [0], [1], directed=True)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    @pytest.mark.parametrize("directed", [False, True])
    def test_ragged_edges_are_rejected(self, directed):
        # One dst would broadcast into every reverse arc if not checked.
        for dst in ([1], [1, 2, 3]):
            with pytest.raises(GraphError):
                DynamicGraph.from_edges(4, [0, 1], dst, representation="dynarr", directed=directed)

    def test_edges_interleave_their_two_arcs(self):
        """Each edge's two arcs arrive together, so dyn-arr rows keep the
        edges' order at both endpoints."""
        g = DynamicGraph.from_edges(4, [0, 2, 0], [1, 0, 3], [5, 6, 7], representation="dynarr")
        assert g.rep.neighbors_with_ts(0)[1].tolist() == [5, 6, 7]

    def test_ready_made_representation(self):
        rep = DynArrAdjacency(5)
        g = DynamicGraph(5, rep)
        assert g.rep is rep

    def test_representation_mismatch(self):
        with pytest.raises(GraphError):
            DynamicGraph(5, DynArrAdjacency(6))

    @pytest.mark.parametrize("kind", ["dynarr", "treap", "hybrid", "batched"])
    def test_kinds(self, kind):
        g = DynamicGraph(6, kind)
        g.insert_edge(0, 1)
        assert g.n_edges == 1


class TestUpdates:
    def test_insert_and_delete(self):
        g = DynamicGraph(5)
        g.insert_edge(0, 1, ts=3)
        assert g.degree(0) == 1 and g.degree(1) == 1
        assert g.delete_edge(0, 1)
        assert g.n_edges == 0
        assert not g.delete_edge(0, 1)

    def test_self_loop_stored_as_two_arcs(self):
        """A self-loop is an edge like any other, two arcs on every path:
        its vertex's degree is 2 and ``n_edges`` halves exactly."""
        built = DynamicGraph.from_edges(3, [1], [1], representation="dynarr")
        g = DynamicGraph(3)
        g.insert_edge(1, 1)
        for h in (built, g):
            assert h.degree(1) == 2 and h.n_edges == 1
            assert h.delete_edge(1, 1)
            assert h.degree(1) == 0 and h.n_edges == 0
            assert not h.delete_edge(1, 1)

    def test_apply_stream(self, graph):
        g = DynamicGraph.from_edgelist(graph, representation="dynarr")
        stream = mixed_stream(graph, 100, 0.5, seed=2)
        res = g.apply(stream)
        assert res.n_updates == 100
        assert res.profile.meta["representation"] == "dynarr"


class TestSnapshotsAndKernels:
    def test_snapshot_cached(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        a = g.snapshot()
        assert g.snapshot() is a
        g.insert_edge(0, 1)
        assert g.snapshot() is not a

    def test_snapshot_refresh_forced(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        a = g.snapshot()
        assert g.snapshot(refresh=True) is not a

    def test_snapshot_forced_rebuild_counter_split(self, graph):
        # Regression: refresh=True on an *unchanged* structure used to tick
        # api.snapshot_rebuilds, polluting the staleness signal epoch-lag
        # accounting reads.  Forced rebuilds get their own counter.
        from repro.obs import METRICS

        g = DynamicGraph.from_edgelist(graph)
        rebuilds = METRICS.counter("api.snapshot_rebuilds")
        forced = METRICS.counter("api.snapshot_forced_rebuilds")
        g.snapshot()  # cold cache: a real rebuild
        r0, f0 = rebuilds.value, forced.value
        g.snapshot(refresh=True)  # unchanged structure: forced only
        assert rebuilds.value == r0
        assert forced.value == f0 + 1
        g.insert_edge(0, 1)
        g.snapshot(refresh=True)  # stale cache: a real rebuild even if forced
        assert rebuilds.value == r0 + 1
        assert forced.value == f0 + 1

    def test_snapshot_not_stale_after_balanced_mix(self):
        # Regression: the cache used to key on the live arc count, so an
        # insert+delete mix that left the count unchanged returned a stale
        # snapshot.  The mutation-counter key must rebuild it.
        g = DynamicGraph(4, "dynarr", directed=True)
        g.insert_edge(0, 1)
        a = g.snapshot()
        assert a.neighbors(0).tolist() == [1]
        g.insert_edge(0, 2)
        g.delete_edge(0, 1)
        assert g.rep.n_arcs == a.n_arcs  # balanced: count unchanged
        b = g.snapshot()
        assert b is not a
        assert b.neighbors(0).tolist() == [2]

    def test_bfs(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        res = g.bfs(0)
        assert res.dist[0] == 0

    def test_components_and_forest_agree(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        comps = g.connected_components()
        idx = g.spanning_forest()
        rng = np.random.default_rng(0)
        for _ in range(50):
            u, v = (int(x) for x in rng.integers(0, g.n, 2))
            assert idx.query(u, v) == (comps.labels[u] == comps.labels[v])

    def test_induced_interval(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        res = g.induced_interval(10, 50)
        assert res.graph.n == g.n
        assert np.all((res.graph.ts > 10) & (res.graph.ts < 50))

    def test_betweenness(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        res = g.betweenness(sources=8, seed=1, temporal=True)
        assert res.scores.shape == (g.n,)
        assert res.temporal

    def test_betweenness_static(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        res = g.betweenness(sources=8, seed=1, temporal=False)
        assert not res.temporal

    def test_connectivity_after_deletion(self):
        g = DynamicGraph(4)
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            g.insert_edge(u, v)
        assert g.spanning_forest().query(0, 3)
        g.delete_edge(1, 2)
        assert not g.spanning_forest().query(0, 3)

    def test_degree_stats(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        s = g.degree_stats()
        assert s.n == g.n
        assert s.mean > 0

    def test_memory_bytes(self, graph):
        g = DynamicGraph.from_edgelist(graph)
        assert g.memory_bytes() > 0

    def test_repr(self, graph):
        text = repr(DynamicGraph.from_edgelist(graph))
        assert "hybrid" in text and "undirected" in text
