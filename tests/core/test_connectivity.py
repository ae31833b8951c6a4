"""Tests for the connectivity-query index."""

import networkx as nx
import numpy as np
import pytest

from repro.adjacency.csr import build_csr
from repro.adjacency.dynarr import DynArrAdjacency
from repro.core.connectivity import ConnectivityIndex
from repro.errors import GraphError
from repro.generators.reference import path_graph
from repro.generators.streams import UpdateStream


class TestQueries:
    @pytest.fixture(scope="class")
    def index(self, er_csr):
        return ConnectivityIndex.from_csr(er_csr)

    def test_single_query_matches_networkx(self, index, er_nx):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u, v = rng.integers(0, er_nx.number_of_nodes(), 2)
            assert index.query(int(u), int(v)) == nx.has_path(er_nx, int(u), int(v))

    def test_batch_matches_networkx(self, index, er_nx):
        rng = np.random.default_rng(3)
        n = er_nx.number_of_nodes()
        us = rng.integers(0, n, 300)
        vs = rng.integers(0, n, 300)
        res = index.query_batch(us, vs)
        truth = np.array([nx.has_path(er_nx, int(u), int(v)) for u, v in zip(us, vs)])
        assert np.array_equal(res.connected, truth)

    def test_hops_measured(self, index):
        res = index.random_query_batch(100, seed=4)
        assert res.total_hops > 0
        assert res.hops_per_query == pytest.approx(res.total_hops / 100)

    def test_profile_read_only(self, index):
        res = index.random_query_batch(100, seed=4)
        ph = res.profile.phases[0]
        assert ph.atomics == 0 and ph.locks == 0 and ph.barriers == 0
        assert ph.rand_accesses >= res.total_hops

    def test_query_batch_shape_validation(self, index):
        with pytest.raises(GraphError):
            index.query_batch(np.array([1, 2]), np.array([1]))

    def test_random_query_batch_negative(self, index):
        with pytest.raises(GraphError):
            index.random_query_batch(-1)

def updates(*rows):
    """An update stream over 5 vertices from ``(op, u, v)`` rows."""
    op, u, v = (np.array([r[i] for r in rows], dtype=np.int64) for i in range(3))
    return UpdateStream(5, op.astype(np.int8), u, v, np.zeros(len(rows), dtype=np.int64))


class TestMaintenance:
    def _line_index(self):
        """An index over the path 0-1-2-3-4, its forest built from a snapshot."""
        rep = DynArrAdjacency(5)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            rep.insert(u, v)
            rep.insert(v, u)
        idx = ConnectivityIndex.from_rep(rep)
        np.testing.assert_array_equal(
            idx.forest.parent, ConnectivityIndex.from_csr(build_csr(path_graph(5))).forest.parent
        )
        return idx

    def test_insert_edge(self):
        idx = ConnectivityIndex.from_rep(DynArrAdjacency(5))
        idx.apply_batch(updates((1, 0, 1), (1, 1, 0)))
        assert idx.query(0, 1)
        assert idx.stats.tree_links == 1  # the second copy is a non-tree edge
        assert idx.rep.n_arcs == 4

    def test_delete_tree_edge_disconnects(self):
        idx = self._line_index()
        idx.apply_batch(updates((-1, 2, 3)))
        assert not idx.query(0, 4)
        assert idx.query(0, 2) and idx.query(3, 4)
        assert idx.stats.tree_cuts == 1 and idx.stats.replacements_found == 0

    def test_delete_nontree_edge_noop(self):
        idx = self._line_index()
        idx.apply_batch(updates((1, 0, 4)))  # a cycle edge: non-tree
        assert idx.stats.tree_links == 0
        before = idx.forest.parent.copy()
        idx.apply_batch(updates((-1, 0, 4)))
        np.testing.assert_array_equal(idx.forest.parent, before)
        assert idx.stats.tree_cuts == 0
        assert idx.query(0, 4)

    def test_delete_with_replacement_keeps_connectivity(self):
        idx = self._line_index()
        # the cycle edge 0-4 replaces the tree edge 1-2, in the same batch
        idx.apply_batch(updates((1, 0, 4), (-1, 1, 2)))
        assert idx.query(0, 4) and idx.query(1, 2)
        assert idx.stats.replacements_found == 1
        idx.validate()
