"""Tests for Δ-stepping SSSP (validated against scipy's Dijkstra)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.adjacency.csr import build_csr
from repro.core.sssp import delta_stepping
from repro.edgelist import EdgeList
from repro.errors import GraphError, VertexError
from repro.generators.rmat import rmat_graph
from repro.generators.reference import erdos_renyi, path_graph
from repro.util.seeding import make_rng


def weighted(graph: EdgeList, lo=1, hi=20, seed=0) -> EdgeList:
    rng = make_rng(seed)
    from dataclasses import replace

    return replace(graph, w=rng.integers(lo, hi + 1, graph.m, dtype=np.int64))


def scipy_dist(csr, source):
    mat = sp.csr_matrix(
        (csr.weights().astype(float), csr.targets, csr.offsets), shape=(csr.n, csr.n)
    )
    return dijkstra(mat, directed=True, indices=source)


class TestCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("delta", [1, 4, 16, None])
    def test_matches_dijkstra_er(self, seed, delta):
        g = weighted(erdos_renyi(120, 0.04, seed=seed), seed=seed)
        csr = build_csr(g)
        res = delta_stepping(csr, 0, delta=delta)
        truth = scipy_dist(csr, 0)
        assert np.allclose(res.dist, truth, equal_nan=False)

    def test_matches_dijkstra_rmat(self):
        g = weighted(rmat_graph(9, 6, seed=3), hi=50, seed=3)
        csr = build_csr(g)
        res = delta_stepping(csr, 0)
        assert np.allclose(res.dist, scipy_dist(csr, 0))

    def test_unweighted_equals_bfs(self):
        from repro.core.bfs import bfs

        g = erdos_renyi(150, 0.03, seed=4)
        csr = build_csr(g)
        res = delta_stepping(csr, 0)
        assert res.delta == 1
        b = bfs(csr, 0)
        mine = np.where(np.isfinite(res.dist), res.dist, -1)
        assert np.array_equal(mine.astype(np.int64), b.dist)

    def test_weighted_path(self):
        g = EdgeList(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                     w=np.array([5, 1, 7]))
        res = delta_stepping(build_csr(g), 0, delta=3)
        assert res.dist.tolist() == [0.0, 5.0, 6.0, 13.0]

    def test_shortcut_preferred(self):
        # 0-1-2 with weights 1+1 beats direct 0-2 weight 5
        g = EdgeList(3, np.array([0, 1, 0]), np.array([1, 2, 2]),
                     w=np.array([1, 1, 5]))
        res = delta_stepping(build_csr(g), 0, delta=2)
        assert res.dist[2] == 2.0

    def test_disconnected_inf(self):
        g = EdgeList(4, np.array([0]), np.array([1]), w=np.array([3]))
        res = delta_stepping(build_csr(g), 0)
        assert np.isinf(res.dist[2]) and np.isinf(res.dist[3])
        assert res.n_reached == 2

    def test_source_only(self):
        g = EdgeList(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        res = delta_stepping(build_csr(g), 1)
        assert res.dist[1] == 0.0 and res.n_reached == 1

    def test_big_delta_single_bucket(self):
        g = weighted(path_graph(10), hi=3, seed=5)
        res = delta_stepping(build_csr(g), 0, delta=1000)
        assert np.allclose(res.dist, scipy_dist(build_csr(g), 0))
        assert res.buckets_processed == 1

    def test_delta_one_many_buckets(self):
        g = weighted(path_graph(10), hi=3, seed=5)
        res = delta_stepping(build_csr(g), 0, delta=1)
        assert np.allclose(res.dist, scipy_dist(build_csr(g), 0))
        assert res.buckets_processed > 3


class TestValidation:
    def test_bad_source(self):
        csr = build_csr(path_graph(3))
        with pytest.raises(VertexError):
            delta_stepping(csr, 3)

    def test_bad_delta(self):
        csr = build_csr(path_graph(3))
        with pytest.raises(GraphError):
            delta_stepping(csr, 0, delta=0)


class TestStatistics:
    def test_profile_phases(self):
        g = weighted(erdos_renyi(80, 0.06, seed=6), seed=6)
        res = delta_stepping(build_csr(g), 0)
        assert len(res.profile.phases) >= res.buckets_processed
        assert res.relaxations > 0
        assert res.profile.meta["delta"] == res.delta

    def test_smaller_delta_more_phases(self):
        g = weighted(erdos_renyi(80, 0.06, seed=7), hi=30, seed=7)
        csr = build_csr(g)
        few = delta_stepping(csr, 0, delta=64)
        many = delta_stepping(csr, 0, delta=2)
        assert many.buckets_processed > few.buckets_processed


N = 12

weighted_edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=1, max_value=30),
    ),
    max_size=35,
)


def weighted_graph(triples):
    if triples:
        src, dst, w = (np.array(x, dtype=np.int64) for x in zip(*triples))
    else:
        src = dst = w = np.array([], dtype=np.int64)
    return EdgeList(N, src, dst, w=w if w.size else None)


class TestSSSPProperties:
    @given(weighted_edges, st.integers(min_value=0, max_value=N - 1),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_matches_dijkstra_any_delta(self, triples, source, delta):
        csr = build_csr(weighted_graph(triples))
        mine = delta_stepping(csr, source, delta=delta).dist
        assert np.allclose(mine, scipy_dist(csr, source))

    @given(weighted_edges, st.integers(min_value=0, max_value=N - 1))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, triples, source):
        g = weighted_graph(triples)
        csr = build_csr(g)
        dist = delta_stepping(csr, source).dist
        w = csr.weights()
        for u in range(N):
            lo, hi = int(csr.offsets[u]), int(csr.offsets[u + 1])
            for j in range(lo, hi):
                v = int(csr.targets[j])
                if np.isfinite(dist[u]):
                    assert dist[v] <= dist[u] + w[j] + 1e-9
