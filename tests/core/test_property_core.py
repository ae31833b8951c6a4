"""Property-based tests (hypothesis) for the analysis kernels."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.csr import build_csr
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.core.linkcut import LinkCutForest
from repro.edgelist import EdgeList
from repro.generators.reference import to_networkx

N = 14

edges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=0, max_value=N - 1),
    ),
    max_size=40,
)


def make_graph(pairs):
    if pairs:
        src, dst = (np.array(x, dtype=np.int64) for x in zip(*pairs))
    else:
        src = dst = np.array([], dtype=np.int64)
    return EdgeList(N, src, dst)


class TestBFSProperties:
    @given(edges_strategy, st.integers(min_value=0, max_value=N - 1))
    @settings(max_examples=80, deadline=None)
    def test_distances_match_networkx(self, pairs, source):
        g = make_graph(pairs)
        res = bfs(build_csr(g), source)
        truth = nx.single_source_shortest_path_length(to_networkx(g), source)
        mine = {v: int(d) for v, d in enumerate(res.dist) if d >= 0}
        assert mine == dict(truth)

    @given(edges_strategy, st.integers(min_value=0, max_value=N - 1))
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality_on_tree_edges(self, pairs, source):
        g = make_graph(pairs)
        res = bfs(build_csr(g), source)
        for v in range(N):
            p = int(res.parent[v])
            if p >= 0:
                assert res.dist[v] == res.dist[p] + 1


class TestComponentsProperties:
    @given(edges_strategy)
    @settings(max_examples=80, deadline=None)
    def test_partition_matches_networkx(self, pairs):
        g = make_graph(pairs)
        res = connected_components(build_csr(g))
        truth = list(nx.connected_components(to_networkx(g)))
        assert res.n_components == len(truth)
        for comp in truth:
            assert len({int(res.labels[v]) for v in comp}) == 1
            assert int(res.labels[next(iter(comp))]) == min(comp)

    @given(edges_strategy)
    @settings(max_examples=50, deadline=None)
    def test_labels_idempotent_under_relabel(self, pairs):
        g = make_graph(pairs)
        labels = connected_components(build_csr(g)).labels
        # a label must itself carry the same label (canonical fixed point)
        assert np.array_equal(labels[labels], labels)


class TestLinkCutProperties:
    @given(edges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_forest_connectivity_equals_graph(self, pairs):
        g = make_graph(pairs)
        forest, _ = LinkCutForest.from_csr(build_csr(g))
        forest.validate()
        comps = connected_components(build_csr(g))
        for u in range(N):
            for v in range(u + 1, N):
                assert forest.connected(u, v) == comps.same_component(u, v)

    @given(edges_strategy, st.data())
    @settings(max_examples=50, deadline=None)
    def test_incremental_add_edge_tracks_union(self, pairs, data):
        """add_edge over a stream keeps forest connectivity == graph's."""
        forest = LinkCutForest(N)
        G = nx.Graph()
        G.add_nodes_from(range(N))
        for u, v in pairs:
            if u != v:
                forest.add_edge(u, v)
            G.add_edge(u, v)
        forest.validate()
        for u in range(N):
            for v in range(u + 1, N):
                assert forest.connected(u, v) == nx.has_path(G, u, v)

    @given(edges_strategy)
    @settings(max_examples=40, deadline=None)
    def test_reroot_preserves_partition(self, pairs):
        g = make_graph(pairs)
        forest, _ = LinkCutForest.from_csr(build_csr(g))
        before = forest.findroot_batch(np.arange(N))
        for v in range(0, N, 5):
            forest.reroot(v)
            forest.validate()
        after = forest.findroot_batch(np.arange(N))
        # partition unchanged: same-root relation preserved
        for u in range(N):
            for v in range(N):
                assert (before[u] == before[v]) == (after[u] == after[v])
