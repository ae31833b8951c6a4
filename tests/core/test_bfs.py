"""Tests for level-synchronous BFS (validated against networkx)."""

import networkx as nx
import numpy as np
import pytest

from repro.adjacency.csr import build_csr, csr_from_arrays
from repro.core.bfs import bfs, bfs_profile
from repro.edgelist import EdgeList
from repro.errors import VertexError
from repro.generators.reference import grid_graph, path_graph, star_graph
from repro.generators.rmat import rmat_graph
from tests.core.bfs_oracle import assert_bfs_equal, unique_commit_bfs


class TestCorrectness:
    def test_distances_match_networkx(self, er_csr, er_nx):
        res = bfs(er_csr, 0)
        truth = nx.single_source_shortest_path_length(er_nx, 0)
        mine = {v: int(d) for v, d in enumerate(res.dist) if d >= 0}
        assert mine == dict(truth)

    def test_unreachable_marked(self, er_csr, er_nx):
        res = bfs(er_csr, 0)
        reachable = set(nx.node_connected_component(er_nx, 0))
        assert set(res.reached().tolist()) == reachable

    def test_parents_form_valid_tree(self, er_csr, er_nx):
        res = bfs(er_csr, 0)
        for v in res.reached().tolist():
            if v == 0:
                assert res.parent[v] == -1
                continue
            p = int(res.parent[v])
            assert res.dist[p] == res.dist[v] - 1
            assert er_nx.has_edge(p, v)

    def test_path_graph_levels(self):
        csr = build_csr(path_graph(6))
        res = bfs(csr, 0)
        assert res.dist.tolist() == [0, 1, 2, 3, 4, 5]
        assert res.n_levels == 6

    def test_star_two_levels(self):
        csr = build_csr(star_graph(8))
        res = bfs(csr, 0)
        assert res.n_levels == 2
        assert np.all(res.dist[1:] == 1)

    def test_from_leaf_of_star(self):
        csr = build_csr(star_graph(8))
        res = bfs(csr, 3)
        assert res.dist[0] == 1
        assert res.dist[5] == 2

    def test_grid_diagonal_distance(self):
        csr = build_csr(grid_graph(4, 4))
        res = bfs(csr, 0)
        assert res.dist[15] == 6  # Manhattan distance to opposite corner

    def test_isolated_source(self):
        g = EdgeList(3, np.array([1]), np.array([2]))
        res = bfs(build_csr(g), 0)
        assert res.n_reached == 1
        assert res.dist.tolist() == [0, -1, -1]

    def test_bad_source(self, er_csr):
        with pytest.raises(VertexError):
            bfs(er_csr, er_csr.n)

    def test_max_levels_truncates(self):
        csr = build_csr(path_graph(10))
        res = bfs(csr, 0, max_levels=3)
        assert res.dist.max() == 3


class TestMatchesUniqueCommitOracle:
    """Bit-identity with the sort-based commit: which valid parent is fixed."""

    @pytest.mark.parametrize("seed", [3, 17, 92])
    def test_rmat_seeds(self, seed):
        csr = build_csr(rmat_graph(10, 8, seed=seed, ts_range=(1, 100)))
        for source in (0, csr.n // 2, int(np.argmax(csr.degrees()))):
            for ts_range in (None, (1, 100), (10, 40)):
                assert_bfs_equal(
                    unique_commit_bfs(csr, source, ts_range=ts_range),
                    bfs(csr, source, ts_range=ts_range),
                )

    def test_multigraph_parallel_arcs(self):
        # Duplicates inside one frontier vertex's list and across vertices.
        src = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2, 3, 3])
        dst = np.array([2, 1, 2, 1, 3, 3, 3, 4, 4, 4, 4])
        csr = csr_from_arrays(5, np.concatenate([src, dst]), np.concatenate([dst, src]))
        for source in range(5):
            assert_bfs_equal(unique_commit_bfs(csr, source), bfs(csr, source))

    def test_ts_range_filters_out_the_would_be_winner(self):
        # 3 is reachable from 1 (stamp 50) and from 2 (stamp 5): unfiltered
        # the lower-id 1 wins, inside (0, 10) only 2 can.
        g = EdgeList(4, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3]),
                     ts=np.array([5, 5, 50, 5]))
        csr = build_csr(g)
        assert bfs(csr, 0).parent[3] == 1
        filtered = bfs(csr, 0, ts_range=(0, 10))
        assert filtered.parent[3] == 2
        assert_bfs_equal(unique_commit_bfs(csr, 0, ts_range=(0, 10)), filtered)

    def test_max_levels(self, small_rmat_csr):
        for max_levels in (0, 1, 2):
            assert_bfs_equal(
                unique_commit_bfs(small_rmat_csr, 0, max_levels=max_levels),
                bfs(small_rmat_csr, 0, max_levels=max_levels),
            )

    def test_isolated_source(self):
        csr = build_csr(EdgeList(3, np.array([1]), np.array([2])))
        assert_bfs_equal(unique_commit_bfs(csr, 0), bfs(csr, 0))

    @pytest.mark.parametrize(
        "make", [lambda: path_graph(20_000), lambda: grid_graph(200, 200)], ids=["path", "grid"]
    )
    def test_deep_graphs(self, make):
        csr = build_csr(make())
        source = csr.n // 3
        assert_bfs_equal(unique_commit_bfs(csr, source), bfs(csr, source))

    def test_parent_is_smallest_neighbour_on_previous_level(self, small_rmat_csr):
        csr = small_rmat_csr
        res = bfs(csr, 0)
        for v in res.reached().tolist():
            if v == 0:
                continue
            nbrs = csr.neighbors(v)
            assert res.parent[v] == nbrs[res.dist[nbrs] == res.dist[v] - 1].min()


class TestTemporalFilter:
    def test_filter_blocks_old_edges(self):
        g = EdgeList(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                     ts=np.array([5, 50, 5]))
        res = bfs(build_csr(g), 0, ts_range=(0, 10))
        assert res.dist.tolist() == [0, 1, -1, -1]

    def test_full_range_equals_unfiltered(self, small_rmat, small_rmat_csr):
        plain = bfs(small_rmat_csr, 0)
        filt = bfs(small_rmat_csr, 0, ts_range=(1, 100))
        assert np.array_equal(plain.dist, filt.dist)

    def test_requires_timestamps(self, er_csr):
        with pytest.raises(VertexError, match="no time-stamps"):
            bfs(er_csr, 0, ts_range=(0, 1))

    def test_interval_inclusive(self):
        g = EdgeList(3, np.array([0, 1]), np.array([1, 2]), ts=np.array([5, 10]))
        res = bfs(build_csr(g), 0, ts_range=(5, 10))
        assert res.dist.tolist() == [0, 1, 2]


class TestStatistics:
    def test_edges_scanned_counts_arc_visits(self):
        csr = build_csr(path_graph(4))
        res = bfs(csr, 0)
        # Levels scan the frontier's full adjacency: 1 + 2 + 2 + 1.
        assert res.total_edges_scanned == 6

    def test_frontier_sizes(self):
        csr = build_csr(star_graph(5))
        res = bfs(csr, 0)
        assert res.frontier_sizes == [1, 4]

    def test_max_frontier_degree(self):
        csr = build_csr(star_graph(5))
        res = bfs(csr, 0)
        assert res.max_frontier_degree[0] == 4


class TestProfile:
    def test_one_phase_per_level(self, small_rmat_csr):
        res = bfs(small_rmat_csr, 0)
        prof = bfs_profile(small_rmat_csr, res)
        assert len(prof.phases) == res.n_levels
        assert prof.meta["levels"] == res.n_levels

    def test_degree_split_removes_imbalance(self):
        csr = build_csr(star_graph(100))
        res = bfs(csr, 3)  # level 2 is dominated by the hub's adjacency
        split = bfs_profile(csr, res, degree_split=True)
        nosplit = bfs_profile(csr, res, degree_split=False)
        assert all(p.max_unit_frac == 0.0 for p in split.phases)
        assert any(p.max_unit_frac > 0.5 for p in nosplit.phases)

    def test_temporal_profile_charges_ts_reads(self, small_rmat_csr):
        res_t = bfs(small_rmat_csr, 0, ts_range=(1, 100))
        res_p = bfs(small_rmat_csr, 0)
        prof_t = bfs_profile(small_rmat_csr, res_t)
        prof_p = bfs_profile(small_rmat_csr, res_p)
        assert prof_t.total("seq_bytes") > prof_p.total("seq_bytes")

    def test_empty_traversal_still_valid(self):
        g = EdgeList(3, np.array([1]), np.array([2]))
        csr = build_csr(g)
        res = bfs(csr, 0)
        prof = bfs_profile(csr, res)
        assert len(prof.phases) >= 1
