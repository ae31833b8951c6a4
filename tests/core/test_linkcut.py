"""Tests for the link-cut forest."""

import numpy as np
import pytest

from repro.adjacency.csr import build_csr
from repro.adjacency.dynarr import DynArrAdjacency
from repro.core import linkcut
from repro.core.components import connected_components
from repro.core.linkcut import LinkCutForest
from repro.errors import GraphError, NotInForestError, VertexError
from repro.generators.reference import grid_graph, path_graph, star_graph
from repro.generators.rmat import rmat_graph
from tests.core.bfs_oracle import unique_commit_forest


class TestBasicOps:
    def test_initially_all_roots(self):
        f = LinkCutForest(4)
        assert f.n_trees() == 4
        assert all(f.is_root(v) for v in range(4))

    def test_link_and_parent(self):
        f = LinkCutForest(4)
        f.link(1, 0)
        assert f.parent_of(1) == 0
        assert f.findroot(1) == 0
        assert f.n_trees() == 3

    def test_link_requires_root_source(self):
        f = LinkCutForest(4)
        f.link(1, 0)
        with pytest.raises(GraphError, match="not a root"):
            f.link(1, 2)

    def test_link_rejects_cycle(self):
        f = LinkCutForest(4)
        f.link(1, 0)
        with pytest.raises(GraphError, match="cycle"):
            f.link(0, 1)

    def test_cut(self):
        f = LinkCutForest(4)
        f.link(1, 0)
        assert f.cut(1) == 0
        assert f.is_root(1)

    def test_cut_root_rejected(self):
        with pytest.raises(NotInForestError):
            LinkCutForest(3).cut(0)

    def test_connected(self):
        f = LinkCutForest(5)
        f.link(1, 0)
        f.link(2, 1)
        f.link(4, 3)
        assert f.connected(0, 2)
        assert f.connected(3, 4)
        assert not f.connected(2, 4)

    def test_vertex_validation(self):
        f = LinkCutForest(3)
        with pytest.raises(VertexError):
            f.findroot(3)
        with pytest.raises(VertexError):
            f.link(0, -1)

    def test_version_increments(self):
        f = LinkCutForest(3)
        v0 = f.version
        f.link(1, 0)
        f.cut(1)
        assert f.version == v0 + 2

    def test_hops_counted(self):
        f = LinkCutForest(4)
        f.link(1, 0)
        f.link(2, 1)
        f.hops = 0
        f.findroot(2)
        assert f.hops == 2


class TestBatchOps:
    def test_findroot_batch_matches_scalar(self):
        f = LinkCutForest(50)
        rng = np.random.default_rng(0)
        for v in range(1, 50):
            f.link(v, int(rng.integers(0, v)))
        q = rng.integers(0, 50, 100)
        batch = f.findroot_batch(q)
        assert batch.tolist() == [f.findroot(int(v)) for v in q]

    def test_connected_batch(self):
        f = LinkCutForest(6)
        f.link(1, 0)
        f.link(2, 1)
        f.link(4, 3)
        out = f.connected_batch([0, 0, 3], [2, 4, 4])
        assert out.tolist() == [True, False, True]

    def test_connected_batch_in_blocks(self, monkeypatch):
        f = LinkCutForest(60)
        rng = np.random.default_rng(3)
        for v in range(1, 60):
            if v % 7:  # every seventh vertex stays a root: several trees
                f.link(v, int(rng.integers(0, v)))
        us, vs = rng.integers(0, 60, 100), rng.integers(0, 60, 100)
        f.hops = 0  # link() counted its cycle checks
        whole = f.connected_batch(us, vs)
        whole_hops, f.hops = f.hops, 0
        monkeypatch.setattr(linkcut, "_QUERY_BLOCK", 7)  # 100 pairs: 14 full blocks + 2
        assert np.array_equal(f.connected_batch(us, vs), whole)
        assert f.hops == whole_hops
        assert whole.tolist() == [f.findroot(int(u)) == f.findroot(int(v)) for u, v in zip(us, vs)]
        assert f.connected_batch([], []).size == 0
        with pytest.raises(GraphError):
            f.connected_batch([0, 1], [0])

    def test_batch_out_of_range(self):
        with pytest.raises(VertexError):
            LinkCutForest(3).findroot_batch([3])

    def test_depths(self):
        f = LinkCutForest(4)
        f.link(1, 0)
        f.link(2, 1)
        assert f.depths().tolist() == [0, 1, 2, 0]


class TestConstruction:
    def test_spanning_forest_of_er(self, er_csr, er_nx):
        forest, record = LinkCutForest.from_csr(er_csr)
        forest.validate()
        comps = connected_components(er_csr)
        assert forest.n_trees() == comps.n_components
        # forest connectivity must equal graph connectivity
        rng = np.random.default_rng(1)
        us = rng.integers(0, er_csr.n, 200)
        vs = rng.integers(0, er_csr.n, 200)
        mine = forest.connected_batch(us, vs)
        truth = comps.labels[us] == comps.labels[vs]
        assert np.array_equal(mine, truth)

    def test_tree_edges_are_graph_edges(self, er_csr, er_nx):
        forest, _ = LinkCutForest.from_csr(er_csr)
        for v in range(er_csr.n):
            p = forest.parent_of(v)
            if p != -1:
                assert er_nx.has_edge(v, p)

    def test_depth_bounded_by_bfs_ecc(self):
        forest, record = LinkCutForest.from_csr(build_csr(path_graph(20)))
        assert record.max_depth == 19

    def test_profile_includes_components_and_bfs(self, er_csr):
        _, record = LinkCutForest.from_csr(er_csr)
        names = [p.name for p in record.profile.phases]
        assert any(n.startswith("pass") for n in names)
        assert any(n.startswith("bfs-level") for n in names)

    def test_star_construction(self):
        forest, record = LinkCutForest.from_csr(build_csr(star_graph(50)))
        assert forest.n_trees() == 1
        assert record.max_depth == 1

    @pytest.mark.parametrize(
        "make",
        [lambda: rmat_graph(10, 8, seed=3), lambda: rmat_graph(9, 2, seed=17),
         lambda: path_graph(2_000), lambda: grid_graph(40, 40)],
        ids=["rmat", "rmat-sparse", "path", "grid"],
    )
    def test_matches_unique_commit_oracle(self, make):
        # Multi-source: one root per component, many components when sparse.
        csr = build_csr(make())
        forest, record = LinkCutForest.from_csr(csr)
        parent, levels, max_depth, _, _ = unique_commit_forest(csr, record.components.roots())
        np.testing.assert_array_equal(forest.parent, parent)
        assert (record.levels, record.max_depth) == (levels, max_depth)

    @pytest.mark.parametrize(
        "make",
        [lambda: rmat_graph(10, 8, seed=3), lambda: path_graph(300), lambda: star_graph(50)],
        ids=["rmat", "path", "star"],
    )
    def test_profile_levels_match_oracle(self, make):
        # One bfs-level{i} phase per level that scanned arcs, costed from
        # that level's frontier width and scanned arcs.
        csr = build_csr(make())
        _, record = LinkCutForest.from_csr(csr)
        *_, widths, arcs = unique_commit_forest(csr, record.components.roots())
        expected = [
            (f"bfs-level{i}", 8.0 * a + 6.0 * w, float(a + w), 8.0 * a)
            for i, (w, a) in enumerate(zip(widths, arcs))
            if a
        ]
        actual = [
            (p.name, p.alu_ops, p.rand_accesses, p.seq_bytes)
            for p in record.profile.phases
            if p.name.startswith("bfs-level")
        ]
        assert actual == expected
        assert len(expected) == record.levels + 1


class TestDynamicMaintenance:
    def test_add_edge_joins_trees(self):
        f = LinkCutForest(4)
        assert f.add_edge(0, 1)
        assert f.connected(0, 1)

    def test_add_edge_nontree_returns_false(self):
        f = LinkCutForest(4)
        f.add_edge(0, 1)
        f.add_edge(1, 2)
        assert not f.add_edge(0, 2)

    def test_reroot(self):
        f = LinkCutForest(4)
        f.link(1, 0)
        f.link(2, 1)
        f.reroot(2)
        assert f.is_root(2)
        assert f.findroot(0) == 2
        assert f.connected(0, 2)

    def test_reroot_preserves_partition(self):
        f = LinkCutForest(6)
        for a, b in [(1, 0), (2, 1), (4, 3)]:
            f.link(a, b)
        f.reroot(0)
        assert f.connected(0, 2) and not f.connected(0, 4)

    def test_cut_with_replacement_finds_alternative(self):
        # cycle 0-1-2-3-0: cutting one tree edge must reconnect via the cycle
        rep = DynArrAdjacency(4)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        for u, v in edges:
            rep.insert(u, v)
            rep.insert(v, u)
        f = LinkCutForest(4)
        for u, v in edges[:3]:
            f.add_edge(u, v)
        # delete graph edge (1,2) which is a tree edge
        child = 1 if f.parent_of(1) == 2 else 2
        rep.delete(1, 2)
        rep.delete(2, 1)
        cut = f.cut_with_replacement(child, rep)
        # A tie: the child's side, {0, 1} or {2, 3}, is searched.
        assert child in cut.side and len(cut.side) == 2
        assert cut.replacement in {(0, 3), (3, 0)}
        assert f.connected(1, 2)  # reconnected through 0-3

    def test_cut_with_replacement_none_when_bridge(self):
        rep = DynArrAdjacency(4)
        for u, v in [(0, 1), (1, 2)]:
            rep.insert(u, v)
            rep.insert(v, u)
        f = LinkCutForest(4)
        f.add_edge(0, 1)
        f.add_edge(1, 2)
        child = 1 if f.parent_of(1) == 0 else 0
        rep.delete(0, 1)
        rep.delete(1, 0)
        assert f.cut_with_replacement(child, rep) == ([0], None)
        assert not f.connected(0, 1)

    def test_cut_with_replacement_reads_only_the_smaller_side(self):
        # A long path with one leaf off its middle vertex: cutting the leaf
        # reads the leaf's arcs and nothing of the 2000-vertex side.
        n = 2001
        rep = DynArrAdjacency(n)
        f = LinkCutForest(n)
        f.parent[1:n - 1] = np.arange(n - 2)  # the path, rooted at 0
        f.parent[n - 1] = 1000
        for v in range(1, n):
            rep.insert(v, int(f.parent[v]))
            rep.insert(int(f.parent[v]), v)
        rep.delete(1000, n - 1)
        rep.delete(n - 1, 1000)
        cut = f.cut_with_replacement(n - 1, rep)
        assert cut == ([n - 1], None)
        assert f.scan_arcs == 0  # the leaf has no arcs left; the path is never read

    def test_cut_with_replacement_tie_searches_the_child_side(self):
        # Two triangles joined by the tree edge 2-3, plus the cross edge 0-5:
        # both sides have three vertices, so the child's side is searched.
        rep = DynArrAdjacency(6)
        f = LinkCutForest(6)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]:
            rep.insert(u, v)
            rep.insert(v, u)
            f.add_edge(u, v)
        rep.delete(2, 3)
        rep.delete(3, 2)
        child = 2 if f.parent_of(2) == 3 else 3
        cut = f.cut_with_replacement(child, rep)
        assert child in cut.side and len(cut.side) == 3
        assert cut.replacement in {(0, 5), (5, 0)}
        assert f.connected(2, 3)

    def test_tree_vertices(self):
        f = LinkCutForest(5)
        f.add_edge(0, 1)
        f.add_edge(1, 2)
        assert sorted(f.tree_vertices(0).tolist()) == [0, 1, 2]


class TestValidate:
    def test_detects_cycle(self):
        f = LinkCutForest(3)
        f.parent[0] = 1
        f.parent[1] = 0
        with pytest.raises(GraphError, match="cycle"):
            f.validate()

    def test_detects_out_of_range(self):
        f = LinkCutForest(3)
        f.parent[0] = 7
        with pytest.raises(GraphError):
            f.validate()

    def test_valid_forest_passes(self):
        f = LinkCutForest(3)
        f.link(1, 0)
        f.validate()
