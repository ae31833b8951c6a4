"""Direction-optimizing BFS: bottom-up levels commit the top-down answer.

On a snapshot stamped symmetric, :func:`repro.core.bfs.level_loop` runs a
level bottom-up (:func:`repro.core.frontier.pull`) when the frontier holds
more arcs than the unvisited vertices do.  Serial BFS and the link-cut
build must still equal the sort-based oracle bit for bit, and the suite
checks that pulls actually ran where they should and never where they
must not.
"""

import numpy as np
import pytest

from repro.adjacency.csr import CSRGraph, build_csr, csr_from_arrays
from repro.core.bfs import bfs
from repro.core.frontier import pull
from repro.core.linkcut import LinkCutForest
from repro.edgelist import EdgeList
from repro.generators.reference import grid_graph, path_graph, star_graph
from repro.generators.rmat import rmat_graph
from tests.core.bfs_oracle import assert_bfs_equal, unique_commit_bfs, unique_commit_forest


def int64(xs):
    return np.array(xs, dtype=np.int64)


def multigraph():
    # Parallel arcs inside one list and across lists, self-loops on 1 and 4,
    # and an isolated vertex 6.
    src = int64([0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5])
    dst = int64([2, 1, 2, 1, 3, 3, 1, 3, 4, 4, 4, 4, 4, 0])
    return build_csr(EdgeList(7, src, dst))


GRAPHS = {
    "rmat-3": lambda: build_csr(rmat_graph(10, 8, seed=3)),
    "rmat-17": lambda: build_csr(rmat_graph(10, 8, seed=17)),
    "rmat-sparse": lambda: build_csr(rmat_graph(9, 2, seed=92)),
    "path": lambda: build_csr(path_graph(300)),
    "star": lambda: build_csr(star_graph(64)),
    "grid": lambda: build_csr(grid_graph(30, 30)),
    "multigraph": multigraph,
}


def sources(csr):
    # The hub, vertex 0 (a star's centre), a leaf / far vertex, the middle.
    return sorted({int(np.argmax(csr.degrees())), 0, csr.n - 1, csr.n // 2})


class TestPullStep:
    # 0: [1, 2, 2]   1: [0, 2, 3]   2: [0, 0, 1]   3: [1]   4: []
    csr = csr_from_arrays(
        5, int64([0, 0, 0, 1, 1, 1, 2, 2, 2, 3]), int64([1, 2, 2, 0, 2, 3, 0, 0, 1, 1])
    )

    def test_smallest_frontier_neighbour_owns_the_vertex(self):
        dist = int64([0, 0, -1, -1, -1])
        new, owners = pull(0, dist, self.csr.offsets, self.csr.targets)
        assert (new.tolist(), owners.tolist()) == ([2, 3], [0, 1])

    def test_only_neighbours_at_level_count(self):
        # 2's neighbours 0 (level 0) and 1 (level 1): only 1 is on the frontier.
        dist = int64([0, 1, -1, -1, -1])
        new, owners = pull(1, dist, self.csr.offsets, self.csr.targets)
        assert (new.tolist(), owners.tolist()) == ([2, 3], [1, 1])

    def test_nothing_unvisited_with_arcs(self):
        for dist in (int64([0, 1, 1, 2, -1]), int64([0, 1, 1, 2, 3])):
            new, owners = pull(2, dist, self.csr.offsets, self.csr.targets)
            assert new.size == 0 and owners.size == 0

    def test_no_frontier_neighbour(self):
        new, owners = pull(0, int64([-1, -1, -1, 0, -1]), self.csr.offsets, self.csr.targets)
        assert (new.tolist(), owners.tolist()) == ([1], [3])


class TestSerialBFS:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_unique_commit_oracle(self, name):
        csr = GRAPHS[name]()
        assert csr.symmetric
        for source in sources(csr):
            assert_bfs_equal(unique_commit_bfs(csr, source), bfs(csr, source))

    def test_max_levels(self):
        csr = GRAPHS["rmat-3"]()
        source = int(np.argmax(csr.degrees()))
        for max_levels in (0, 1, 2, 3):
            assert_bfs_equal(
                unique_commit_bfs(csr, source, max_levels=max_levels),
                bfs(csr, source, max_levels=max_levels),
            )

    def test_isolated_source(self):
        csr = multigraph()
        res = bfs(csr, 6)
        assert_bfs_equal(unique_commit_bfs(csr, 6), res)
        assert res.arcs_touched == 0

    def test_a_pull_ran_on_rmat(self):
        csr = GRAPHS["rmat-3"]()
        res = bfs(csr, int(np.argmax(csr.degrees())))
        assert 0 < res.arcs_touched < res.total_edges_scanned

    def test_star_from_a_leaf_pulls_the_hub_level(self):
        # Level 1 is the hub (63 arcs), the 62 leaves left hold 62: pull.
        csr = build_csr(star_graph(64))
        res = bfs(csr, 5)
        assert res.edges_scanned == [1, 63, 62]
        assert res.arcs_touched == 1 + 62


class TestNeverPulls:
    """Everything but a stamped symmetric, unfiltered traversal is top-down."""

    def test_ts_range(self):
        csr = build_csr(rmat_graph(10, 8, seed=3, ts_range=(1, 100)))
        source = int(np.argmax(csr.degrees()))
        for ts_range in ((1, 100), (10, 40)):
            res = bfs(csr, source, ts_range=ts_range)
            assert_bfs_equal(unique_commit_bfs(csr, source, ts_range=ts_range), res)
            assert res.arcs_touched == res.total_edges_scanned

    def test_directed(self):
        g = rmat_graph(10, 8, seed=3)
        csr = build_csr(EdgeList(g.n, g.src, g.dst, directed=True))
        assert not csr.symmetric
        source = int(np.argmax(csr.degrees()))
        res = bfs(csr, source)
        assert_bfs_equal(unique_commit_bfs(csr, source), res)
        assert res.arcs_touched == res.total_edges_scanned

    def test_unstamped_asymmetric_csr(self):
        # 0 -> 1 twice, and 2 -> 0 with no reverse arc.  The frontier {0}
        # holds more arcs than the rest, so a pull would run: it would miss
        # 1 (no arcs of its own) and claim 2 through its one-way arc.
        csr = CSRGraph(3, int64([0, 2, 2, 3]), int64([1, 1, 0]))
        assert not csr.symmetric
        res = bfs(csr, 0)
        assert res.dist.tolist() == [0, 1, -1]
        assert_bfs_equal(unique_commit_bfs(csr, 0), res)

    def test_unstamped_symmetric_arcs(self):
        g = build_csr(rmat_graph(10, 8, seed=3))
        csr = CSRGraph(g.n, g.offsets, g.targets)
        res = bfs(csr, int(np.argmax(csr.degrees())))
        assert res.arcs_touched == res.total_edges_scanned


class TestLinkCutBuild:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_unique_commit_forest(self, name):
        csr = GRAPHS[name]()
        forest, record = LinkCutForest.from_csr(csr)
        parent, levels, max_depth, widths, arcs = unique_commit_forest(
            csr, record.components.roots()
        )
        np.testing.assert_array_equal(forest.parent, parent)
        assert (record.levels, record.max_depth) == (levels, max_depth)
        phases = [p for p in record.profile.phases if p.name.startswith("bfs-level")]
        assert len(phases) == sum(1 for a in arcs if a)
