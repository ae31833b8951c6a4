"""Tests for the small-world network statistics."""

import networkx as nx
import numpy as np
import pytest

from repro.adjacency.csr import build_csr
from repro.core.bfs import bfs
from repro.core.metrics import (
    average_clustering,
    clustering_coefficient,
    degree_stats,
    effective_diameter,
    giant_component_fraction,
)
from repro.edgelist import EdgeList
from repro.errors import GraphError
from repro.generators.rmat import rmat_graph
from repro.generators.reference import (
    complete_graph,
    erdos_renyi,
    path_graph,
    star_graph,
    to_networkx,
    watts_strogatz,
)
from repro.util.seeding import make_rng


class TestDegreeStats:
    def test_path(self):
        s = degree_stats(build_csr(path_graph(5)))
        assert s.min == 1 and s.max == 2
        assert s.mean == pytest.approx(8 / 5)

    def test_rmat_heavy_tail(self):
        csr = build_csr(rmat_graph(11, 10, seed=81))
        s = degree_stats(csr)
        assert s.max > 10 * s.mean  # unbalanced degree distribution
        assert s.top1pct_arc_share > 0.1
        assert s.loglog_slope < -0.5  # decaying tail

    def test_er_balanced(self):
        csr = build_csr(erdos_renyi(400, 0.03, seed=82))
        s = degree_stats(csr)
        assert s.max < 5 * s.mean
        assert s.top1pct_arc_share < 0.1

    def test_empty(self):
        g = EdgeList(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        s = degree_stats(build_csr(g))
        assert s.n == 0 and s.mean == 0.0


class TestClustering:
    def test_matches_networkx(self, er_csr, er_nx):
        mine = clustering_coefficient(er_csr)
        truth = nx.clustering(er_nx)
        for v in range(er_csr.n):
            assert mine[v] == pytest.approx(truth[v], abs=1e-12)

    def test_complete_graph_all_one(self):
        vals = clustering_coefficient(build_csr(complete_graph(6)))
        assert np.allclose(vals, 1.0)

    def test_star_all_zero(self):
        vals = clustering_coefficient(build_csr(star_graph(6)))
        assert np.allclose(vals, 0.0)

    def test_triangle_with_tail(self):
        # triangle 0-1-2 plus pendant 3 on 0
        g = EdgeList(4, np.array([0, 1, 2, 0]), np.array([1, 2, 0, 3]))
        vals = clustering_coefficient(build_csr(g))
        assert vals[1] == 1.0 and vals[2] == 1.0
        assert vals[0] == pytest.approx(1 / 3)
        assert vals[3] == 0.0

    def test_duplicate_arcs_ignored(self):
        g = EdgeList(3, np.array([0, 0, 1, 2]), np.array([1, 1, 2, 0]))
        vals = clustering_coefficient(build_csr(g))
        assert np.allclose(vals, 1.0)

    def test_subset(self, er_csr):
        vals = clustering_coefficient(er_csr, vertices=np.array([0, 5]))
        assert vals.shape == (2,)

    def test_subset_validated(self, er_csr):
        with pytest.raises(GraphError):
            clustering_coefficient(er_csr, vertices=np.array([er_csr.n]))

    def test_average_matches_networkx(self, er_csr, er_nx):
        assert average_clustering(er_csr) == pytest.approx(
            nx.average_clustering(er_nx), abs=1e-12
        )

    def test_sampled_average(self, er_csr):
        a = average_clustering(er_csr, samples=50, seed=1)
        b = average_clustering(er_csr, samples=50, seed=1)
        assert a == b  # deterministic

    def test_ws_more_clustered_than_er(self):
        ws = build_csr(watts_strogatz(200, 6, 0.05, seed=83))
        er = build_csr(erdos_renyi(200, 6 / 199, seed=83))
        assert average_clustering(ws) > 3 * average_clustering(er)

    def test_invalid_sample_size(self, er_csr):
        with pytest.raises(GraphError):
            average_clustering(er_csr, samples=0)


class TestDiameter:
    def test_path_exact(self):
        eff, ecc = effective_diameter(build_csr(path_graph(20)), samples=20, seed=1)
        assert ecc == 19
        assert eff > 5

    def test_small_world_low_diameter(self):
        csr = build_csr(rmat_graph(11, 10, seed=84))
        eff, ecc = effective_diameter(csr, samples=8, seed=2)
        assert eff <= 8  # the small-world phenomenon

    @pytest.mark.parametrize("samples", [0, -3])
    def test_invalid_sample_size(self, er_csr, samples):
        # Used to return (0.0, 0) as if the graph had no finite distance.
        with pytest.raises(GraphError, match="source sample size"):
            effective_diameter(er_csr, samples=samples)

    def test_sample_size_clamped_to_n(self):
        csr = build_csr(path_graph(20))
        assert effective_diameter(csr, samples=1000, seed=1) == effective_diameter(
            csr, samples=20, seed=1
        )

    def test_source_order_does_not_matter(self):
        # The sources are drawn sorted; the statistic is that of the same
        # draw taken in the generator's order.
        csr = build_csr(rmat_graph(9, 4, seed=84))
        drawn = make_rng(5).choice(csr.n, size=12, replace=False)
        dists = [bfs(csr, int(s)).dist for s in drawn]
        finite = np.concatenate([d[d > 0] for d in dists])
        expected = (float(np.percentile(finite, 90.0)), int(max(d.max() for d in dists)))
        assert effective_diameter(csr, samples=12, seed=5) == expected

    def test_empty_graph(self):
        g = EdgeList(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert effective_diameter(build_csr(g)) == (0.0, 0)


class TestGiantComponent:
    def test_connected(self):
        assert giant_component_fraction(build_csr(path_graph(5))) == 1.0

    def test_matches_networkx(self, er_csr, er_nx):
        truth = max(len(c) for c in nx.connected_components(er_nx)) / er_csr.n
        assert giant_component_fraction(er_csr) == pytest.approx(truth)
