"""Tests for reference generators (and the networkx bridge)."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.generators.reference import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    star_graph,
    to_networkx,
    watts_strogatz,
)
from repro.generators.timestamps import uniform_timestamps


class TestDeterministicGraphs:
    def test_path(self):
        g = path_graph(5)
        assert g.m == 4
        assert g.degrees().tolist() == [1, 2, 2, 2, 1]

    def test_path_trivial(self):
        assert path_graph(0).m == 0
        assert path_graph(1).m == 0

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.m == 5
        assert np.all(g.degrees() == 2)

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(6)
        deg = g.degrees()
        assert deg[0] == 5 and np.all(deg[1:] == 1)

    def test_complete(self):
        g = complete_graph(5)
        assert g.m == 10
        assert np.all(g.degrees() == 4)

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical edges
        assert int(g.degrees().max()) == 4

    def test_grid_invalid(self):
        with pytest.raises(GraphError):
            grid_graph(0, 3)


class TestRandomGraphs:
    def test_er_edge_count_near_expectation(self):
        g = erdos_renyi(100, 0.1, seed=1)
        expected = 0.1 * 100 * 99 / 2
        assert 0.7 * expected < g.m < 1.3 * expected

    def test_er_deterministic(self):
        a = erdos_renyi(50, 0.2, seed=5)
        b = erdos_renyi(50, 0.2, seed=5)
        assert np.array_equal(a.src, b.src)

    def test_er_p_extremes(self):
        assert erdos_renyi(20, 0.0, seed=1).m == 0
        assert erdos_renyi(20, 1.0, seed=1).m == 190

    def test_er_tiny_n(self):
        assert erdos_renyi(1, 0.5, seed=1).m == 0

    def test_ws_structure(self):
        g = watts_strogatz(60, 4, 0.0, seed=2)
        assert g.m == 120  # n*k/2
        assert np.all(g.degrees() == 4)

    def test_ws_rewiring_no_self_loops(self):
        g = watts_strogatz(60, 4, 0.5, seed=3)
        assert np.all(g.src != g.dst)

    def test_ws_invalid_k(self):
        with pytest.raises(GraphError):
            watts_strogatz(10, 3, 0.1)
        with pytest.raises(GraphError):
            watts_strogatz(10, 10, 0.1)


class TestToNetworkx:
    def test_roundtrip_counts(self):
        g = erdos_renyi(40, 0.2, seed=4)
        G = to_networkx(g)
        assert G.number_of_nodes() == 40
        # simple graph collapses duplicates; ER has none
        assert G.number_of_edges() == g.m

    def test_ts_attribute(self):
        g = path_graph(4)
        g = g.with_timestamps(uniform_timestamps(g.m, 1, 9, seed=1))
        G = to_networkx(g)
        assert all("ts" in d for _, _, d in G.edges(data=True))

    def test_multigraph(self):
        import networkx as nx

        g = path_graph(3)
        G = to_networkx(g, multigraph=True)
        assert isinstance(G, nx.MultiGraph)


class TestTimestamps:
    def test_range_inclusive(self):
        ts = uniform_timestamps(5000, 3, 7, seed=1)
        assert ts.min() == 3 and ts.max() == 7

    def test_deterministic(self):
        assert np.array_equal(
            uniform_timestamps(100, 0, 10, seed=2), uniform_timestamps(100, 0, 10, seed=2)
        )

    def test_single_value_range(self):
        assert np.all(uniform_timestamps(10, 4, 4, seed=1) == 4)

    def test_invalid(self):
        with pytest.raises(GraphError):
            uniform_timestamps(-1, 0, 5)
        with pytest.raises(GraphError):
            uniform_timestamps(5, -1, 5)
        with pytest.raises(GraphError):
            uniform_timestamps(5, 6, 5)
