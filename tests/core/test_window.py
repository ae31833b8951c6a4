"""Tests for the sliding-window graph."""

import networkx as nx
import numpy as np
import pytest

from repro.core.window import SlidingWindowGraph
from repro.errors import GraphError, StreamError
from repro.generators.rmat import rmat_edges


class TestBasics:
    def test_fills_then_expires(self):
        g = SlidingWindowGraph(10, window=2)
        assert g.advance([0, 1], [1, 2]) == 0
        assert g.advance([2, 3], [3, 4]) == 0
        assert g.n_edges == 4
        expired = g.advance([4], [5])
        assert expired == 2  # the first batch aged out
        assert g.n_edges == 3
        g.validate()

    def test_tick_counter(self):
        g = SlidingWindowGraph(5, window=3)
        assert g.tick == -1
        g.advance([0], [1])
        g.advance([1], [2])
        assert g.tick == 1

    def test_self_loops_dropped(self):
        g = SlidingWindowGraph(5, window=2)
        g.advance([0, 1, 2], [0, 2, 2])
        assert g.n_edges == 1

    def test_default_ts_is_tick(self):
        g = SlidingWindowGraph(5, window=4)
        g.advance([0], [1])
        g.advance([1], [2])
        snap = g.snapshot()
        _, ts = snap.neighbors_with_ts(1)
        assert sorted(ts.tolist()) == [0, 1]

    def test_explicit_ts(self):
        g = SlidingWindowGraph(5, window=2)
        g.advance([0], [1], ts=[42])
        snap = g.snapshot()
        assert snap.neighbors_with_ts(0)[1].tolist() == [42]

    def test_old_edges_leave_snapshot(self):
        g = SlidingWindowGraph(5, window=1)
        g.advance([0], [1])
        g.advance([2], [3])
        snap = g.snapshot()
        assert snap.degree(0) == 0
        assert snap.degree(2) == 1

    def test_validation_errors(self):
        with pytest.raises(GraphError):
            SlidingWindowGraph(5, window=0)
        g = SlidingWindowGraph(5, window=2)
        with pytest.raises(StreamError):
            g.advance([0, 1], [1])
        with pytest.raises(StreamError):
            g.advance([0], [1], ts=[1, 2])


class TestConnectivityTracking:
    @pytest.mark.parametrize("track", [False, True])
    def test_connectivity_matches_truth(self, track):
        rng = np.random.default_rng(5)
        g = SlidingWindowGraph(24, window=3, track_connectivity=track,
                               **({"seed": 1} if track else {}))
        window_batches = []
        for tick in range(8):
            src, dst = rmat_edges(4, 30, seed=int(rng.integers(1 << 30)))
            # drop loops for the reference too
            keep = src != dst
            src, dst = src[keep], dst[keep]
            # vertex space is 16 < 24: valid
            g.advance(src, dst)
            window_batches.append((src, dst))
            window_batches = window_batches[-3:]
            G = nx.MultiGraph()
            G.add_nodes_from(range(24))
            for s_, d_ in window_batches:
                G.add_edges_from(zip(s_.tolist(), d_.tolist()))
            for _ in range(20):
                a, b = (int(x) for x in rng.integers(0, 24, 2))
                assert g.connected(a, b) == nx.has_path(G, a, b), (tick, a, b)
        g.validate()

    def test_components_tracked(self):
        g = SlidingWindowGraph(6, window=1, track_connectivity=True, seed=2)
        g.advance([0, 2], [1, 3])
        assert g.n_components() == 4  # {0,1},{2,3},{4},{5}
        g.advance([4], [5])
        assert g.n_components() == 5  # old batch expired

    def test_untracked_components(self):
        g = SlidingWindowGraph(6, window=2)
        g.advance([0, 2], [1, 3])
        assert g.n_components() == 4


class TestSteadyState:
    def test_edge_count_stable(self):
        g = SlidingWindowGraph(32, window=4)
        rng = np.random.default_rng(9)
        for tick in range(12):
            src = rng.integers(0, 32, 25)
            dst = (src + 1 + rng.integers(0, 30, 25)) % 32  # loop-free
            g.advance(src, dst)
            if tick >= 4:
                assert g.n_edges == 4 * 25
        g.validate()

    def test_duplicate_edges_within_window(self):
        g = SlidingWindowGraph(4, window=2)
        g.advance([0, 0], [1, 1])  # duplicates allowed
        g.advance([0], [1])
        assert g.n_edges == 3
        g.advance([2], [3])  # first batch (2 copies) expires
        assert g.n_edges == 2
        g.validate()
