"""Tests for repro.edgelist.EdgeList."""

import numpy as np
import pytest

from repro.edgelist import EdgeList
from repro.errors import GraphError, VertexError


def make(n=4, src=(0, 1, 2), dst=(1, 2, 3), **kw):
    return EdgeList(n, np.array(src), np.array(dst), **kw)


class TestConstruction:
    def test_basic(self):
        g = make()
        assert g.n == 4 and g.m == 3
        assert not g.directed

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexError):
            make(dst=(1, 2, 4))

    def test_negative_vertex_rejected(self):
        with pytest.raises(VertexError):
            make(src=(-1, 1, 2))

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            EdgeList(4, np.array([0, 1]), np.array([1]))

    def test_ts_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            make(ts=np.array([1, 2]))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(GraphError):
            make(w=np.array([1, 0, 1]))

    def test_negative_n_rejected(self):
        with pytest.raises(GraphError):
            EdgeList(-1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))

    def test_empty_graph(self):
        g = EdgeList(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert g.m == 0


class TestDefaults:
    def test_timestamps_default_zero(self):
        assert make().timestamps().tolist() == [0, 0, 0]

    def test_weights_default_one(self):
        assert make().weights().tolist() == [1, 1, 1]

class TestDerivedViews:
    def test_degrees_undirected(self):
        g = make()  # path 0-1-2-3
        assert g.degrees().tolist() == [1, 2, 2, 1]

    def test_degrees_directed(self):
        g = make(directed=True)
        assert g.degrees().tolist() == [1, 1, 1, 0]

    def test_symmetrized_doubles(self):
        s = make(ts=np.array([5, 6, 7])).symmetrized()
        assert s.m == 6 and s.directed
        assert s.ts.tolist() == [5, 6, 7, 5, 6, 7]

    def test_symmetrized_directed_noop(self):
        g = make(directed=True)
        assert g.symmetrized() is g

    def test_deduplicated(self):
        g = EdgeList(3, np.array([0, 0, 1]), np.array([1, 1, 2]))
        assert g.deduplicated().m == 2

    def test_without_self_loops(self):
        g = EdgeList(3, np.array([0, 1, 2]), np.array([0, 2, 2]))
        assert g.without_self_loops().m == 1

    def test_select_preserves_parallel_arrays(self):
        g = make(ts=np.array([5, 6, 7]))
        sub = g.select(np.array([2, 0]))
        assert sub.src.tolist() == [2, 0]
        assert sub.ts.tolist() == [7, 5]

    def test_with_timestamps(self):
        g = make().with_timestamps(np.array([9, 9, 9]))
        assert g.ts.tolist() == [9, 9, 9]

    def test_shuffled_is_permutation(self):
        g = make(ts=np.array([5, 6, 7]))
        s = g.shuffled(np.random.default_rng(0))
        assert sorted(zip(s.src, s.dst, s.ts)) == sorted(zip(g.src, g.dst, g.ts))

    def test_memory_bytes(self):
        assert make().memory_bytes() == 2 * 3 * 8
        assert make(ts=np.array([1, 2, 3])).memory_bytes() == 3 * 3 * 8

