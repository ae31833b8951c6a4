"""Tests for CSR snapshots."""

import numpy as np
import pytest

from repro.adjacency.csr import CSRGraph, build_csr
from repro.adjacency.dynarr import DynArrAdjacency
from repro.edgelist import EdgeList
from repro.errors import GraphError, VertexError
from repro.generators.reference import path_graph


class TestBuildCsr:
    def test_undirected_symmetrised(self):
        csr = build_csr(path_graph(4))
        assert csr.n_arcs == 6
        assert sorted(csr.neighbors(1).tolist()) == [0, 2]

    def test_directed_as_is(self):
        g = EdgeList(3, np.array([0, 1]), np.array([1, 2]), directed=True)
        csr = build_csr(g)
        assert csr.n_arcs == 2
        assert csr.neighbors(1).tolist() == [2]
        assert csr.neighbors(2).size == 0

    def test_explicit_symmetrize_override(self):
        g = EdgeList(3, np.array([0]), np.array([1]), directed=True)
        csr = build_csr(g, symmetrize=True)
        assert csr.n_arcs == 2

    def test_ts_parallel_to_targets(self):
        g = EdgeList(3, np.array([0, 1]), np.array([1, 2]), ts=np.array([7, 9]),
                     directed=True)
        csr = build_csr(g)
        nbr, ts = csr.neighbors_with_ts(1)
        assert nbr.tolist() == [2] and ts.tolist() == [9]

    def test_arc_order_stable(self):
        g = EdgeList(3, np.array([0, 0, 0]), np.array([2, 1, 2]), directed=True)
        csr = build_csr(g)
        assert csr.neighbors(0).tolist() == [2, 1, 2]

    def test_empty_graph(self):
        g = EdgeList(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        csr = build_csr(g)
        assert csr.n_arcs == 0 and csr.degrees().tolist() == [0, 0, 0, 0]


class TestCSRGraphValidation:
    def test_bad_offsets_shape(self):
        with pytest.raises(GraphError):
            CSRGraph(2, np.array([0, 1]), np.array([0]))

    def test_offsets_must_cover_targets(self):
        with pytest.raises(GraphError):
            CSRGraph(2, np.array([0, 1, 5]), np.array([0]))

    def test_decreasing_offsets(self):
        with pytest.raises(GraphError):
            CSRGraph(2, np.array([0, 2, 1]), np.array([0, 1]))

    def test_targets_in_range(self):
        with pytest.raises(GraphError):
            CSRGraph(2, np.array([0, 1, 1]), np.array([5]))

    def test_vertex_range_checked(self):
        csr = build_csr(path_graph(3))
        with pytest.raises(VertexError):
            csr.neighbors(3)
        with pytest.raises(VertexError):
            csr.degree(-1)


class TestDerived:
    def test_degrees(self):
        csr = build_csr(path_graph(4))
        assert csr.degrees().tolist() == [1, 2, 2, 1]

    def test_memory_bytes(self):
        csr = build_csr(path_graph(4))
        assert csr.memory_bytes() == (5 + 6) * 8

    def test_to_edgelist_roundtrip(self):
        g = EdgeList(4, np.array([0, 2]), np.array([1, 3]), ts=np.array([4, 5]),
                     directed=True)
        back = build_csr(g).to_edgelist()
        assert sorted(zip(back.src, back.dst, back.ts)) == [(0, 1, 4), (2, 3, 5)]


class TestFromRepresentation:
    def test_snapshot_matches_structure(self):
        rep = DynArrAdjacency(4)
        rep.insert(0, 1, 5)
        rep.insert(0, 2, 6)
        rep.insert(3, 0, 7)
        csr = rep.to_csr()
        assert csr.n_arcs == 3
        assert sorted(csr.neighbors(0).tolist()) == [1, 2]
        _, ts = csr.neighbors_with_ts(3)
        assert ts.tolist() == [7]

    def test_tombstones_excluded(self):
        rep = DynArrAdjacency(3)
        rep.insert(0, 1)
        rep.insert(0, 2)
        rep.delete(0, 1)
        csr = rep.to_csr()
        assert csr.neighbors(0).tolist() == [2]
