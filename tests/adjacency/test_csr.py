"""Tests for CSR snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.csr import CSRGraph, build_csr, csr_from_arrays
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.registry import REPRESENTATIONS
from repro.api import DynamicGraph
from repro.edgelist import EdgeList
from repro.errors import GraphError, VertexError
from repro.generators.parallel import iter_edge_chunks
from repro.generators.reference import path_graph
from repro.generators.streams import UpdateStream


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


def rep_kwargs(kind, n):
    if kind == "dynarr-nr":
        return {"degrees": np.full(n, 512)}
    if kind == "hybrid":
        return {"degree_thresh": 4, "seed": 1}
    if kind == "treap":
        return {"seed": 1}
    return {}


def assert_equals_transpose(csr):
    """The arcs as a multiset of ``(u, v, ts)`` equal their reverses."""
    src = np.repeat(np.arange(csr.n), csr.degrees()).tolist()
    dst, ts = csr.targets.tolist(), csr.ts.tolist()
    assert sorted(zip(src, dst, ts)) == sorted(zip(dst, src, ts))


updates = st.lists(
    st.tuples(st.sampled_from([1, 1, -1]), st.integers(0, 9), st.integers(0, 9),
              st.integers(0, 2)),
    max_size=90,
)


class TestSymmetricStamp:
    """``CSRGraph.symmetric``: stamped only where both arcs are stored."""

    def test_build_csr_stamps_what_it_symmetrises(self):
        directed = EdgeList(3, np.array([0, 1]), np.array([1, 2]), directed=True)
        assert build_csr(path_graph(4)).symmetric is True
        assert build_csr(directed, symmetrize=True).symmetric is True
        assert build_csr(directed).symmetric is False
        assert build_csr(path_graph(4), symmetrize=False).symmetric is False

    def test_carried_stamp_is_dropped(self):
        # to_edgelist copies meta: rebuilding one-sided must not keep the stamp.
        back = build_csr(path_graph(4)).to_edgelist()
        assert back.meta.get("symmetric") is True
        assert build_csr(back, symmetrize=False).symmetric is False

    def test_unstamped_constructors(self):
        src, dst = np.array([0, 1]), np.array([1, 0])
        assert csr_from_arrays(2, src, dst).symmetric is False
        assert CSRGraph(2, np.array([0, 1, 2]), np.array([1, 0])).symmetric is False
        assert DynArrAdjacency(3).to_csr().symmetric is False

    def test_directed_dynamic_graph(self):
        g = DynamicGraph.from_edges(4, [0, 1], [1, 2], directed=True, representation="dynarr")
        assert g.snapshot().symmetric is False

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIONS))
    @settings(max_examples=15, deadline=None)
    @given(ops=updates, cut=st.integers(0, 90), loops=st.lists(st.integers(0, 9), max_size=4))
    def test_undirected_streams_stay_symmetric(self, kind, ops, cut, loops):
        # Inserts, deletes (hits and misses), duplicates with several stamps
        # and self-loops, in two batches: one may take the per-op loop, the
        # other the bulk kernels.  Single-edge calls add more self-loops.
        g = DynamicGraph(10, kind, **rep_kwargs(kind, 10))
        for v in loops:
            g.insert_edge(v, v, 1)
        for part in (ops[:cut], ops[cut:]):
            op, u, v, ts = (np.array([row[i] for row in part], dtype=np.int64) for i in range(4))
            g.apply(UpdateStream(10, op.astype(np.int8), u, v, ts))
            csr = g.snapshot()
            assert csr.symmetric is True
            assert_equals_transpose(csr)
        if loops:
            g.delete_edge(loops[0], loops[0])
            assert_equals_transpose(g.snapshot())

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIONS))
    def test_bulk_constructors_stay_symmetric(self, kind):
        edges = EdgeList(12, np.array([0, 0, 1, 3, 3, 5, 7]), np.array([1, 1, 2, 3, 4, 0, 7]),
                         ts=np.array([4, 9, 1, 2, 2, 5, 6]))
        for g in (
            DynamicGraph.from_edgelist(edges, representation=kind, **rep_kwargs(kind, 12)),
            DynamicGraph.from_edge_chunks(
                1 << 6, iter_edge_chunks(6, 300, seed=5, chunk_edges=64, ts_range=(1, 9)),
                representation=kind, **rep_kwargs(kind, 1 << 6),
            ),
        ):
            csr = g.snapshot()
            assert csr.symmetric is True
            assert_equals_transpose(csr)
