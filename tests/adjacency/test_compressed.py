"""Tests for the compressed adjacency snapshot and vertex reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.compressed import CompressedCSR, _decode_varint, _encode_varint
from repro.adjacency.csr import build_csr
from repro.adjacency.reorder import apply_order, bfs_order, degree_order, locality_gap
from repro.edgelist import EdgeList
from repro.errors import GraphError, VertexError
from repro.generators.rmat import rmat_graph
from repro.generators.reference import path_graph, star_graph


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 1 << 20, (1 << 40) + 7])
    def test_roundtrip(self, value):
        buf = bytearray()
        _encode_varint(value, buf)
        decoded, pos = _decode_varint(np.frombuffer(bytes(buf), np.uint8), 0)
        assert decoded == value
        assert pos == len(buf)

    def test_small_values_one_byte(self):
        buf = bytearray()
        _encode_varint(100, buf)
        assert len(buf) == 1

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            _encode_varint(-1, bytearray())

    def test_stream_of_values(self):
        buf = bytearray()
        values = [3, 200, 0, 123456]
        for v in values:
            _encode_varint(v, buf)
        data = np.frombuffer(bytes(buf), np.uint8)
        pos = 0
        out = []
        while pos < len(data):
            v, pos = _decode_varint(data, pos)
            out.append(v)
        assert out == values


class TestCompressedCSR:
    def test_roundtrip_er(self, er_csr):
        comp = CompressedCSR.from_csr(er_csr)
        for u in range(er_csr.n):
            assert comp.neighbors(u).tolist() == sorted(
                set(er_csr.neighbors(u).tolist())
            )

    def test_roundtrip_rmat(self):
        g = rmat_graph(9, 8, seed=71)
        csr = build_csr(g)
        comp = CompressedCSR.from_csr(csr)
        back = comp.to_csr()
        for u in range(csr.n):
            assert back.neighbors(u).tolist() == sorted(set(csr.neighbors(u).tolist()))

    def test_duplicates_collapsed(self):
        g = EdgeList(3, np.array([0, 0]), np.array([1, 1]), directed=True)
        comp = CompressedCSR.from_csr(build_csr(g))
        assert comp.neighbors(0).tolist() == [1]
        assert comp.degree(0) == 1

    def test_interval_encoding_wins_on_runs(self):
        # a complete graph's rows are one long run: ~2 bytes per row
        from repro.generators.reference import complete_graph

        csr = build_csr(complete_graph(64))
        comp = CompressedCSR.from_csr(csr)
        assert comp.bits_per_arc() < 1.0

    def test_compression_beats_csr_on_rmat(self):
        g = rmat_graph(10, 10, seed=72)
        csr = build_csr(g)
        comp = CompressedCSR.from_csr(csr)
        assert comp.bits_per_arc() < 32.0  # far below CSR's 64 bits
        assert comp.memory_bytes() < csr.memory_bytes()

    def test_has_arc(self):
        csr = build_csr(path_graph(4))
        comp = CompressedCSR.from_csr(csr)
        assert comp.has_arc(1, 2) and comp.has_arc(1, 0)
        assert not comp.has_arc(0, 3)

    def test_empty_vertices(self):
        g = EdgeList(5, np.array([0]), np.array([1]))
        comp = CompressedCSR.from_csr(build_csr(g))
        assert comp.neighbors(3).size == 0
        assert comp.degree(3) == 0

    def test_vertex_validation(self, er_csr):
        comp = CompressedCSR.from_csr(er_csr)
        with pytest.raises(VertexError):
            comp.neighbors(er_csr.n)

    def test_scan_phase(self, er_csr):
        comp = CompressedCSR.from_csr(er_csr)
        ph = comp.scan_phase()
        assert ph.seq_bytes == float(comp.data.nbytes)
        assert ph.alu_ops > 0
        assert ph.footprint_bytes < float(er_csr.memory_bytes())


class TestReorder:
    def test_bfs_order_is_permutation(self, er_csr):
        perm = bfs_order(er_csr)
        assert np.array_equal(np.sort(perm), np.arange(er_csr.n))

    def test_bfs_order_root_first(self, er_csr):
        root = int(np.argmax(er_csr.degrees()))
        perm = bfs_order(er_csr)
        assert perm[root] == 0

    def test_degree_order_hubs_first(self):
        csr = build_csr(star_graph(10))
        perm = degree_order(csr)
        assert perm[0] == 0  # the hub gets id 0

    def test_apply_order_preserves_structure(self):
        g = path_graph(5)
        perm = np.array([4, 3, 2, 1, 0])
        out = apply_order(g, perm)
        # still a path, same degree sequence
        assert sorted(out.degrees().tolist()) == sorted(g.degrees().tolist())

    def test_apply_order_validates(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            apply_order(g, np.array([0, 0, 1]))
        with pytest.raises(GraphError):
            apply_order(g, np.array([0, 1]))

    def test_bfs_reorder_improves_locality_and_compression(self):
        """The paper's hypothesis: reordering helps compression."""
        rng = np.random.default_rng(5)
        g = rmat_graph(10, 10, seed=73)
        # scramble ids first so the generator's natural clustering is gone
        scramble = rng.permutation(g.n)
        scrambled = apply_order(g, scramble)
        csr_scrambled = build_csr(scrambled)
        perm = bfs_order(csr_scrambled)
        reordered = apply_order(scrambled, perm)

        assert locality_gap(reordered) < locality_gap(scrambled)
        bits_scrambled = CompressedCSR.from_csr(csr_scrambled).bits_per_arc()
        bits_reordered = CompressedCSR.from_csr(build_csr(reordered)).bits_per_arc()
        assert bits_reordered < bits_scrambled

    def test_disconnected_graph_covered(self):
        g = EdgeList(6, np.array([0, 3]), np.array([1, 4]))
        perm = bfs_order(build_csr(g))
        assert np.array_equal(np.sort(perm), np.arange(6))

    def test_locality_gap_empty(self):
        g = EdgeList(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert locality_gap(g) == 0.0


class TestCompressionProperties:
    N = 12

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=N - 1),
                  st.integers(min_value=0, max_value=N - 1)),
        max_size=50,
    ))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_preserves_neighbour_sets(self, pairs):
        if pairs:
            src, dst = (np.array(x, dtype=np.int64) for x in zip(*pairs))
        else:
            src = dst = np.array([], dtype=np.int64)
        csr = build_csr(EdgeList(self.N, src, dst))
        comp = CompressedCSR.from_csr(csr)
        for u in range(self.N):
            assert comp.neighbors(u).tolist() == sorted(set(csr.neighbors(u).tolist()))
            assert comp.degree(u) == len(set(csr.neighbors(u).tolist()))
