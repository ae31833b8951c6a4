"""Tests for communication-free sliced generation and streaming chunks.

The heart is the slice-protocol invariant: concatenating the slices (or
streamed chunks) of *any* partition is bit-identical to the serial
``rmat_edges`` stream — property-tested here over arbitrary slice counts,
chunk sizes and the uneven-remainder split, and hash-gated again in CI by
``tools/check_generation.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DynamicGraph
from repro.errors import GraphError
from repro.generators.parallel import (
    iter_edge_chunks,
    iter_update_chunks,
    rmat_edges_range,
    rmat_edges_slice,
    slice_bounds,
    uniform_timestamps_range,
)
from repro.generators.rmat import PAPER_RMAT, RMATParams, rmat_edges

NOISY = RMATParams(0.45, 0.22, 0.22, 0.11, noise=0.05)


# --------------------------------------------------------------------- #
# slice protocol
# --------------------------------------------------------------------- #


class TestSliceBounds:
    @given(
        m=st.integers(min_value=0, max_value=500),
        n_slices=st.integers(min_value=1, max_value=17),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_exactly_and_balanced(self, m, n_slices):
        bounds = [slice_bounds(m, i, n_slices) for i in range(n_slices)]
        # Contiguous cover of [0, m) in index order.
        assert bounds[0][0] == 0 and bounds[-1][1] == m
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        # Balanced: sizes differ by at most one, bigger slices first.
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(GraphError):
            slice_bounds(10, 0, 0)
        with pytest.raises(GraphError):
            slice_bounds(10, 3, 3)
        with pytest.raises(GraphError):
            slice_bounds(-1, 0, 1)


class TestSliceProtocol:
    @given(
        scale=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32),
        n_slices=st.integers(min_value=1, max_value=9),
        noisy=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_concatenated_slices_bit_identical_to_serial(
        self, scale, m, seed, n_slices, noisy
    ):
        params = NOISY if noisy else PAPER_RMAT
        ref_src, ref_dst = rmat_edges(scale, m, params, seed)
        parts = [
            rmat_edges_slice(params, scale, m, seed, i, n_slices)
            for i in range(n_slices)
        ]
        np.testing.assert_array_equal(
            ref_src, np.concatenate([p[0] for p in parts])
        )
        np.testing.assert_array_equal(
            ref_dst, np.concatenate([p[1] for p in parts])
        )

    @given(
        lo=st.integers(min_value=0, max_value=120),
        span=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_range_matches_serial_window(self, lo, span):
        m, scale, seed = 120, 6, 7
        lo = min(lo, m)
        hi = min(lo + span, m)
        ref_src, ref_dst = rmat_edges(scale, m, PAPER_RMAT, seed)
        src, dst = rmat_edges_range(PAPER_RMAT, scale, m, seed, lo, hi)
        np.testing.assert_array_equal(ref_src[lo:hi], src)
        np.testing.assert_array_equal(ref_dst[lo:hi], dst)

    def test_generator_seed_rejected(self):
        with pytest.raises(GraphError, match="integer seed"):
            rmat_edges_slice(PAPER_RMAT, 4, 10, np.random.default_rng(1), 0, 2)

    def test_bad_range_rejected(self):
        with pytest.raises(GraphError, match="invalid edge range"):
            rmat_edges_range(PAPER_RMAT, 4, 10, 1, 7, 3)


class TestTimestampsRange:
    @given(
        n_slices=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_slicing_invariant(self, n_slices, seed):
        m, ts_lo, ts_hi = 150, 5, 47
        full = uniform_timestamps_range(m, ts_lo, ts_hi, seed, 0, m)
        assert full.min() >= ts_lo and full.max() <= ts_hi
        parts = [
            uniform_timestamps_range(m, ts_lo, ts_hi, seed, *slice_bounds(m, i, n_slices))
            for i in range(n_slices)
        ]
        np.testing.assert_array_equal(full, np.concatenate(parts))

    def test_validation(self):
        with pytest.raises(GraphError):
            uniform_timestamps_range(10, -1, 5, 1, 0, 10)
        with pytest.raises(GraphError):
            uniform_timestamps_range(10, 9, 5, 1, 0, 10)


# --------------------------------------------------------------------- #
# streaming chunks
# --------------------------------------------------------------------- #


class TestEdgeChunks:
    @given(
        scale=st.integers(min_value=1, max_value=7),
        edge_factor=st.integers(min_value=0, max_value=6),
        chunk_edges=st.integers(min_value=1, max_value=700),
        n_slices=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunks_bit_identical_for_any_chunking(
        self, scale, edge_factor, chunk_edges, n_slices, seed
    ):
        m = edge_factor * (1 << scale)
        ref_src, ref_dst = rmat_edges(scale, m, PAPER_RMAT, seed)
        ref_ts = uniform_timestamps_range(m, 3, 99, seed, 0, m)
        srcs, dsts, tss = [], [], []
        for slice_idx in range(n_slices):
            for chunk in iter_edge_chunks(
                scale,
                m,
                seed=seed,
                chunk_edges=chunk_edges,
                ts_range=(3, 99),
                slice_idx=slice_idx,
                n_slices=n_slices,
            ):
                assert chunk.m <= chunk_edges
                assert chunk.meta["chunk_hi"] - chunk.meta["chunk_lo"] == chunk.m
                srcs.append(chunk.src)
                dsts.append(chunk.dst)
                tss.append(chunk.timestamps())
        def cat(parts):
            return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

        np.testing.assert_array_equal(ref_src, cat(srcs))
        np.testing.assert_array_equal(ref_dst, cat(dsts))
        np.testing.assert_array_equal(ref_ts, cat(tss))

    def test_update_chunks_are_insertions_in_order(self):
        chunks = list(iter_update_chunks(5, 96, seed=3, chunk_edges=37, ts_range=(0, 9)))
        assert [c.meta["chunk_lo"] for c in chunks] == [0, 37, 74]
        src, dst = rmat_edges(5, 96, PAPER_RMAT, 3)
        np.testing.assert_array_equal(src, np.concatenate([c.src for c in chunks]))
        np.testing.assert_array_equal(dst, np.concatenate([c.dst for c in chunks]))
        for c in chunks:
            assert c.n_deletes == 0 and c.n_inserts == len(c)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(GraphError, match="chunk size"):
            next(iter_edge_chunks(4, 10, chunk_edges=0))

    def test_from_edge_chunks_builds_the_same_structure(self):
        scale, m = 7, 512
        g_ref = DynamicGraph.from_edges(1 << scale, *rmat_edges(scale, m, seed=5))
        g_str = DynamicGraph.from_edge_chunks(
            1 << scale, iter_edge_chunks(scale, m, seed=5, chunk_edges=100)
        )
        assert g_str.n_edges == g_ref.n_edges
        s_ref, s_str = g_ref.snapshot(), g_str.snapshot()
        np.testing.assert_array_equal(s_ref.offsets, s_str.offsets)
        # Neighbour order differs (per-chunk symmetrisation); multisets match.
        for v in range(s_ref.n):
            lo, hi = s_ref.offsets[v], s_ref.offsets[v + 1]
            np.testing.assert_array_equal(
                np.sort(s_ref.targets[lo:hi]), np.sort(s_str.targets[lo:hi])
            )

    def test_from_edge_chunks_rejects_oversized_chunks(self):
        with pytest.raises(GraphError, match="exceeds graph"):
            DynamicGraph.from_edge_chunks(4, iter_edge_chunks(5, 10, seed=1))
