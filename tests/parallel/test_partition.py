"""Deterministic partitioning: coverage and balance."""

import numpy as np
import pytest

from repro.errors import ParallelError
from repro.parallel.partition import range_chunks, weighted_chunks


def assert_covers(chunks, total):
    """Chunks are contiguous, ordered, non-empty, and cover [0, total)."""
    assert all(lo < hi for lo, hi in chunks)
    flat = [lo for lo, _ in chunks] + [chunks[-1][1]] if chunks else []
    if total == 0:
        assert chunks == []
        return
    assert chunks[0][0] == 0
    assert chunks[-1][1] == total
    for (_, hi), (lo2, _) in zip(chunks, chunks[1:]):
        assert hi == lo2
    assert flat == sorted(flat)


class TestRangeChunks:
    @pytest.mark.parametrize("total", [0, 1, 2, 7, 16, 1000])
    @pytest.mark.parametrize("parts", [1, 2, 3, 8])
    def test_coverage(self, total, parts):
        chunks = range_chunks(total, parts)
        assert_covers(chunks, total)
        assert len(chunks) <= parts

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in range_chunks(1001, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert range_chunks(97, 5) == range_chunks(97, 5)

    def test_errors(self):
        with pytest.raises(ParallelError):
            range_chunks(10, 0)
        with pytest.raises(ParallelError):
            range_chunks(-1, 2)


class TestWeightedChunks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("parts", [1, 2, 4, 7])
    def test_coverage(self, seed, parts):
        rng = np.random.default_rng(seed)
        w = rng.integers(0, 50, size=64)
        chunks = weighted_chunks(w, parts)
        assert_covers(chunks, 64)

    def test_hot_item_does_not_serialise_partners(self):
        # One vertex with 10k weight among 1-weight partners: the hot item's
        # chunk should not also absorb most of the light items.
        w = np.ones(100, dtype=np.int64)
        w[0] = 10_000
        chunks = weighted_chunks(w, 4)
        hot = next((lo, hi) for lo, hi in chunks if lo == 0)
        assert hot[1] - hot[0] <= 2  # the hot vertex rides (nearly) alone

    def test_zero_total_falls_back_to_ranges(self):
        assert weighted_chunks(np.zeros(10, dtype=np.int64), 3) == range_chunks(10, 3)

    def test_empty(self):
        assert weighted_chunks(np.empty(0, dtype=np.int64), 3) == []

    def test_deterministic(self):
        w = np.arange(50) % 7
        assert weighted_chunks(w, 4) == weighted_chunks(w, 4)

    def test_negative_weight_rejected(self):
        with pytest.raises(ParallelError):
            weighted_chunks(np.array([1, -1]), 2)
