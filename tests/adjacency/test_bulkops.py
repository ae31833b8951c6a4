"""Unit tests for the shared vectorised bulk-update kernels.

Covers the grouping primitives (:func:`segment_ranks`, :func:`group_runs`,
:func:`gather_index`), the pool's :meth:`alloc_many`, the dispatch gate
:func:`enabled`, and the sentinel/constant invariants the kernels rely on.
The scalar-vs-vectorised *equivalence* checks live in test_equivalence.py.
"""

import numpy as np
import pytest

from repro import kernels
from repro.adjacency import bulkops
from repro.adjacency.dynarr import DynArrAdjacency, TOMBSTONE
from repro.adjacency.mempool import IntPool
from repro.errors import GraphError


class TestPrimitives:
    def test_segment_ranks_basic(self):
        counts = np.array([3, 1, 0, 2], dtype=np.int64)
        assert bulkops.segment_ranks(counts).tolist() == [0, 1, 2, 0, 0, 1]

    def test_segment_ranks_empty(self):
        assert bulkops.segment_ranks(np.array([], dtype=np.int64)).size == 0

    def test_group_runs(self):
        keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.int64)
        vals, starts, counts = bulkops.group_runs(keys)
        assert vals.tolist() == [2, 5, 7]
        assert starts.tolist() == [0, 2, 3]
        assert counts.tolist() == [2, 1, 3]

    def test_group_runs_single_and_empty(self):
        vals, starts, counts = bulkops.group_runs(np.array([9], dtype=np.int64))
        assert (vals.tolist(), starts.tolist(), counts.tolist()) == ([9], [0], [1])
        vals, starts, counts = bulkops.group_runs(np.array([], dtype=np.int64))
        assert vals.size == starts.size == counts.size == 0

    def test_gather_index(self):
        offsets = np.array([10, 50], dtype=np.int64)
        counts = np.array([2, 3], dtype=np.int64)
        assert bulkops.gather_index(offsets, counts).tolist() == [10, 11, 50, 51, 52]

    def test_gather_index_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        offsets = rng.integers(0, 1000, size=20)
        counts = rng.integers(0, 8, size=20)
        expected = [o + j for o, c in zip(offsets, counts) for j in range(int(c))]
        assert bulkops.gather_index(offsets, counts).tolist() == expected


class TestAllocMany:
    def test_matches_sequential_allocs(self):
        sizes = np.array([4, 0, 7, 1], dtype=np.int64)
        a, b = IntPool(4), IntPool(4)
        offs = a.alloc_many(sizes)
        seq = [b.alloc(int(s)) for s in sizes]
        assert offs.tolist() == seq
        assert a.used == b.used

    def test_blocks_disjoint(self):
        pool = IntPool(2)
        sizes = np.array([3, 5, 2, 8], dtype=np.int64)
        offs = pool.alloc_many(sizes)
        spans = sorted(zip(offs.tolist(), sizes.tolist()))
        for (o1, s1), (o2, _s2) in zip(spans, spans[1:]):
            assert o1 + s1 <= o2

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            IntPool(4).alloc_many(np.array([2, -1], dtype=np.int64))

    def test_empty(self):
        pool = IntPool(4)
        assert pool.alloc_many(np.array([], dtype=np.int64)).size == 0
        assert pool.used == 0


class TestDispatchGate:
    def test_tombstone_matches_dynarr(self):
        # bulkops re-declares the sentinel to avoid an import cycle; the two
        # must never drift apart.
        assert bulkops.TOMBSTONE == TOMBSTONE

    def test_explicit_tier_wins(self, monkeypatch):
        # A tier somebody asked for is honoured at every batch size, from
        # the instance attribute and from the environment alike.
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        rep = DynArrAdjacency(4)
        rep.kernel_tier = "vectorised"
        assert bulkops.enabled(rep, 1)
        rep.kernel_tier = "scalar"
        assert not bulkops.enabled(rep, 10**6)
        monkeypatch.setenv(kernels.ENV_VAR, "vectorised")
        assert bulkops.enabled(rep, 1)
        assert bulkops.enabled(DynArrAdjacency(4), 1)

    def test_default_threshold(self, monkeypatch):
        # The cut-off applies only to the auto-probed tier.
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        rep = DynArrAdjacency(4)
        assert rep.kernel_tier is None
        assert not bulkops.enabled(rep, bulkops.MIN_BULK_SIZE - 1)
        assert bulkops.enabled(rep, bulkops.MIN_BULK_SIZE)
        with kernels.force_available():  # probe says "compiled": same cut-off
            assert not bulkops.enabled(rep, bulkops.MIN_BULK_SIZE - 1)
            assert bulkops.enabled(rep, bulkops.MIN_BULK_SIZE)

    def test_empty_batch_never_vectorised(self):
        rep = DynArrAdjacency(4)
        rep.kernel_tier = "vectorised"
        assert not bulkops.enabled(rep, 0)

    def test_huge_vertex_count_falls_back(self):
        rep = DynArrAdjacency.__new__(DynArrAdjacency)
        rep.n = bulkops.MAX_KEY_N + 1
        rep.kernel_tier = "vectorised"
        assert not bulkops.enabled(rep, 100)


class TestMutationCounter:
    def test_counter_moves_on_every_structural_change(self):
        rep = DynArrAdjacency(4)
        k0 = rep.mutation_count
        rep.insert(0, 1)
        k1 = rep.mutation_count
        assert k1 > k0
        rep.delete(0, 1)
        assert rep.mutation_count > k1

    def test_counter_moves_on_balanced_mix(self):
        # The stale-snapshot bug: arc count returns to its old value, the
        # mutation counter must not.
        rep = DynArrAdjacency(4)
        rep.insert(0, 1)
        before = rep.mutation_count
        n_arcs = rep.n_arcs
        rep.apply_arcs(
            np.array([1, -1], dtype=np.int8),
            np.array([2, 0], dtype=np.int64),
            np.array([3, 1], dtype=np.int64),
            np.zeros(2, dtype=np.int64),
        )
        assert rep.n_arcs == n_arcs
        assert rep.mutation_count > before

    def test_miss_only_stream_may_cache(self):
        rep = DynArrAdjacency(4)
        rep.insert(0, 1)
        rep.delete(3, 2)  # miss: no structural change required
        assert rep.degree(3) == 0
