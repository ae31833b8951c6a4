"""Tests for batched semi-sorted updates."""

import numpy as np
import pytest

from repro.adjacency.batch import BatchedAdjacency, semisort_phase
from repro.adjacency.dynarr import DynArrAdjacency
from repro.errors import GraphError


class TestSemisortPhase:
    def test_linear_work(self):
        a = semisort_phase(1000, 100)
        b = semisort_phase(2000, 100)
        assert b.alu_ops == pytest.approx(2 * a.alu_ops)
        assert b.rand_accesses == pytest.approx(2 * a.rand_accesses)

    def test_passes_grow_with_key_bits(self):
        small = semisort_phase(1000, 1 << 8)
        large = semisort_phase(1000, 1 << 24)
        assert large.alu_ops > small.alu_ops

    def test_has_barriers(self):
        assert semisort_phase(10, 10).barriers >= 2

    def test_invalid(self):
        with pytest.raises(GraphError):
            semisort_phase(-1, 10)
        with pytest.raises(GraphError):
            semisort_phase(10, 0)


class TestBatchedAdjacency:
    def test_batched_matches_inorder_application(self):
        rng = np.random.default_rng(1)
        k = 400
        src = rng.integers(0, 10, k)
        dst = rng.integers(0, 10, k)
        op = np.where(rng.random(k) < 0.8, 1, -1).astype(np.int8)
        ts = rng.integers(0, 50, k)

        batched = BatchedAdjacency(10)
        plain = DynArrAdjacency(10)
        m_b = batched.apply_arcs(op, src, dst, ts)
        m_p = plain.apply_arcs(op, src, dst, ts)
        assert m_b == m_p
        for u in range(10):
            assert sorted(batched.neighbors(u).tolist()) == sorted(
                plain.neighbors(u).tolist()
            )

    def test_single_op_interface(self):
        b = BatchedAdjacency(4)
        b.insert(0, 1, 5)
        assert b.degree(0) == 1
        assert b.has_arc(0, 1)
        assert b.delete(0, 1)
        assert b.n_arcs == 0

    def test_counts_batches(self):
        b = BatchedAdjacency(4)
        op = np.ones(3, dtype=np.int8)
        b.apply_arcs(op, np.array([0, 1, 0]), np.array([1, 2, 2]))
        b.apply_arcs(op[:1], np.array([2]), np.array([3]))
        b.apply_arcs([], [], [])
        assert b.batches == 2
        assert b.batched_updates == 4
        assert b.stats.inserts == 4

    def test_phase_includes_sort_and_drops_hot_serialisation(self):
        from repro.adjacency.base import HotStats

        b = BatchedAdjacency(8)
        op = np.ones(100, dtype=np.int8)
        rng = np.random.default_rng(2)
        b.apply_arcs(op, rng.integers(0, 8, 100), rng.integers(0, 8, 100))
        ph = b.phase("x", HotStats(100, 60, 0.6))
        assert ph.barriers >= 2  # the sort passes
        assert ph.atomic_max_addr == 0.0  # per-vertex ownership in a batch
        assert ph.max_unit_frac == pytest.approx(0.6)  # imbalance remains

    def test_reset_stats(self):
        b = BatchedAdjacency(4)
        b.apply_arcs(np.ones(2, dtype=np.int8), np.array([0, 1]), np.array([1, 2]))
        b.reset_stats()
        assert b.batched_updates == 0 and b.batches == 0
        assert b.stats.inserts == 0
