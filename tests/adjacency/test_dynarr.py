"""Tests for the Dyn-arr representation."""

import copy
import pickle

import numpy as np
import pytest

from repro.adjacency.dynarr import DynArrAdjacency
from repro.errors import GraphError, VertexError


class TestInsert:
    def test_basic(self):
        r = DynArrAdjacency(4)
        r.insert(0, 1, 10)
        r.insert(0, 2, 11)
        assert r.degree(0) == 2
        assert r.neighbors(0).tolist() == [1, 2]
        nbr, ts = r.neighbors_with_ts(0)
        assert ts.tolist() == [10, 11]

    def test_duplicates_allowed(self):
        r = DynArrAdjacency(3)
        r.insert(0, 1)
        r.insert(0, 1)
        assert r.degree(0) == 2

    def test_self_loop_arc(self):
        r = DynArrAdjacency(3)
        r.insert(1, 1)
        assert r.neighbors(1).tolist() == [1]

    def test_vertex_range_checked(self):
        r = DynArrAdjacency(3)
        with pytest.raises(VertexError):
            r.insert(3, 0)
        with pytest.raises(VertexError):
            r.insert(0, -1)

    def test_resize_doubles(self):
        r = DynArrAdjacency(2, initial_capacity=2)
        for v in range(10):
            r.insert(0, v % 2)
        assert r.stats.resize_events > 0
        assert int(r.cap[0]) >= 10
        assert r.degree(0) == 10

    def test_resize_preserves_content(self):
        r = DynArrAdjacency(2, initial_capacity=1)
        expect = []
        for i in range(20):
            r.insert(0, i % 2, ts=i)
            expect.append(i % 2)
        assert r.neighbors(0).tolist() == expect
        _, ts = r.neighbors_with_ts(0)
        assert ts.tolist() == list(range(20))

    def test_counters(self):
        r = DynArrAdjacency(3)
        r.insert(0, 1)
        r.insert(0, 2)
        assert r.stats.inserts == 2
        assert r.n_arcs == 2

    def test_km_over_n_rule(self):
        r = DynArrAdjacency(10, expected_m=100)
        assert int(r._cap0[0]) == 20

    def test_growth_factor_validated(self):
        with pytest.raises(GraphError):
            DynArrAdjacency(3, growth_factor=1)


class TestDelete:
    def test_tombstone(self):
        r = DynArrAdjacency(3)
        r.insert(0, 1)
        r.insert(0, 2)
        assert r.delete(0, 1)
        assert r.degree(0) == 1
        assert r.neighbors(0).tolist() == [2]
        # Slot is tombstoned, not compacted: occupancy stays at 2.
        assert int(r.cnt[0]) == 2

    def test_missing_edge(self):
        r = DynArrAdjacency(3)
        r.insert(0, 1)
        assert not r.delete(0, 2)
        assert r.stats.delete_misses == 1
        assert r.degree(0) == 1

    def test_delete_from_empty_vertex(self):
        r = DynArrAdjacency(3)
        assert not r.delete(1, 0)

    def test_deletes_one_occurrence(self):
        r = DynArrAdjacency(3)
        r.insert(0, 1)
        r.insert(0, 1)
        assert r.delete(0, 1)
        assert r.degree(0) == 1

    def test_probe_words_measured(self):
        r = DynArrAdjacency(3)
        for v in [1, 2, 1, 2, 2]:
            r.insert(0, v)
        r.delete(0, 2)  # first match at position 1 -> 2 words probed
        assert r.stats.probe_words == 2
        r.stats.reset()
        r.delete(0, 0)  # miss -> scans all 5 slots
        assert r.stats.probe_words == 5

    def test_reinsert_after_delete(self):
        r = DynArrAdjacency(3)
        r.insert(0, 1)
        r.delete(0, 1)
        r.insert(0, 1)
        assert r.degree(0) == 1
        assert r.has_arc(0, 1)


class TestDynArrNR:
    def test_preallocated_no_resizes(self):
        deg = np.array([3, 2, 0])
        r = DynArrAdjacency.preallocated(3, deg)
        assert r.kind == "dynarr-nr"
        for _ in range(3):
            r.insert(0, 1)
        assert r.stats.resize_events == 0

    def test_capacity_exceeded_raises(self):
        r = DynArrAdjacency.preallocated(2, np.array([1, 1]))
        r.insert(0, 1)
        with pytest.raises(GraphError, match="capacity exceeded"):
            r.insert(0, 1)

    def test_bulk_capacity_exceeded_raises(self):
        r = DynArrAdjacency.preallocated(2, np.array([1, 1]))
        with pytest.raises(GraphError, match="capacity exceeded"):
            r.bulk_insert(np.array([0, 0]), np.array([1, 1]))

class TestBulkInsert:
    def _random_arcs(self, n, k, seed):
        rng = np.random.default_rng(seed)
        return (
            rng.integers(0, n, k),
            rng.integers(0, n, k),
            rng.integers(0, 100, k),
        )

    @pytest.mark.parametrize("initial", [1, 2, 16])
    def test_matches_sequential(self, initial):
        src, dst, ts = self._random_arcs(20, 500, 3)
        bulk = DynArrAdjacency(20, initial_capacity=initial)
        seq = DynArrAdjacency(20, initial_capacity=initial)
        bulk.bulk_insert(src, dst, ts)
        for u, v, t in zip(src.tolist(), dst.tolist(), ts.tolist()):
            seq.insert(u, v, t)
        for u in range(20):
            assert bulk.neighbors(u).tolist() == seq.neighbors(u).tolist()
            b_ts = bulk.neighbors_with_ts(u)[1].tolist()
            s_ts = seq.neighbors_with_ts(u)[1].tolist()
            assert b_ts == s_ts

    def test_counter_parity_with_sequential(self):
        from dataclasses import asdict

        src, dst, ts = self._random_arcs(16, 800, 5)
        bulk = DynArrAdjacency(16, initial_capacity=2)
        seq = DynArrAdjacency(16, initial_capacity=2)
        bulk.bulk_insert(src, dst, ts)
        for u, v, t in zip(src.tolist(), dst.tolist(), ts.tolist()):
            seq.insert(u, v, t)
        assert asdict(bulk.stats) == asdict(seq.stats)

    def test_incremental_bulk_after_inserts(self):
        r = DynArrAdjacency(4, initial_capacity=2)
        r.insert(0, 3)
        r.bulk_insert(np.array([0, 0, 1]), np.array([1, 2, 0]))
        assert r.neighbors(0).tolist() == [3, 1, 2]
        assert r.n_arcs == 4

    def test_empty_bulk(self):
        r = DynArrAdjacency(4)
        r.bulk_insert(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert r.n_arcs == 0

    def test_apply_arcs_all_insert_fast_path(self):
        r = DynArrAdjacency(4)
        misses = r.apply_arcs(
            np.array([1, 1], dtype=np.int8), np.array([0, 1]), np.array([1, 2])
        )
        assert misses == 0 and r.n_arcs == 2

    def test_apply_arcs_mixed_falls_back(self):
        r = DynArrAdjacency(4)
        misses = r.apply_arcs(
            np.array([1, -1, -1], dtype=np.int8),
            np.array([0, 0, 0]),
            np.array([1, 1, 2]),
        )
        assert misses == 1
        assert r.degree(0) == 0


class TestMemory:
    def test_memory_bytes_grows(self):
        r = DynArrAdjacency(100, initial_capacity=2)
        before = r.memory_bytes()
        for i in range(1000):
            r.insert(i % 100, (i + 1) % 100)
        assert r.memory_bytes() >= before

    def test_pool_abandonment_tracked(self):
        r = DynArrAdjacency(2, initial_capacity=1)
        for _ in range(8):
            r.insert(0, 1)
        assert r.pool.abandoned > 0


class TestCopies:
    """A deep copy or an unpickled dyn-arr keeps its arcs after its pool
    grows: the columns are read through the pool, never held as views."""

    @staticmethod
    def built() -> DynArrAdjacency:
        r = DynArrAdjacency(8)
        r.apply_arcs(np.ones(12, dtype=np.int8), np.arange(12) % 8, (np.arange(12) * 3) % 8,
                     np.arange(12))
        return r

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    @pytest.mark.parametrize("path", ["per-op", "batches"])
    def test_copy_keeps_arcs_after_pool_growth(self, how, path):
        original = self.built()
        twin = copy.deepcopy(original) if how == "deepcopy" else pickle.loads(pickle.dumps(original))
        capacity = twin.pool.capacity
        targets = np.arange(200) % 8
        for rep in (original, twin):
            if path == "per-op":
                for i, v in enumerate(targets.tolist()):
                    rep.insert(1, v, 100 + i)
            else:
                for chunk in np.array_split(np.arange(200), 40):
                    rep.apply_arcs(np.ones(chunk.size, dtype=np.int8), np.full(chunk.size, 1),
                                   targets[chunk], 100 + chunk)
        assert twin.pool.capacity > capacity
        want, got = original.to_csr(), twin.to_csr()
        np.testing.assert_array_equal(got.offsets, want.offsets)
        np.testing.assert_array_equal(got.targets, want.targets)
        np.testing.assert_array_equal(got.ts, want.ts)
        assert twin.neighbors(1).tolist() == original.neighbors(1).tolist()
