"""Tests for the Hybrid-arr-treap representation."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings

from repro.adjacency.hybrid import HybridAdjacency
from repro.api import DynamicGraph
from repro.errors import GraphError
from repro.generators.streams import UpdateStream
from tests.adjacency.test_treap import (
    assert_export_matches_walk,
    build_batches,
    check_export_along,
    drive_pair,
    export_ops,
    fused_batches,
    treap_state,
)


def hybrid_state(h: HybridAdjacency) -> dict:
    """Everything the partitioned apply must leave as the per-op replay does."""
    return {
        "mode": bytes(h.mode),
        "stats": asdict(h.stats),
        "arr_stats": asdict(h.arr.stats),
        "arr_arrays": [a.tolist() for a in h.arr.to_arrays()],
        "treap": treap_state(h.treap),
        "n_arcs": h.n_arcs,
        "model_bytes": h.model_bytes(),
        "arrays": [a.tolist() for a in h.to_arrays()],
    }


def hybrid_pair(n, degree_thresh):
    return tuple(HybridAdjacency(n, degree_thresh=degree_thresh, seed=9) for _ in range(2))


class TestMigration:
    def test_stays_in_array_below_threshold(self):
        h = HybridAdjacency(3, degree_thresh=4, seed=1)
        for v in [0, 1, 2, 0]:
            h.insert(2, v)
        assert h.mode[2] == 0
        assert h.stats.migrations == 0

    def test_migrates_past_threshold(self):
        h = HybridAdjacency(3, degree_thresh=4, seed=1)
        for i in range(5):
            h.insert(0, i % 3, ts=i)
        assert h.mode[0] == 1
        assert h.stats.migrations == 1
        assert h.degree(0) == 5

    def test_content_preserved_across_migration(self):
        h = HybridAdjacency(2, degree_thresh=3, seed=1)
        inserted = [(1, 10), (0, 11), (1, 12), (0, 13), (1, 14)]
        for v, ts in inserted:
            h.insert(0, v, ts)
        nbr, ts = h.neighbors_with_ts(0)
        assert sorted(zip(nbr.tolist(), ts.tolist())) == sorted(inserted)

    def test_migration_counts_occupancy_not_live(self):
        """Tombstoned slots count toward the threshold, as block cost does."""
        h = HybridAdjacency(2, degree_thresh=3, seed=1)
        h.insert(0, 1)
        h.insert(0, 1)
        h.delete(0, 1)
        h.delete(0, 1)
        h.insert(0, 1)
        h.insert(0, 1)  # occupancy 4 > 3 -> migrates despite live degree 2
        assert h.mode[0] == 1
        assert h.degree(0) == 2

    def test_migration_work_reclassified(self):
        h = HybridAdjacency(2, degree_thresh=2, seed=1)
        for i in range(4):
            h.insert(0, i % 2)
        assert h.stats.migration_words == 2
        # stream-visible counters: every op counted exactly once
        combined = h.combined_stats()
        assert combined.inserts == 4

    def test_no_downshift_by_default(self):
        # A vertex on the treap side stays there however far its degree falls.
        h = HybridAdjacency(2, degree_thresh=4, seed=1)
        for i in range(5):
            h.insert(0, i % 2)
        while h.degree(0):
            h.delete(0, int(h.neighbors(0)[0]))
        assert h.mode[0] == 1

    def test_invalid_threshold(self):
        with pytest.raises(GraphError):
            HybridAdjacency(3, degree_thresh=0)


class TestOperations:
    def test_routes_by_mode(self):
        h = HybridAdjacency(4, degree_thresh=2, seed=1)
        h.insert(0, 1)  # array side
        for i in range(4):
            h.insert(1, i % 4)  # treap side after migration
        assert h.has_arc(0, 1)
        assert h.has_arc(1, 0)
        assert not h.has_arc(0, 2)
        assert h.delete(1, 0)
        assert h.delete(0, 1)
        assert h.n_arcs == 3

    def test_n_treap_vertices(self):
        h = HybridAdjacency(4, degree_thresh=2, seed=1)
        for i in range(3):
            h.insert(0, i % 4)
        for i in range(3):
            h.insert(1, i % 4)
        h.insert(2, 0)
        assert h.n_treap_vertices() == 2

    def test_to_arrays_spans_both_sides(self):
        h = HybridAdjacency(4, degree_thresh=2, seed=1)
        h.insert(0, 1, 5)
        for i in range(3):
            h.insert(1, i, ts=i)
        src, dst, ts = h.to_arrays()
        assert len(src) == 4
        assert set(src.tolist()) == {0, 1}

    def test_memory_includes_both(self):
        h = HybridAdjacency(10, seed=1)
        assert h.memory_bytes() >= h.arr.memory_bytes() + h.treap.memory_bytes()

    def test_reset_stats_resets_all(self):
        h = HybridAdjacency(3, degree_thresh=1, seed=1)
        for i in range(4):
            h.insert(0, i % 3)
        h.reset_stats()
        assert h.stats.migrations == 0
        assert h.arr.stats.inserts == 0
        assert h.treap.stats.inserts == 0


class TestBuild:
    """``bulk_insert`` builds the treap of every vertex whose treap is empty
    when the batch starts, a crossing vertex's migrated block included;
    against the per-op twin, with ``drive_pair``'s build counts."""

    @pytest.mark.parametrize("degree_thresh", [1, 4, 32])
    @given(build_batches)
    @settings(max_examples=50, deadline=None)
    def test_matches_per_op_replay(self, degree_thresh, batches):
        drive_pair(*hybrid_pair(6, degree_thresh), batches, hybrid_state)

    @pytest.mark.parametrize("degree_thresh", [1, 4, 32])
    def test_empty_structure_builds_every_crossing_treap(self, degree_thresh):
        """One insert batch into an empty hybrid: every vertex crosses, and
        its treap is built from the batch (every arc on it, no rotation)."""
        rng = np.random.default_rng(degree_thresh)
        batch = [(True, int(u), int(v)) for u, v in rng.integers(0, 16, size=(1200, 2))]
        bulk, twin = hybrid_pair(16, degree_thresh)
        drive_pair(bulk, twin, [batch], hybrid_state)
        assert bulk.stats.migrations == 16 and bulk.stats.rotations == 0
        assert bulk.treap.n_arcs == len(batch)

    @pytest.mark.parametrize("degree_thresh", [1, 4, 32])
    def test_free_listed_nodes_and_partly_filled_treaps(self, degree_thresh):
        """Vertex 0's treap holds keys (fused run), vertex 1's was emptied
        into the free list (built, reusing its nodes), vertex 2 crosses in
        the batch (built with its block), vertex 3 stays on the array side."""
        t = degree_thresh
        fill = [(True, 0, v % 5) for v in range(t + 3)] + [(True, 1, v % 5) for v in range(t + 2)]
        fill += [(True, 2, 4)] + [(False, 1, v % 5) for v in range(t + 2)]
        batch = [(True, u, v % 5) for v in range(t + 1) for u in (0, 1, 2)] + [(True, 3, 1)]
        bulk, twin = hybrid_pair(5, t)
        drive_pair(bulk, twin, [fill], hybrid_state)
        assert bytes(bulk.mode[:3]) == bytes([1, 1, 0]) and bulk.treap.degree(1) == 0
        assert len(bulk.treap._free) == t + 2
        drive_pair(bulk, twin, [batch], hybrid_state)
        assert bytes(bulk.mode) == bytes([1, 1, 1, 0, 0]) and bulk.treap._free == []


class TestPartitionedApply:
    """``apply_arcs`` / ``bulk_insert`` (dyn-arr kernels + the treap's fused
    run, cut at migration points) against per-op ``insert`` / ``delete``."""

    @pytest.mark.parametrize("degree_thresh", [1, 4, 32])
    @given(fused_batches)
    @settings(max_examples=50, deadline=None)
    def test_matches_per_op_replay(self, degree_thresh, batches):
        drive_pair(*hybrid_pair(4, degree_thresh), batches, hybrid_state)

    @pytest.mark.parametrize("degree_thresh", [4, 32, 128])
    def test_long_batches_with_crossings(self, degree_thresh):
        rng = np.random.default_rng(degree_thresh)
        batches = [
            [(bool(i), int(u), int(v)) for i, u, v in zip(
                rng.random(600) < 0.75, rng.integers(0, 6, 600), rng.integers(0, 6, 600))]
            for _ in range(3)
        ]
        bulk, twin = hybrid_pair(6, degree_thresh)
        drive_pair(bulk, twin, batches, hybrid_state)
        assert bulk.stats.migrations == 6  # ~225 inserts per vertex: all cross

    def test_first_arc_of_a_batch_migrates(self):
        fill = [(True, 0, v) for v in (1, 2, 3, 1)]  # occupancy == degree_thresh
        batch = [(True, 0, 2), (False, 0, 1), (True, 1, 0)]
        bulk, twin = hybrid_pair(4, 4)
        drive_pair(bulk, twin, [fill], hybrid_state)
        assert bulk.mode[0] == 0
        drive_pair(bulk, twin, [batch], hybrid_state)
        assert bulk.mode[0] == 1 and bulk.stats.migration_words == 4

    def test_last_arc_of_a_batch_migrates(self):
        fill = [(True, 0, 1), (True, 0, 2)]
        batch = [(True, 0, 3), (False, 0, 3), (True, 1, 2), (True, 0, 1), (False, 0, 0), (True, 0, 2)]
        bulk, twin = hybrid_pair(4, 4)
        drive_pair(bulk, twin, [fill, batch], hybrid_state)
        # The tombstone counts toward occupancy, but only live arcs move.
        assert bulk.mode[0] == 1 and bulk.stats.migration_words == 3
        assert bulk.treap.stats.inserts == 1 and bulk.arr.stats.delete_misses == 1

    def test_two_vertices_cross_in_one_batch(self):
        # Vertex 3 crosses before vertex 1 in arrival order: the cuts must
        # be taken by arrival, not by vertex id, or priorities are misdealt.
        batch = [(True, 3, 0), (True, 1, 0), (True, 3, 1), (True, 3, 2), (True, 1, 1),
                 (False, 3, 0), (True, 3, 3), (True, 1, 2), (True, 3, 0), (True, 1, 3),
                 (False, 1, 0), (True, 3, 1), (True, 1, 0), (True, 0, 0)]
        bulk, twin = hybrid_pair(4, 3)
        drive_pair(bulk, twin, [batch], hybrid_state)
        assert bytes(bulk.mode) == bytes([0, 1, 0, 1]) and bulk.stats.migrations == 2

    def test_built_from_empty_past_the_threshold_in_one_bulk_insert(self):
        batch = [(True, 2, v % 4) for v in range(10)] + [(True, 0, 1)]
        bulk, twin = hybrid_pair(4, 4)
        drive_pair(bulk, twin, [batch], hybrid_state)
        assert bulk.mode[2] == 1 and bulk.treap.n_arcs == 10 and bulk.arr.n_arcs == 1

    def test_empty_batch(self):
        h = HybridAdjacency(3, degree_thresh=1, seed=1)
        h.bulk_insert([0, 0, 1], [1, 2, 0])
        before = hybrid_state(h)
        h.bulk_insert([], [])
        assert h.apply_arcs([], [], []) == 0
        assert hybrid_state(h) == before

    def test_balanced_batch_cannot_serve_a_stale_snapshot(self):
        g = DynamicGraph(4, "hybrid", directed=True, degree_thresh=1, seed=1)
        g.rep.bulk_insert([0, 0], [1, 2])  # vertex 0 on the treap side
        assert g.snapshot().neighbors(0).tolist() == [1, 2]
        before = g.rep.mutation_count
        g.apply(UpdateStream(4, [1, -1], [0, 0], [3, 1], [0, 0]))
        assert g.rep.n_arcs == 2 and g.rep.mutation_count > before
        assert g.snapshot().neighbors(0).tolist() == [2, 3]


class TestBatchValidation:
    """Malformed batches raise before any arc is applied, through the batch
    entry points and through the per-op references called by name."""

    @pytest.fixture(params=["_scalar", ""], ids=["scalar", "vectorised"])
    def h(self, request):
        """A hybrid with treap vertices, and its ``(apply_arcs, bulk_insert)``
        pair under test (``scalar``: ``apply_arcs_scalar``,
        ``bulk_insert_scalar``)."""
        h = HybridAdjacency(4, degree_thresh=1, seed=1)
        h.bulk_insert([0, 0, 1], [1, 2, 0])
        return h, getattr(h, "apply_arcs" + request.param), getattr(h, "bulk_insert" + request.param)

    def test_short_dst(self, h):
        h, apply, _ = h
        before = hybrid_state(h)
        with pytest.raises(GraphError):
            apply([1, -1, 1], [0, 0, 1], [3, 1])
        assert hybrid_state(h) == before

    def test_short_ts(self, h):
        h, apply, bulk = h
        before = hybrid_state(h)
        with pytest.raises(GraphError):
            apply([1, -1, 1], [0, 0, 1], [3, 1, 2], [7, 8])
        with pytest.raises(GraphError):
            bulk([0, 1], [3, 2], [7])
        assert hybrid_state(h) == before

    def test_op_code_other_than_insert_or_delete(self, h):
        h, apply, _ = h
        before = hybrid_state(h)
        for codes in ([1, 0, 2], [1, -1, 257]):
            with pytest.raises(GraphError):
                apply(codes, [0, 0, 0], [1, 1, 1])
        assert hybrid_state(h) == before


class TestExport:
    @pytest.mark.parametrize("bulk", [False, True])
    @given(export_ops)
    @settings(max_examples=50, deadline=None)
    def test_interleaved_stream_matches_walk(self, bulk, ops):
        # One op at a time, or ten at a time through the partitioned apply
        # (every batch on the bulk path), exports checked along the way.
        h = HybridAdjacency(5, degree_thresh=4, seed=9)
        if not bulk:
            check_export_along(h, ops)
            return
        for lo in range(0, len(ops), 10):
            chunk = ops[lo : lo + 10]
            h.apply_arcs(
                [1 if is_insert else -1 for is_insert, _, _ in chunk],
                [u for _, u, _ in chunk],
                [v for _, _, v in chunk],
                range(lo, lo + len(chunk)),
            )
            assert_export_matches_walk(h)
        assert_export_matches_walk(h)

    def test_every_vertex_on_the_array_side(self):
        h = HybridAdjacency(4, degree_thresh=8, seed=1)
        for u, v in [(3, 0), (0, 2), (3, 1), (0, 2)]:
            h.insert(u, v, ts=u + v)
        assert h.n_treap_vertices() == 0
        assert_export_matches_walk(h)

    def test_every_vertex_on_the_treap_side(self):
        h = HybridAdjacency(3, degree_thresh=1, seed=1)
        for u in range(3):
            for i in range(4):
                h.insert(u, i % 3, ts=i)
        assert h.n_treap_vertices() == 3 and h.arr.n_arcs == 0
        assert_export_matches_walk(h)

    def test_treap_side_emptied_again(self):
        h = HybridAdjacency(3, degree_thresh=1, seed=1)
        h.insert(0, 1)
        h.insert(0, 2)  # migrates 0
        h.insert(1, 0)
        assert h.delete(0, 1) and h.delete(0, 2)
        assert [a.tolist() for a in h.to_arrays()] == [[1], [0], [0]]

    def test_parallel_arcs_past_the_recursion_limit(self):
        h = HybridAdjacency(2, seed=1)
        for i in range(3000):
            h.insert(0, 1, ts=i)
        assert_export_matches_walk(h)
        for _ in range(3000):
            assert h.delete(0, 1)
        assert h.n_arcs == 0

    def test_export_survives_later_updates(self):
        h = HybridAdjacency(3, degree_thresh=2, seed=1)
        for v in [2, 0, 1]:
            h.insert(0, v, ts=v + 10)  # treap side
        h.insert(1, 2, ts=5)  # array side
        first = h.to_arrays()
        h.insert(0, 1, ts=99)
        h.delete(1, 2)
        assert [a.tolist() for a in first] == [[0, 0, 0, 1], [0, 1, 2, 2], [10, 11, 12, 5]]
        assert_export_matches_walk(h)


class TestPhase:
    def test_mixed_sync_model(self):
        h = HybridAdjacency(4, degree_thresh=2, seed=1)
        h.insert(0, 1)  # array: atomic
        for i in range(4):
            h.insert(1, i % 4)  # treap: locks
        ph = h.phase("x")
        assert ph.atomics > 0
        assert ph.locks > 0
        assert ph.footprint_bytes == float(h.model_bytes())

    def test_pure_array_phase_has_no_locks(self):
        h = HybridAdjacency(4, degree_thresh=100, seed=1)
        h.insert(0, 1)
        h.insert(0, 2)
        ph = h.phase("x")
        assert ph.locks == 0.0
