"""Tests for the treap representation, including its structural invariants."""

import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency import bulkops
from repro.adjacency.treap import TreapAdjacency, _NIL
from repro.errors import GraphError


def check_treap_invariants(t: TreapAdjacency, u: int) -> int:
    """Validate BST-by-key and heap-by-priority for vertex u; returns size."""
    count = 0

    def rec(node, lo, hi, max_prio):
        nonlocal count
        if node == _NIL:
            return
        count += 1
        key = t._key[node]
        assert lo <= key <= hi, "BST order violated"
        assert t._prio[node] <= max_prio, "heap order violated"
        rec(t._left[node], lo, key, t._prio[node])
        rec(t._right[node], key, hi, t._prio[node])

    rec(t.root[u], -(1 << 62), 1 << 62, 1 << 63)
    return count


def check_treap_depth(t: TreapAdjacency, u: int) -> int:
    """Longest root-to-leaf path of vertex u's treap, in nodes."""
    depth, level = 0, [t.root[u]]
    while level := [c for nd in level if nd != _NIL for c in (t._left[nd], t._right[nd])]:
        depth += 1
    return depth


def assert_export_matches_walk(rep):
    """``to_arrays`` (level pass) against ``to_arrays_scalar`` (per-vertex walk)."""
    fast, ref = rep.to_arrays(), rep.to_arrays_scalar()
    for a, b in zip(fast, ref):
        assert a.dtype == np.int64 and a.flags.owndata
        assert np.array_equal(a, b)
    assert fast[0].size == rep.n_arcs


#: (is_insert, u, v): three sources and five keys, so duplicate keys, emptied
#: treaps and free-list reuse all occur within one short stream.
export_ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 4)), max_size=150
)


def check_export_along(rep, ops):
    """Apply ``export_ops`` to ``rep``, comparing the exports every ten steps."""
    for i, (is_insert, u, v) in enumerate(ops):
        if is_insert:
            rep.insert(u, v, ts=i)  # distinct time-stamps on equal keys
        else:
            rep.delete(u, v)
        if i % 10 == 0:
            assert_export_matches_walk(rep)
    assert_export_matches_walk(rep)


def treap_state(t: TreapAdjacency) -> dict:
    """Everything the fused run must leave exactly as the per-op replay does."""
    return {
        "pool": [buf.tobytes() for buf in (t._key, t._prio, t._left, t._right, t._ts)],
        "root": t.root.tobytes(),
        "live_deg": t._live_deg.tobytes(),
        "free": list(t._free),
        "prio_block": list(t._prio_block),
        "stats": asdict(t.stats),
        "n_arcs": t.n_arcs,
        "memory_bytes": t.memory_bytes(),
        "arrays": [a.tolist() for a in t.to_arrays()],
    }


#: Batches of (is_insert, u, v) over three sources and four keys: duplicate
#: arcs, self-loops, delete misses and deletes of a key held several times
#: all occur within a few dozen operations.
fused_batches = st.lists(
    st.lists(
        st.tuples(st.sampled_from([True, True, False]), st.integers(0, 2), st.integers(0, 3)),
        max_size=60,
    ),
    max_size=4,
)


def drive_pair(bulk, twin, batches, state):
    """``bulk`` takes each batch through ``bulk_insert`` / ``apply_arcs``,
    ``twin`` through per-op ``insert`` / ``delete``; ``state`` must agree
    after every batch.  Time-stamps are distinct across the whole drive."""
    stamp = 0
    for batch in batches:
        us = [u for _, u, _ in batch]
        vs = [v for _, _, v in batch]
        tss = list(range(stamp, stamp + len(batch)))
        stamp += len(batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bulkops, "MIN_BULK_SIZE", 1)  # small batches take the bulk path too
            if batch and all(is_insert for is_insert, _, _ in batch):
                bulk.bulk_insert(us, vs, tss)
                misses = 0
            else:
                misses = bulk.apply_arcs([1 if i else -1 for i, _, _ in batch], us, vs, tss)
        expected = 0
        for (is_insert, u, v), ts in zip(batch, tss):
            if is_insert:
                twin.insert(u, v, ts)
            elif not twin.delete(u, v):
                expected += 1
        assert misses == expected
        assert state(bulk) == state(twin)


class TestInsertDelete:
    def test_basic(self):
        t = TreapAdjacency(4, seed=1)
        t.insert(0, 3, 30)
        t.insert(0, 1, 10)
        t.insert(0, 2, 20)
        assert t.degree(0) == 3
        assert t.neighbors(0).tolist() == [1, 2, 3]  # in-order = sorted
        nbr, ts = t.neighbors_with_ts(0)
        assert ts.tolist() == [10, 20, 30]

    def test_invariants_after_many_ops(self):
        t = TreapAdjacency(64, seed=2)
        rng = np.random.default_rng(0)
        live = []
        for _ in range(300):
            v = int(rng.integers(0, 50))
            if rng.random() < 0.6 or not live:
                t.insert(0, v)
                live.append(v)
            else:
                target = live[int(rng.integers(0, len(live)))]
                assert t.delete(0, target)
                live.remove(target)
            assert check_treap_invariants(t, 0) == len(live)
        assert t.neighbors(0).tolist() == sorted(live)

    def test_delete_missing(self):
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 1)
        assert not t.delete(0, 2)
        assert t.stats.delete_misses == 1

    def test_duplicate_keys(self):
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 1)
        t.insert(0, 1)
        t.insert(0, 1)
        assert t.degree(0) == 3
        assert t.delete(0, 1)
        assert t.degree(0) == 2
        assert t.neighbors(0).tolist() == [1, 1]

    def test_node_reuse_from_freelist(self):
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 1)
        t.delete(0, 1)
        pool_size = t.n_nodes
        t.insert(0, 2)
        assert t.n_nodes == pool_size  # free-listed node reused

    def test_has_arc(self):
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 2)
        assert t.has_arc(0, 2)
        assert not t.has_arc(0, 1)
        assert not t.has_arc(2, 0)

    def test_counters_measure_depth(self):
        t = TreapAdjacency(256, seed=3)
        for v in range(200):
            t.insert(0, v)
        assert t.stats.nodes_visited > 200  # descents visit interior nodes
        assert t.stats.rotations > 0

    def test_deterministic_given_seed(self):
        a = TreapAdjacency(16, seed=7)
        b = TreapAdjacency(16, seed=7)
        for v in [5, 3, 8, 1]:
            a.insert(0, v)
            b.insert(0, v)
        assert a._key == b._key and a._prio == b._prio


class TestExport:
    @given(export_ops)
    @settings(max_examples=80, deadline=None)
    def test_interleaved_stream_matches_walk(self, ops):
        check_export_along(TreapAdjacency(5, seed=9), ops)

    def test_no_node_ever(self):
        t = TreapAdjacency(3, seed=1)
        assert [a.tolist() for a in t.to_arrays()] == [[], [], []]
        assert_export_matches_walk(t)

    def test_every_node_on_the_free_list(self):
        t = TreapAdjacency(3, seed=1)
        for v in [2, 0, 2, 1]:
            t.insert(1, v)
        for v in [2, 0, 2, 1]:
            assert t.delete(1, v)
        assert t.n_nodes == 4 and t.root[1] == _NIL
        assert_export_matches_walk(t)

    def test_one_treap_emptied_beside_a_live_one(self):
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 1, 5)
        t.insert(2, 0, 6)
        t.insert(2, 0, 7)
        assert t.delete(0, 1)
        assert [a.tolist() for a in t.to_arrays()] == [[2, 2], [0, 0], [6, 7]]
        t.insert(1, 2, 8)  # reuses the freed node
        assert_export_matches_walk(t)

    def test_parallel_arcs_form_a_deep_chain(self):
        """Equal keys make a spine as deep as their multiplicity: far past
        the recursion limit, and one export level per node."""
        depth = 5000
        assert depth > sys.getrecursionlimit()
        t = TreapAdjacency(2, seed=1)
        for i in range(depth):
            t.insert(0, 1, ts=i)
        assert t.n_nodes == depth
        assert_export_matches_walk(t)
        assert sorted(t.to_arrays()[2].tolist()) == list(range(depth))
        assert check_treap_depth(t, 0) == depth
        for _ in range(depth):
            assert t.delete(0, 1)
        assert t.n_arcs == 0 and t.root[0] == _NIL

    def test_exports_own_their_memory(self):
        """A published snapshot must not alias the pool: a later insert
        grows the pool (no ``BufferError``) and the old export stays put."""
        t = TreapAdjacency(3, seed=1)
        for v in [2, 0, 1]:
            t.insert(0, v, ts=v + 10)
        first = t.to_arrays()
        nbr, ts = t.neighbors_with_ts(0)
        t.insert(0, 1, ts=99)
        t.delete(0, 2)
        assert [a.tolist() for a in first] == [[0, 0, 0], [0, 1, 2], [10, 11, 12]]
        assert (nbr.tolist(), ts.tolist()) == ([0, 1, 2], [10, 11, 12])
        assert t.to_arrays()[1].tolist() == [0, 1, 1]


class TestFusedRun:
    """``bulk_insert`` / ``apply_arcs`` (one ``_apply_run``) against the
    per-op methods, which stay the oracle."""

    @given(fused_batches)
    @settings(max_examples=80, deadline=None)
    def test_matches_per_op_replay(self, batches):
        drive_pair(TreapAdjacency(4, seed=9), TreapAdjacency(4, seed=9), batches, treap_state)

    def test_run_crosses_the_priority_refill(self):
        rng = np.random.default_rng(5)
        batch = [(True, int(u), int(v)) for u, v in rng.integers(0, 64, size=(5000, 2))]
        bulk, twin = TreapAdjacency(64, seed=3), TreapAdjacency(64, seed=3)
        drive_pair(bulk, twin, [batch], treap_state)
        assert len(bulk._prio_block) == 2 * 4096 - 5000

    def test_free_list_reuse_inside_one_run(self):
        batch = [(True, 0, 1), (True, 0, 2), (False, 0, 1), (True, 0, 3), (False, 0, 0)]
        bulk, twin = TreapAdjacency(4, seed=1), TreapAdjacency(4, seed=1)
        drive_pair(bulk, twin, [batch], treap_state)
        assert bulk.n_nodes == 2 and bulk.neighbors(0).tolist() == [2, 3]

    def test_deep_equal_key_spine(self):
        depth = 1100
        assert depth > sys.getrecursionlimit()
        bulk, twin = TreapAdjacency(2, seed=1), TreapAdjacency(2, seed=1)
        drive_pair(bulk, twin, [[(True, 0, 1)] * depth], treap_state)
        assert check_treap_depth(bulk, 0) == depth
        drive_pair(bulk, twin, [[(False, 0, 1)] * depth + [(True, 0, 1)]], treap_state)
        assert bulk.n_arcs == 1

    def test_empty_batch(self):
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 1)
        before = treap_state(t)
        t.bulk_insert([], [])
        assert t.apply_arcs([], [], []) == 0
        assert treap_state(t) == before

    def test_balanced_batch_still_counts_as_a_mutation(self, monkeypatch):
        monkeypatch.setattr(bulkops, "MIN_BULK_SIZE", 1)
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 1)
        before = t.mutation_count
        assert t.apply_arcs([1, -1], [0, 0], [2, 1]) == 0
        assert t.n_arcs == 1 and t.mutation_count > before

    @pytest.mark.parametrize("min_bulk", [bulkops.MIN_BULK_SIZE, 1], ids=["scalar", "vectorised"])
    def test_ragged_bulk_insert_is_rejected_whole(self, min_bulk, monkeypatch):
        monkeypatch.setattr(bulkops, "MIN_BULK_SIZE", min_bulk)
        t = TreapAdjacency(8, seed=1)
        before = treap_state(t)
        with pytest.raises(GraphError):
            t.bulk_insert([0, 0, 0], [1, 2])
        assert treap_state(t) == before


class TestSetOperations:
    @pytest.fixture
    def t(self):
        t = TreapAdjacency(16, seed=4)
        for v in [1, 3, 5, 7]:
            t.insert(0, v)
        for v in [3, 4, 5, 9]:
            t.insert(1, v)
        return t

    def test_union(self, t):
        assert t.union_neighbors(0, 1).tolist() == [1, 3, 4, 5, 7, 9]

    def test_intersection(self, t):
        assert t.intersect_neighbors(0, 1).tolist() == [3, 5]

    def test_difference(self, t):
        assert t.difference_neighbors(0, 1).tolist() == [1, 7]

    def test_ops_do_not_mutate_operands(self, t):
        t.union_neighbors(0, 1)
        assert t.neighbors(0).tolist() == [1, 3, 5, 7]
        assert t.neighbors(1).tolist() == [3, 4, 5, 9]

    def test_empty_operand(self, t):
        assert t.union_neighbors(0, 2).tolist() == [1, 3, 5, 7]
        assert t.intersect_neighbors(0, 2).size == 0
        assert t.difference_neighbors(2, 0).size == 0

    def test_multiset_collapsed_to_set(self):
        t = TreapAdjacency(8, seed=5)
        for v in [1, 1, 2]:
            t.insert(0, v)
        t.insert(1, 2)
        assert t.union_neighbors(0, 1).tolist() == [1, 2]

    def test_random_against_python_sets(self):
        rng = np.random.default_rng(6)
        t = TreapAdjacency(64, seed=6)
        a = set(rng.integers(0, 40, 25).tolist())
        b = set(rng.integers(0, 40, 25).tolist())
        for v in a:
            t.insert(0, v)
        for v in b:
            t.insert(1, v)
        assert t.union_neighbors(0, 1).tolist() == sorted(a | b)
        assert t.intersect_neighbors(0, 1).tolist() == sorted(a & b)
        assert t.difference_neighbors(0, 1).tolist() == sorted(a - b)

    def test_key_held_more_often_than_the_recursion_limit(self):
        """The operands are multisets: 1 500 parallel arcs make a right
        spine 1 500 deep, which the copy and the free must not recurse down."""
        t = TreapAdjacency(4, seed=7)
        t.bulk_insert([0] * 1500 + [0, 2, 2], [1] * 1500 + [3, 1, 2])
        visited = t.stats.nodes_visited
        assert t.union_neighbors(0, 2).tolist() == [1, 2, 3]
        assert t.intersect_neighbors(0, 2).tolist() == [1]
        assert t.difference_neighbors(0, 2).tolist() == [3]
        assert t.stats.nodes_visited > visited + 3 * 1503  # every copied node counted
        assert t.degree(0) == 1501 and t.neighbors(2).tolist() == [1, 2]


class TestAccounting:
    def test_memory_model(self):
        t = TreapAdjacency(10, seed=1)
        for v in range(5):
            t.insert(0, v)
        assert t.memory_bytes() == (5 * 5 + 10) * 8

    def test_sync_uses_locks_not_atomics(self):
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 1)
        ph = t.phase("x")
        assert ph.locks == 1.0
        assert ph.atomics == 0.0
        assert ph.lock_hold_cycles > 0
