"""Tests for the treap representation, including its structural invariants."""

import itertools
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.treap import _NIL, TreapAdjacency, _priorities, _priority
from repro.errors import GraphError


def check_treap_invariants(t: TreapAdjacency, u: int) -> int:
    """Validate vertex u's treap: keys ascending in-order (BST), every child
    below its parent's priority (strict heap: hashed priorities never tie
    within a treap), and equal keys in arrival order, the
    form the per-op loop, the fused run and the bulk build share (callers
    stamp arcs in non-decreasing arrival order, so equal keys' stamps never
    fall).  Returns its size."""
    order, stack, nd = [], [], t.root[u]
    while stack or nd != _NIL:
        while nd != _NIL:
            stack.append(nd)
            nd = t._left[nd]
        nd = stack.pop()
        order.append(nd)
        nd = t._right[nd]
    for nd in order:
        for child in (t._left[nd], t._right[nd]):
            assert child == _NIL or t._prio[child] < t._prio[nd], "heap order violated"
    for a, b in zip(order, order[1:]):
        assert t._key[a] <= t._key[b], "BST order violated"
        if t._key[a] == t._key[b]:
            assert t._ts[a] <= t._ts[b], "equal keys not in arrival order"
    return len(order)


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
    """Apply ``export_ops`` to ``rep``, checking the touched treap after
    every step and comparing the exports every ten steps."""
    for i, (is_insert, u, v) in enumerate(ops):
        if is_insert:
            rep.insert(u, v, ts=i)  # distinct time-stamps on equal keys
        else:
            rep.delete(u, v)
        check_treap_invariants(treap_of(rep), u)
        if i % 10 == 0:
            assert_export_matches_walk(rep)
    assert_export_matches_walk(rep)


def treap_of(rep) -> TreapAdjacency:
    """The treap a representation keeps (the hybrid's treap side)."""
    return getattr(rep, "treap", rep)


def treap_state(t: TreapAdjacency) -> dict:
    """Everything the fused run must leave exactly as the per-op replay does."""
    return {
        "pool": [buf.tobytes() for buf in (t._key, t._prio, t._left, t._right, t._ts)],
        "root": t.root.tobytes(),
        "live_deg": t._live_deg.tobytes(),
        "free": list(t._free),
        "seq": t._seq.tobytes(),
        "stats": asdict(t.stats),
        "n_arcs": t.n_arcs,
        "memory_bytes": t.memory_bytes(),
        "arrays": [a.tolist() for a in t.to_arrays()],
    }


#: Batches over six sources and four keys, each all inserts (``bulk_insert``:
#: the treaps empty at its start built, the rest through the fused run) or
#: mixed (deletes free-list nodes and empty treaps again).
build_batches = st.lists(
    st.one_of(
        st.lists(st.tuples(st.just(True), st.integers(0, 5), st.integers(0, 3)),
                 min_size=1, max_size=80),
        st.lists(st.tuples(st.sampled_from([True, True, False]), st.integers(0, 5),
                           st.integers(0, 3)), max_size=60),
    ),
    max_size=4,
)


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


def build_work(rep) -> list[tuple[int, int, int]]:
    """``(nodes_visited, rotations, credit)`` of each stats object whose
    first two a bulk build replaces; ``credit`` counts the nodes the build
    charges one visit each to it: a treap's own inserts and, on the hybrid,
    the words its migrations move."""
    t = treap_of(rep)
    stats = [(t.stats, "inserts")]
    if t is not rep:
        stats.insert(0, (rep.stats, "migration_words"))
    return [(s.nodes_visited, s.rotations, getattr(s, credit)) for s, credit in stats]


def without_work(state):
    """``state`` without ``nodes_visited`` / ``rotations``."""
    if isinstance(state, dict):
        drop = ("nodes_visited", "rotations")
        return {k: without_work(v) for k, v in state.items() if k not in drop}
    return state


#: Time-stamps for :func:`drive_pair`, rising across calls.
_STAMPS = itertools.count()


def drive_pair(bulk, twin, batches, state):
    """``bulk`` takes each batch through ``bulk_insert`` / ``apply_arcs``,
    ``twin`` through per-op ``insert`` / ``delete``; ``state`` must agree
    after every batch, and every treap touched must keep its invariants
    (the twin's after every step).  Time-stamps rise across every drive
    (:data:`_STAMPS`), so they witness arrival order across calls too.

    ``nodes_visited`` / ``rotations`` agree batch by batch, except that on
    a ``bulk_insert`` batch the build's count replaces the
    per-op work on the treaps it builds, those empty when the batch starts:
    one visit per node, charged as :func:`build_work` says, and no rotation.
    """
    for batch in batches:
        us = [u for _, u, _ in batch]
        vs = [v for _, _, v in batch]
        tss = [next(_STAMPS) for _ in batch]
        all_inserts = bool(batch) and all(is_insert for is_insert, _, _ in batch)
        empty = {u for u in us if treap_of(twin).root[u] == _NIL} if all_inserts else set()
        bulk_before, twin_before = build_work(bulk), build_work(twin)
        if all_inserts:
            bulk.bulk_insert(us, vs, tss)
            misses = 0
        else:
            misses = bulk.apply_arcs([1 if i else -1 for i, _, _ in batch], us, vs, tss)
        expected = 0
        replaced = [[0, 0, 0] for _ in twin_before]
        for (is_insert, u, v), ts in zip(batch, tss):
            before = build_work(twin)
            if is_insert:
                twin.insert(u, v, ts)
            elif not twin.delete(u, v):
                expected += 1
            check_treap_invariants(treap_of(twin), u)
            if u in empty:
                for r, a, b in zip(replaced, before, build_work(twin)):
                    r[:] = [x + y - z for x, y, z in zip(r, b, a)]
        assert misses == expected
        for u in set(us):
            check_treap_invariants(treap_of(bulk), u)
        assert without_work(state(bulk)) == without_work(state(twin))
        for b0, b1, t0, t1, (nv, rot, credit) in zip(
            bulk_before, build_work(bulk), twin_before, build_work(twin), replaced
        ):
            assert b1[0] - b0[0] == t1[0] - t0[0] - nv + credit
            assert b1[1] - b0[1] == t1[1] - t0[1] - rot


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

    def test_parallel_arcs_past_the_recursion_limit(self):
        """Equal keys in arrival order: copies of one arc far past the
        recursion limit export in arrival order, leave oldest first, and
        form a treap as shallow as distinct keys would."""
        depth = 5000
        assert depth > sys.getrecursionlimit()
        t = TreapAdjacency(2, seed=1)
        for i in range(depth):
            t.insert(0, 1, ts=i)
        assert t.n_nodes == depth
        assert_export_matches_walk(t)
        assert t.to_arrays()[2].tolist() == list(range(depth))
        assert check_treap_depth(t, 0) <= 3 * depth.bit_length()
        assert t._targets_unordered(0).tolist() == [1] * depth
        assert t._targets_unordered(1).tolist() == []
        for i in range(depth):
            assert t.delete(0, 1)
            if i % 1000 == 0:  # the oldest copy goes first
                assert t.neighbors_with_ts(0)[1][0] == i + 1
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
        """5 000 inserts over 64 vertices: each vertex's sequence number
        counts the nodes created for it, whatever the other vertices did."""
        rng = np.random.default_rng(5)
        batch = [(True, int(u), int(v)) for u, v in rng.integers(0, 64, size=(5000, 2))]
        bulk, twin = TreapAdjacency(64, seed=3), TreapAdjacency(64, seed=3)
        drive_pair(bulk, twin, [batch], treap_state)
        owners = [u for _, u, _ in batch]
        assert bulk._seq.tolist() == np.bincount(owners, minlength=64).tolist()

    def test_free_list_reuse_inside_one_run(self):
        batch = [(True, 0, 1), (True, 0, 2), (False, 0, 1), (True, 0, 3), (False, 0, 0)]
        bulk, twin = TreapAdjacency(4, seed=1), TreapAdjacency(4, seed=1)
        drive_pair(bulk, twin, [batch], treap_state)
        assert bulk.n_nodes == 2 and bulk.neighbors(0).tolist() == [2, 3]

    def test_equal_keys_in_arrival_order_stay_shallow(self):
        depth = 1100
        assert depth > sys.getrecursionlimit()
        bulk, twin = TreapAdjacency(6, seed=1), TreapAdjacency(6, seed=1)
        drive_pair(bulk, twin, [[(True, 0, 1)] * depth], treap_state)
        assert check_treap_depth(bulk, 0) <= 3 * depth.bit_length()
        drive_pair(bulk, twin, [[(False, 0, 1)] * depth + [(True, 0, 1)]], treap_state)
        assert bulk.n_arcs == 1

    def test_empty_batch(self):
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 1)
        before = treap_state(t)
        t.bulk_insert([], [])
        assert t.apply_arcs([], [], []) == 0
        assert treap_state(t) == before

    def test_balanced_batch_still_counts_as_a_mutation(self):
        t = TreapAdjacency(3, seed=1)
        t.insert(0, 1)
        before = t.mutation_count
        assert t.apply_arcs([1, -1], [0, 0], [2, 1]) == 0
        assert t.n_arcs == 1 and t.mutation_count > before

    @pytest.mark.parametrize("entry", ["bulk_insert_scalar", "bulk_insert"],
                             ids=["scalar", "vectorised"])
    def test_ragged_bulk_insert_is_rejected_whole(self, entry):
        # The per-op reference by name, and the batch path.
        t = TreapAdjacency(8, seed=1)
        before = treap_state(t)
        with pytest.raises(GraphError):
            getattr(t, entry)([0, 0, 0], [1, 2])
        assert treap_state(t) == before


class TestBuild:
    """``bulk_insert`` builds every treap empty at the batch's start in one
    piece; against the per-op twin, with ``drive_pair``'s build counts."""

    @given(build_batches)
    @settings(max_examples=80, deadline=None)
    def test_matches_per_op_replay(self, batches):
        drive_pair(TreapAdjacency(6, seed=9), TreapAdjacency(6, seed=9), batches, treap_state)

    def test_empty_structure(self):
        rng = np.random.default_rng(11)
        batch = [(True, int(u), int(v)) for u, v in rng.integers(0, 8, size=(300, 2))]
        bulk, twin = TreapAdjacency(8, seed=4), TreapAdjacency(8, seed=4)
        drive_pair(bulk, twin, [batch], treap_state)
        assert bulk.stats.nodes_visited == 300 and bulk.stats.rotations == 0
        assert twin.stats.nodes_visited > 300

    def test_free_listed_nodes_are_reused_first(self):
        fill = [(True, 0, v) for v in range(6)] + [(True, 1, 2)]
        drain = [(False, 0, v) for v in (3, 0, 5, 1)]
        batch = [(True, u, v) for u in (2, 0, 3) for v in (4, 1, 1)]
        bulk, twin = TreapAdjacency(6, seed=2), TreapAdjacency(6, seed=2)
        drive_pair(bulk, twin, [fill, drain], treap_state)
        assert len(bulk._free) == 4
        drive_pair(bulk, twin, [batch], treap_state)
        assert bulk._free == [] and bulk.n_nodes == 7 + 9 - 4

    def test_partly_filled_treaps_take_the_fused_run(self):
        fill = [(True, 0, v) for v in (5, 1, 3)] + [(False, 0, 4)]  # the fused run
        batch = [(True, u, v) for v in (2, 4, 3, 0, 3) for u in (1, 0)]
        bulk, twin = TreapAdjacency(6, seed=8), TreapAdjacency(6, seed=8)
        drive_pair(bulk, twin, [fill], treap_state)
        assert bulk.stats == twin.stats
        drive_pair(bulk, twin, [batch], treap_state)  # vertex 1 built, vertex 0 fused
        assert bulk.neighbors(0).tolist() == [0, 1, 2, 3, 3, 3, 4, 5]
        assert bulk.neighbors(1).tolist() == [0, 2, 3, 3, 4]

    def test_sequence_numbers_run_on_and_deletes_never_take_them_back(self):
        """A fused fill with deletes, then an insert batch that runs onto
        vertex 0's treap and builds the seven empty ones: sequence numbers
        run on across the two, and deletes never take them back."""
        bulk, twin = TreapAdjacency(8, seed=3), TreapAdjacency(8, seed=3)
        fill = [(True, 0, v % 8) for v in range(40)] + [(False, 0, 1)] * 3
        drive_pair(bulk, twin, [fill], treap_state)
        assert bulk._seq[0] == 40 and bulk.degree(0) == 37
        rng = np.random.default_rng(6)
        batch = [(True, int(u), int(v)) for u, v in rng.integers(0, 8, size=(200, 2))]
        counts = np.bincount([u for _, u, _ in batch], minlength=8)
        assert counts.all()  # every vertex takes part: one run, seven builds
        drive_pair(bulk, twin, [batch], treap_state)
        counts[0] += 40
        assert bulk._seq.tolist() == counts.tolist()

def preorder(t: TreapAdjacency, u: int) -> list:
    """Vertex u's treap in pre-order, ``(key, stamp, priority)`` per node
    and None per empty child: its shape without node ids."""
    out, stack = [], [t.root[u]]
    while stack:
        nd = stack.pop()
        if nd == _NIL:
            out.append(None)
            continue
        out.append((t._key[nd], t._ts[nd], t._prio[nd]))
        stack += (t._right[nd], t._left[nd])
    return out


def owner_stable(owners: list[int], perm: list[int]) -> list[int]:
    """Arrival positions reordered by the permutation ``perm``, except that
    each owner's positions stay in arrival order."""
    slots: dict[int, list[int]] = {}
    for u, p in zip(owners, perm):
        slots.setdefault(u, []).append(p)
    for ps in slots.values():
        ps.sort(reverse=True)
    order = [0] * len(owners)
    for i, u in enumerate(owners):
        order[slots[u].pop()] = i
    return order


#: A mixed batch over five sources and four keys, a permutation of its
#: positions and the cut points of its chunks.
regroup_cases = st.lists(
    st.tuples(st.sampled_from([1, 1, -1]), st.integers(0, 4), st.integers(0, 3)),
    min_size=1, max_size=80,
).flatmap(lambda batch: st.tuples(
    st.just(batch),
    st.permutations(range(len(batch))),
    st.lists(st.integers(1, len(batch)), max_size=4),
))


class TestPriorities:
    """A node's priority is a hash of its owner and its sequence number."""

    @given(st.integers(0, (1 << 64) - 1),
           st.lists(st.tuples(st.integers(0, 1 << 40), st.integers(0, 1 << 40)), max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_numpy_and_inline_forms_agree(self, word, pairs):
        us = np.array([u for u, _ in pairs], dtype=np.int64)
        ss = np.array([s for _, s in pairs], dtype=np.int64)
        got = _priorities(word, us, ss)
        assert got.dtype == np.int64
        assert got.tolist() == [_priority(word, u, s) for u, s in pairs]

    def test_splitmix64_finalizer(self):
        # word 0, vertex 1, node 0: splitmix64's first output from state 0.
        assert _priority(0, 1, 0) == 0xE220A8397B1DCDAF - (1 << 64)

    def test_per_op_insert_draws_its_vertex_sequence(self):
        t = TreapAdjacency(4, seed=3)
        for u, v in [(2, 1), (0, 3), (2, 1), (2, 0)]:
            t.insert(u, v)
        assert t.delete(2, 1)
        t.insert(2, 3)  # reuses the freed node, with sequence number 3
        assert t._seq.tolist() == [1, 0, 4, 0]
        prios = sorted(t._prio[nd] for nd in range(t.n_nodes) if nd not in t._free)
        want = [_priority(t._word, 0, 0)] + [_priority(t._word, 2, s) for s in (1, 2, 3)]
        assert prios == sorted(want)

    @pytest.mark.parametrize("kind", ["treap", "hybrid"])
    @given(regroup_cases)
    @settings(max_examples=60, deadline=None)
    def test_owner_stable_regrouping_keeps_shapes_exports_and_counters(self, kind, case):
        """The batch in arrival order as one ``apply_arcs`` against an
        owner-stable regrouping of it in chunks (the hybrid at
        ``degree_thresh=2``, so vertices migrate mid-batch): every treap's
        pre-order, the export and ``nodes_visited`` / ``rotations`` agree.
        Node ids need not."""
        batch, perm, cuts = case
        order = owner_stable([u for _, u, _ in batch], perm)

        def make():
            if kind == "hybrid":
                return HybridAdjacency(5, degree_thresh=2, seed=9)
            return TreapAdjacency(5, seed=9)

        def work(rep):
            s = rep.combined_stats() if kind == "hybrid" else rep.stats
            return s.nodes_visited, s.rotations, s.delete_misses

        whole, regrouped = make(), make()
        whole.apply_arcs(*(list(col) for col in zip(*batch)), range(len(batch)))
        lo = 0
        for hi in sorted(set(cuts) | {len(batch)}):
            part = [batch[i] for i in order[lo:hi]]
            regrouped.apply_arcs(*(list(col) for col in zip(*part)), order[lo:hi])
            lo = hi
        for u in range(5):
            assert preorder(treap_of(whole), u) == preorder(treap_of(regrouped), u)
        for a, b in zip(whole.to_arrays(), regrouped.to_arrays()):
            assert a.tolist() == b.tolist()
        assert work(whole) == work(regrouped)


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
        """The operands are multisets: 1 500 parallel arcs collapse to one
        key without any walk deeper than the treap."""
        t = TreapAdjacency(4, seed=7)
        t.bulk_insert([0] * 1500 + [0, 2, 2], [1] * 1500 + [3, 1, 2])
        assert t.union_neighbors(0, 2).tolist() == [1, 2, 3]
        assert t.intersect_neighbors(0, 2).tolist() == [1]
        assert t.difference_neighbors(0, 2).tolist() == [3]
        assert t.degree(0) == 1501 and t.neighbors(2).tolist() == [1, 2]

    def test_queries_leave_the_structure_untouched(self, t):
        """Pool, free list, counters, ``memory_bytes()`` and sequence
        numbers: a query changes none of them, nor the shape of a treap
        built afterwards."""
        twin = TreapAdjacency(16, seed=4)
        for u, vs in ((0, [1, 3, 5, 7]), (1, [3, 4, 5, 9])):
            for v in vs:
                twin.insert(u, v)
        before = treap_state(t)
        for u, w in itertools.product(range(3), repeat=2):
            t.union_neighbors(u, w)
            t.intersect_neighbors(u, w)
            t.difference_neighbors(u, w)
        assert treap_state(t) == before
        for rep in (t, twin):
            for v in [8, 2, 6, 4, 0]:
                rep.insert(2, v)
        assert treap_state(t) == treap_state(twin)


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
