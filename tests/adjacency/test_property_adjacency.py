"""Property-based tests (hypothesis) for the adjacency structures.

Random operation sequences against the dict-of-multiset reference model;
treap structural invariants under arbitrary interleavings; pool accounting
invariants.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.mempool import IntPool
from repro.adjacency.treap import TreapAdjacency, _NIL

N = 8

# An operation: (is_insert, u, v)
ops_strategy = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=N - 1),
        st.integers(min_value=0, max_value=N - 1),
    ),
    max_size=120,
)


def apply_both(rep, ops):
    model = [Counter() for _ in range(N)]
    for is_insert, u, v in ops:
        if is_insert:
            rep.insert(u, v)
            model[u][v] += 1
        else:
            found = rep.delete(u, v)
            if model[u][v] > 0:
                assert found
                model[u][v] -= 1
                if model[u][v] == 0:
                    del model[u][v]
            else:
                assert not found
    return model


def assert_matches(rep, model):
    for u in range(N):
        assert rep.degree(u) == sum(model[u].values())
        assert sorted(rep.neighbors(u).tolist()) == sorted(model[u].elements())


class TestDynArrModel:
    @given(ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, ops):
        rep = DynArrAdjacency(N, initial_capacity=1)
        model = apply_both(rep, ops)
        assert_matches(rep, model)

    @given(ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_live_counts_consistent(self, ops):
        rep = DynArrAdjacency(N, initial_capacity=2)
        apply_both(rep, ops)
        assert rep.n_arcs == int(rep.live.sum())
        assert np.all(rep.live <= rep.cnt)
        assert np.all(rep.cnt <= np.maximum(rep.cap, 0))


class TestTreapModel:
    @given(ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, ops):
        rep = TreapAdjacency(N, seed=5)
        model = apply_both(rep, ops)
        assert_matches(rep, model)

    @given(ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold(self, ops):
        rep = TreapAdjacency(N, seed=5)
        apply_both(rep, ops)
        for u in range(N):
            self._check(rep, rep.root[u])

    @staticmethod
    def _check(t, root):
        def rec(node, lo, hi, max_prio):
            if node == _NIL:
                return
            assert lo <= t._key[node] <= hi
            assert t._prio[node] < max_prio  # hashed priorities never tie
            rec(t._left[node], lo, t._key[node], t._prio[node])
            rec(t._right[node], t._key[node], hi, t._prio[node])

        rec(root, -(1 << 62), 1 << 62, 1 << 63)


class TestHybridModel:
    @given(ops_strategy, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_any_threshold(self, ops, thresh):
        rep = HybridAdjacency(N, degree_thresh=thresh, seed=5)
        model = apply_both(rep, ops)
        assert_matches(rep, model)


class TestPoolProperties:
    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_allocations_disjoint_and_in_bounds(self, sizes):
        pool = IntPool(4)
        blocks = []
        for s in sizes:
            off = pool.alloc(s)
            blocks.append((off, s))
        # within capacity
        assert all(off + s <= pool.capacity for off, s in blocks)
        # pairwise disjoint
        spans = sorted(blocks)
        for (o1, s1), (o2, _s2) in zip(spans, spans[1:]):
            assert o1 + s1 <= o2
        assert pool.used == sum(sizes)

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_growth_preserves_written_data(self, sizes):
        pool = IntPool(2, columns=2)
        stamps = []
        for i, s in enumerate(sizes):
            off = pool.alloc(s)
            pool.column(0)[off] = i
            pool.column(1)[off] = -i
            stamps.append((off, i))
        for off, i in stamps:
            assert pool.column(0)[off] == i
            assert pool.column(1)[off] == -i
