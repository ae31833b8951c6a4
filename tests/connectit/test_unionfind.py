"""Unit tests for the pluggable union-find substrate."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectit.unionfind import (
    COMPACTION_RULES,
    UNION_RULES,
    UnionFind,
    WorkCounters,
)
from repro.errors import GraphError, VertexError

ALL_VARIANTS = [(u, c) for u in UNION_RULES for c in COMPACTION_RULES]


class NaiveDSU:
    """Reference disjoint-set: no balancing, no compaction, obviously right."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, u, v):
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[rv] = ru
        return True

    def labels(self):
        n = len(self.parent)
        roots = [self.find(x) for x in range(n)]
        mins = {}
        for x in range(n):
            mins[roots[x]] = min(mins.get(roots[x], n), x)
        return [mins[r] for r in roots]


@pytest.mark.parametrize("union_rule,compaction", ALL_VARIANTS)
class TestVariants:
    def test_matches_naive_dsu(self, union_rule, compaction):
        rng = np.random.default_rng(hash((union_rule, compaction)) % 2**32)
        n = 200
        uf = UnionFind(n, union_rule=union_rule, compaction=compaction)
        ref = NaiveDSU(n)
        for _ in range(300):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            assert uf.union(u, v) == ref.union(u, v)
        assert uf.components().tolist() == ref.labels()

    def test_self_union_is_noop(self, union_rule, compaction):
        uf = UnionFind(5, union_rule=union_rule, compaction=compaction)
        assert not uf.union(3, 3)
        assert uf.n_components() == 5

    def test_union_counts_attempts_and_hooks(self, union_rule, compaction):
        uf = UnionFind(4, union_rule=union_rule, compaction=compaction)
        assert uf.union(0, 1)
        assert uf.union(2, 3)
        assert uf.union(0, 3)
        assert not uf.union(1, 2)
        assert uf.counters.unions == 4
        assert uf.counters.hooks == 3

    def test_components_canonical_minimum(self, union_rule, compaction):
        uf = UnionFind(6, union_rule=union_rule, compaction=compaction)
        uf.union(5, 3)
        uf.union(3, 1)
        labels = uf.components()
        assert labels[1] == labels[3] == labels[5] == 1
        assert labels[0] == 0 and labels[2] == 2 and labels[4] == 4


def test_invalid_rules_raise():
    with pytest.raises(GraphError):
        UnionFind(4, union_rule="nope")
    with pytest.raises(GraphError):
        UnionFind(4, compaction="nope")
    with pytest.raises(GraphError):
        UnionFind(-1)


def test_empty_universe():
    uf = UnionFind(0)
    assert uf.components().size == 0
    assert uf.n_components() == 0


def test_union_arcs_returns_hooks():
    uf = UnionFind(4)
    src = np.array([0, 1, 2, 0], dtype=np.int64)
    dst = np.array([1, 2, 3, 3], dtype=np.int64)
    assert uf.union_arcs(src, dst).tolist() == [True, True, True, False]
    assert uf.n_components() == 1


def test_union_arcs_rejects_bad_endpoints():
    # A negative id used to wrap (linking 3 and 2), an id >= n escaped as a
    # bare IndexError, and unequal lengths were truncated by zip.
    uf = UnionFind(4)
    for src, dst, error in (
        ([-1], [2], VertexError),
        ([1], [4], VertexError),
        ([0, 1], [2], GraphError),
    ):
        with pytest.raises(error):
            uf.union_arcs(np.array(src), np.array(dst))
    assert uf.parent.tolist() == [0, 1, 2, 3]
    assert uf.counters == WorkCounters()


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("union_rule", UNION_RULES)
def test_union_arcs_empty_batch_and_tiny_universes(n, union_rule):
    uf = UnionFind(n, union_rule=union_rule)
    empty = np.empty(0, dtype=np.int64)
    linked = uf.union_arcs(empty, empty)
    assert linked.dtype == np.bool_ and linked.shape == (0,)
    assert uf.counters == WorkCounters()
    labels = list(range(n))
    if n:
        assert uf.union_arcs(np.array([0]), np.array([n - 1])).tolist() == [n > 1]
        labels[n - 1] = 0
    assert uf.components().tolist() == labels
    assert uf.parent.dtype == np.int64 and uf.parent.shape == (n,)
    for view, dtype in ((uf.rank, np.int8), (uf.size, np.int64)):
        assert view is None or (view.dtype == dtype and view.shape == (n,))


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda uf: pickle.loads(pickle.dumps(uf))])
@pytest.mark.parametrize("union_rule", UNION_RULES)
def test_copies_keep_views_and_buffers_coherent(clone, union_rule):
    uf = UnionFind(6, union_rule=union_rule)
    uf.union_arcs(np.array([0, 2]), np.array([1, 3]))
    twin = clone(uf)
    assert twin.parent.tolist() == uf.parent.tolist()
    assert twin.counters == uf.counters
    # A write through the copy's view reaches the copy's find, and only it.
    twin.parent[5] = 4
    assert twin.find(5) == 4 and uf.find(5) == 5
    assert twin.union_arcs(np.array([4]), np.array([0])).tolist() == [True]
    assert twin.find(5) == twin.find(1) and uf.find(4) == 4
    assert twin.memory_bytes() == uf.memory_bytes()


def test_bulk_hook_counts_and_merges():
    uf = UnionFind(10)
    hooked = uf.bulk_hook(np.array([1, 2, 3]), 0)
    assert hooked == 3
    assert uf.counters.hooks == 3 and uf.counters.unions == 3
    labels = uf.components()
    assert labels[0] == labels[1] == labels[2] == labels[3] == 0
    assert uf.bulk_hook(np.array([], dtype=np.int64), 0) == 0


def test_compaction_shortens_paths():
    """After a find with compaction, the walked path points near the root."""
    n = 20
    for comp in ("full", "halving", "splitting"):
        uf = UnionFind(n, compaction=comp)
        # Build a deliberate chain 0 <- 1 <- ... <- n-1 without compaction.
        uf.parent[:] = np.maximum(np.arange(n) - 1, 0)
        root = uf.find(n - 1)
        assert root == 0
        if comp == "full":
            assert int(uf.parent[n - 1]) == 0
        else:
            # halving/splitting at least halve the leaf's depth
            assert int(uf.parent[n - 1]) != n - 2
        assert uf.counters.compaction_writes > 0


def test_no_compaction_leaves_paths():
    uf = UnionFind(5, compaction="none")
    uf.parent[:] = np.maximum(np.arange(5) - 1, 0)
    assert uf.find(4) == 0
    assert int(uf.parent[4]) == 3
    assert uf.counters.compaction_writes == 0
    assert uf.counters.pointer_chases == 4


def test_rem_counts_no_finds():
    uf = UnionFind(50, union_rule="rem")
    rng = np.random.default_rng(3)
    for _ in range(100):
        uf.union(int(rng.integers(50)), int(rng.integers(50)))
    assert uf.counters.finds == 0
    assert uf.counters.pointer_chases > 0


def test_memory_bytes_by_rule():
    assert UnionFind(100, union_rule="rank").memory_bytes() == 100 * 8 + 100
    assert UnionFind(100, union_rule="size").memory_bytes() == 100 * 8 + 100 * 8
    assert UnionFind(100, union_rule="rem").memory_bytes() == 100 * 8


def test_workcounters_roundtrip_and_arithmetic():
    a = WorkCounters(finds=5, unions=4, hooks=3, pointer_chases=10, compaction_writes=2)
    assert a.atomics == 5
    d = a.to_dict()
    assert d["atomics"] == 5
    b = a.snapshot()
    b.add(WorkCounters(finds=1))
    assert b.finds == 6 and a.finds == 5
    delta = b.since(a)
    assert delta == WorkCounters(finds=1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
    variant=st.sampled_from(ALL_VARIANTS),
)
def test_hypothesis_equivalence_with_naive_dsu(n, edges, variant):
    union_rule, compaction = variant
    uf = UnionFind(n, union_rule=union_rule, compaction=compaction)
    ref = NaiveDSU(n)
    for u, v in edges:
        u %= n
        v %= n
        assert uf.union(u, v) == ref.union(u, v)
    assert uf.components().tolist() == ref.labels()


# One step of a mixed drive: the per-op API, the batch entry point, the BFS
# sampling hook, or a raw write of a parent pointer through the ndarray view.
_steps = st.one_of(
    st.tuples(st.just("union"), st.integers(0, 29), st.integers(0, 29)),
    st.tuples(st.just("find"), st.integers(0, 29)),
    st.tuples(
        st.just("union_arcs"),
        st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=12),
    ),
    st.tuples(st.just("bulk_hook"), st.integers(0, 29)),
    st.tuples(st.just("write"), st.integers(0, 29)),
)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    steps=st.lists(_steps, max_size=30),
    variant=st.sampled_from(ALL_VARIANTS),
)
def test_hypothesis_mixed_entry_points_share_one_store(n, steps, variant):
    """Every entry point reads and writes the same forest.

    ``uf`` is driven through all of them; ``ref`` sees the same operations
    through ``union``/``find`` and writes to its view only.  Forest,
    rank/size and counters must agree after every step.
    """
    union_rule, compaction = variant
    uf = UnionFind(n, union_rule=union_rule, compaction=compaction)
    ref = UnionFind(n, union_rule=union_rule, compaction=compaction)
    for op, *args in steps:
        if op == "union":
            u, v = (a % n for a in args)
            assert uf.union(u, v) == ref.union(u, v)
        elif op == "find":
            assert uf.find(args[0] % n) == ref.find(args[0] % n)
        elif op == "union_arcs":
            pairs = [(u % n, v % n) for u, v in args[0]]
            src = np.array([u for u, _ in pairs], dtype=np.int64)
            dst = np.array([v for _, v in pairs], dtype=np.int64)
            assert uf.union_arcs(src, dst).tolist() == [ref.union(u, v) for u, v in pairs]
        elif op == "bulk_hook":
            # Valid on singleton trees only; rem also needs parent <= child.
            roots = ref.flat_roots()
            root = int(roots[args[0] % n])
            lone = np.flatnonzero(np.bincount(roots, minlength=n) == 1)
            lone = lone[lone > root] if union_rule == "rem" else lone[lone != root]
            assert uf.bulk_hook(lone, root) == ref.bulk_hook(lone, root)
        else:
            # Re-point a vertex at its root: legal under every rule, and only
            # visible to the next find if views and buffers are one store.
            x = args[0] % n
            root = int(ref.flat_roots()[x])
            uf.parent[x] = ref.parent[x] = root
        assert uf.parent.tolist() == ref.parent.tolist()
        assert uf.counters == ref.counters
    for mine, theirs in ((uf.rank, ref.rank), (uf.size, ref.size)):
        assert (mine is None) == (theirs is None)
        assert mine is None or mine.tolist() == theirs.tolist()
