"""Unit tests for the pluggable union-find substrate."""

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
from repro.errors import GraphError

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
    assert WorkCounters.from_dict(d) == a
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
