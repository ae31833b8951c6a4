"""Batched inserts through ``ConnectivityIndex.apply_batch`` match sequential ``add_edge``.

``apply_batch`` decides which inserts link with one union-find over root
space (``ConnectivityIndex._union_roots``); its contract is that the i-th
batched union succeeds exactly when the i-th sequential
``LinkCutForest.add_edge`` would have linked, so the linked mask, the
number of tree links and the forest partitions are identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.csr import build_csr
from repro.adjacency.registry import make_representation
from repro.api import DynamicGraph
from repro.connectit.unionfind import COMPACTION_RULES, UNION_RULES, UnionFind
from repro.core.connectivity import ConnectivityIndex
from repro.core.linkcut import LinkCutForest
from repro.errors import GraphError
from repro.generators.rmat import rmat_graph
from repro.generators.streams import UpdateStream


def make_index(n: int) -> ConnectivityIndex:
    return ConnectivityIndex(LinkCutForest(n))


def rep_index(n: int) -> ConnectivityIndex:
    """An index that owns an empty undirected graph of ``n`` vertices."""
    return ConnectivityIndex.from_rep(make_representation("dynarr", n))


def inserts(n: int, us, vs) -> UpdateStream:
    return UpdateStream(n, np.ones(len(us), dtype=np.int8), us, vs, np.zeros(len(us)))


def forest_labels(index: ConnectivityIndex) -> np.ndarray:
    """Canonical (min-id) label per tree of the index's forest."""
    n = index.forest.n
    roots = index.forest.findroot_batch(np.arange(n, dtype=np.int64))
    mins = np.full(n, n, dtype=np.int64)
    np.minimum.at(mins, roots, np.arange(n, dtype=np.int64))
    return mins[roots]


def sequential_reference(index: ConnectivityIndex, us, vs) -> np.ndarray:
    linked = np.zeros(len(us), dtype=bool)
    for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        linked[i] = index.forest.add_edge(u, v)
    return linked


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_insert_batch_matches_sequential(seed):
    graph = rmat_graph(scale=9, edge_factor=3, seed=seed)
    csr = build_csr(graph)
    rng = np.random.default_rng(seed)
    us = rng.integers(0, graph.n, size=2000, dtype=np.int64)
    vs = rng.integers(0, graph.n, size=2000, dtype=np.int64)

    batched = ConnectivityIndex.from_csr(csr)
    sequential = ConnectivityIndex.from_csr(csr)
    linked = batched._union_roots(us, vs)
    ref_linked = sequential_reference(sequential, us, vs)
    np.testing.assert_array_equal(linked, ref_linked)

    # The whole batch through apply_batch: the same links, the same partition.
    index = ConnectivityIndex.from_rep(DynamicGraph.from_edgelist(graph, seed=1).rep)
    index.apply_batch(inserts(graph.n, us, vs))
    assert index.stats.tree_links == int(ref_linked.sum())
    np.testing.assert_array_equal(forest_labels(index), forest_labels(sequential))


def test_insert_batch_empty():
    index = rep_index(16)
    empty = np.array([], dtype=np.int64)
    assert index._union_roots(empty, empty).size == 0
    result = index.apply_batch(inserts(16, empty, empty))
    assert result.n_updates == 0
    assert index.stats.tree_links == 0 and index.forest.n_trees() == 16


def test_insert_batch_self_loops_and_duplicates():
    index = rep_index(4)
    us = np.array([0, 0, 0, 1, 2], dtype=np.int64)
    vs = np.array([0, 1, 1, 0, 3], dtype=np.int64)
    assert index._union_roots(us, vs).tolist() == [False, True, False, False, True]
    index.apply_batch(inserts(4, us, vs))
    assert index.stats.tree_links == 2
    assert index.forest.n_trees() == 2


def test_insert_batch_validates_input():
    index = rep_index(8)
    with pytest.raises(GraphError, match="length mismatch"):
        inserts(8, np.array([0, 1]), np.array([1]))
    with pytest.raises(GraphError, match="vertex count"):
        index.apply_batch(inserts(4, np.array([0]), np.array([1])))
    with pytest.raises(GraphError, match="from_rep"):
        make_index(8).apply_batch(inserts(8, np.array([0]), np.array([1])))


def test_insert_batch_profile_and_meta():
    # The linked mask does not depend on the union rule: every rule and
    # compaction over the batch's root space links the same edges.
    index = make_index(32)
    rng = np.random.default_rng(5)
    us = rng.integers(0, 32, size=64, dtype=np.int64)
    vs = rng.integers(0, 32, size=64, dtype=np.int64)
    linked = index._union_roots(us, vs)
    roots = index.forest.findroot_batch(np.concatenate([us, vs]))
    ids, ends = np.unique(roots, return_inverse=True)
    for rule in UNION_RULES:
        for comp in COMPACTION_RULES:
            uf = UnionFind(ids.size, union_rule=rule, compaction=comp)
            mask = uf.union_arcs(ends[:us.size], ends[us.size:], pre_resolved=True)
            np.testing.assert_array_equal(mask, linked, err_msg=f"{rule}/{comp}")
            assert uf.counters.hooks == int(linked.sum())


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    edges=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=60),
)
def test_hypothesis_insert_batch_matches_sequential(n, edges):
    us = np.array([u % n for u, _ in edges], dtype=np.int64)
    vs = np.array([v % n for _, v in edges], dtype=np.int64)
    batched = rep_index(n)
    sequential = make_index(n)
    linked = batched._union_roots(us, vs)
    ref_linked = sequential_reference(sequential, us, vs)
    np.testing.assert_array_equal(linked, ref_linked)
    batched.apply_batch(inserts(n, us, vs))
    assert batched.stats.tree_links == int(ref_linked.sum())
    np.testing.assert_array_equal(forest_labels(batched), forest_labels(sequential))
