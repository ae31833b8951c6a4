"""``ConnectivityIndex.insert_batch`` must match sequential ``add_edge``.

The fast path routes a whole edge batch through one union-find over root
space; its contract is that the i-th batched union succeeds exactly when
the i-th sequential ``LinkCutForest.add_edge`` would have linked, so the
resulting forest partitions (and the per-edge ``linked`` mask) are identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.csr import build_csr
from repro.core.connectivity import BatchInsertResult, ConnectivityIndex
from repro.core.linkcut import LinkCutForest
from repro.errors import GraphError
from repro.generators.rmat import rmat_graph


def make_index(n: int) -> ConnectivityIndex:
    return ConnectivityIndex(LinkCutForest(n))


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
    result = batched.insert_batch(us, vs)
    ref_linked = sequential_reference(sequential, us, vs)

    assert isinstance(result, BatchInsertResult)
    np.testing.assert_array_equal(result.linked, ref_linked)
    np.testing.assert_array_equal(forest_labels(batched), forest_labels(sequential))
    assert result.n_links == int(ref_linked.sum())
    assert result.n_skipped == len(us) - result.n_links


def test_insert_batch_empty():
    index = make_index(16)
    empty = np.array([], dtype=np.int64)
    result = index.insert_batch(empty, empty)
    assert result.n_links == 0 and result.n_skipped == 0
    assert result.linked.size == 0


def test_insert_batch_self_loops_and_duplicates():
    index = make_index(4)
    us = np.array([0, 0, 0, 1, 2], dtype=np.int64)
    vs = np.array([0, 1, 1, 0, 3], dtype=np.int64)
    result = index.insert_batch(us, vs)
    assert result.linked.tolist() == [False, True, False, False, True]
    assert index.forest.n_trees() == 2


def test_insert_batch_validates_input():
    index = make_index(8)
    with pytest.raises(GraphError):
        index.insert_batch(np.array([0, 1]), np.array([1]))
    with pytest.raises(GraphError):
        index.insert_batch(np.array([[0]]), np.array([[1]]))


def test_insert_batch_profile_and_meta():
    index = make_index(32)
    rng = np.random.default_rng(5)
    us = rng.integers(0, 32, size=64, dtype=np.int64)
    vs = rng.integers(0, 32, size=64, dtype=np.int64)
    result = index.insert_batch(us, vs, union_rule="rem", compaction="splitting")
    prof = result.profile
    assert prof.phases[0].name == "insert-batch"
    assert prof.meta["counters"]["unions"] >= result.n_links
    assert prof.meta["union_rule"] == "rem"
    assert prof.meta["n_edges"] == 64


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    edges=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=60),
)
def test_hypothesis_insert_batch_matches_sequential(n, edges):
    us = np.array([u % n for u, _ in edges], dtype=np.int64)
    vs = np.array([v % n for _, v in edges], dtype=np.int64)
    batched = make_index(n)
    sequential = make_index(n)
    result = batched.insert_batch(us, vs)
    ref_linked = sequential_reference(sequential, us, vs)
    np.testing.assert_array_equal(result.linked, ref_linked)
    np.testing.assert_array_equal(forest_labels(batched), forest_labels(sequential))
