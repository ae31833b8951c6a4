"""The process backend's contract: bit-identical results to serial.

Swept across every registered adjacency representation (the snapshot each
produces is the graph the kernels see), several seeds, worker counts and
the time-stamp-filtered BFS variant; cross-checked against networkx where a
reference is cheap.  A hypothesis sweep feeds arbitrary small edge lists
through both backends.
"""

from contextlib import nullcontext

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.csr import build_csr, csr_from_arrays
from repro.adjacency.registry import REPRESENTATIONS, make_representation
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.core.update_engine import construct
from repro.generators.rmat import rmat_graph
from repro.generators.reference import to_networkx
from repro.parallel.bfs import parallel_bfs
from repro.parallel.components import parallel_connected_components
from repro.parallel.queries import _queries_connected, parallel_query_batch
from repro.core.linkcut import LinkCutForest
from repro.parallel.pool import WorkerPool
from tests.core.bfs_oracle import assert_bfs_equal, unique_commit_bfs

KINDS = sorted(REPRESENTATIONS)


def build_rep(kind, n):
    if kind == "dynarr-nr":
        return make_representation(kind, n, degrees=np.full(n, 512))
    if kind == "hybrid":
        return make_representation(kind, n, degree_thresh=4, seed=1)
    if kind == "treap":
        return make_representation(kind, n, seed=1)
    return make_representation(kind, n)


@pytest.mark.parametrize("kind", KINDS)
def test_bfs_and_components_identical_across_representations(kind, pool):
    graph = rmat_graph(8, 8, seed=31, ts_range=(1, 50))
    rep = build_rep(kind, graph.n)
    construct(rep, graph)
    csr = rep.to_csr()

    source = int(np.argmax(csr.degrees()))
    assert_bfs_equal(bfs(csr, source), parallel_bfs(csr, source, pool))

    serial_cc = connected_components(csr)
    par_cc = parallel_connected_components(csr, pool)
    np.testing.assert_array_equal(serial_cc.labels, par_cc.labels)
    assert serial_cc.n_passes == par_cc.n_passes
    assert serial_cc.jump_rounds == par_cc.jump_rounds
    assert serial_cc.arcs_processed == par_cc.arcs_processed


@pytest.mark.parametrize("seed", [3, 17, 92])
def test_bfs_seed_sweep(seed, pool):
    csr = build_csr(rmat_graph(9, 8, seed=seed))
    for source in (0, csr.n // 2):
        assert_bfs_equal(bfs(csr, source), parallel_bfs(csr, source, pool))


@pytest.mark.parametrize("seed", [3, 17])
def test_bfs_ts_filtered(seed, pool):
    csr = build_csr(rmat_graph(9, 8, seed=seed, ts_range=(1, 100)))
    for ts_range in ((1, 100), (10, 40)):
        assert_bfs_equal(
            bfs(csr, 0, ts_range=ts_range),
            parallel_bfs(csr, 0, pool, ts_range=ts_range),
        )


def test_bfs_inline_threshold_sweep(pool):
    # Any small-level inline threshold yields the same traversal.
    csr = build_csr(rmat_graph(9, 8, seed=5))
    serial = bfs(csr, 0)
    for thresh in (0, 64, 10**9):
        assert_bfs_equal(serial, parallel_bfs(csr, 0, pool, small_level_edges=thresh))
    # Truncated traversals stop at the same level with every level fanned out.
    for max_levels in (0, 1, 2):
        assert_bfs_equal(
            bfs(csr, 0, max_levels=max_levels),
            parallel_bfs(csr, 0, pool, max_levels=max_levels, small_level_edges=0),
        )


@pytest.mark.parametrize("workers", [2, 3])
def test_bfs_vertex_first_reached_from_two_chunks(workers, pool):
    # 0 fans out to 1..6; every one of those reaches the shared vertex 7 and
    # a private leaf.  With every level fanned out, each chunk of level 1
    # ships 7 as one of its first discoveries: the earliest chunk must win,
    # as the serial gather order has it.
    mid = np.arange(1, 7)
    src = np.concatenate([np.zeros(6, dtype=np.int64), mid, mid])
    dst = np.concatenate([mid, np.full(6, 7), mid + 7])
    csr = csr_from_arrays(14, np.concatenate([src, dst]), np.concatenate([dst, src]))
    serial = bfs(csr, 0)
    assert serial.parent[7] == 1
    assert_bfs_equal(unique_commit_bfs(csr, 0), serial)
    shared = workers == pool.workers  # the session pool must outlive this test
    with nullcontext(pool) if shared else WorkerPool(workers, timeout=120.0) as p:
        fragments = []
        par = parallel_bfs(csr, 0, p, small_level_edges=0, fragments_out=fragments)
    assert_bfs_equal(serial, par)
    assert len(fragments[1]) == workers and all(f["edges"] for f in fragments[1])


def test_components_match_networkx(pool):
    graph = rmat_graph(8, 8, seed=7)
    csr = build_csr(graph)
    par = parallel_connected_components(csr, pool)
    # to_networkx keeps all n nodes, so isolated vertices count as components
    expected = nx.number_connected_components(to_networkx(graph))
    assert par.n_components == expected


def test_query_batch_identical(pool):
    graph = rmat_graph(9, 8, seed=11)
    csr = build_csr(graph)
    forest, _ = LinkCutForest.from_csr(csr)
    rng = np.random.default_rng(2)
    us = rng.integers(0, csr.n, size=5000, dtype=np.int64)
    vs = rng.integers(0, csr.n, size=5000, dtype=np.int64)

    hops_before = forest.hops
    serial = forest.connected_batch(us, vs)
    serial_hops = forest.hops - hops_before
    answers, hops = parallel_query_batch(forest, us, vs, pool)
    np.testing.assert_array_equal(serial, answers)
    assert hops == serial_hops


def test_query_task_matches_the_serial_batch():
    # The worker side of the contract, in process: one task over a slice
    # answers and counts what the serial batch does for those pairs.
    forest, _ = LinkCutForest.from_csr(build_csr(rmat_graph(7, 8, seed=11)))
    ends = np.arange(forest.n, dtype=np.int64)
    views = {"parent": forest.parent, "us": ends, "vs": ends[::-1].copy()}
    lo, hi = 5, forest.n - 3
    out = _queries_connected(views, {"lo": lo, "hi": hi})
    before = forest.hops
    np.testing.assert_array_equal(
        out["connected"], forest.connected_batch(views["us"][lo:hi], views["vs"][lo:hi])
    )
    assert out["hops"] == forest.hops - before


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    edges=st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23)), min_size=0, max_size=60
    ),
    source=st.integers(0, 23),
)
def test_property_random_graphs(n, edges, source, pool):
    src = np.array([u % n for u, _ in edges], dtype=np.int64)
    dst = np.array([v % n for _, v in edges], dtype=np.int64)
    csr = csr_from_arrays(n, src, dst)
    source %= n

    assert_bfs_equal(bfs(csr, source), parallel_bfs(csr, source, pool))
    serial_cc = connected_components(csr)
    par_cc = parallel_connected_components(csr, pool)
    np.testing.assert_array_equal(serial_cc.labels, par_cc.labels)
