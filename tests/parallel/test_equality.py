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
from repro.edgelist import EdgeList
from repro.generators.rmat import rmat_graph
from repro.generators.reference import to_networkx
from repro.parallel.bfs import parallel_bfs
from repro.parallel.components import parallel_connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.obs import METRICS
from repro.parallel.backend import ProcessBackend
from repro.parallel.partition import range_chunks, weighted_chunks
from repro.parallel.pool import WorkerPool
from tests.core.bfs_oracle import assert_bfs_equal, unique_commit_bfs

KINDS = sorted(REPRESENTATIONS)


def dispatched(run):
    """``run()``'s result and the pool tasks it dispatched."""
    before = METRICS.counter("parallel.pool.tasks_dispatched").value
    out = run()
    return out, METRICS.counter("parallel.pool.tasks_dispatched").value - before


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
        par = parallel_bfs(csr, 0, p, small_level_edges=0)
        _, one = dispatched(lambda: parallel_bfs(csr, 0, p, max_levels=1, small_level_edges=0))
        _, two = dispatched(lambda: parallel_bfs(csr, 0, p, max_levels=2, small_level_edges=0))
    assert_bfs_equal(serial, par)
    # Level 0 is one vertex, one task; level 1 fans out over every worker.
    assert (one, two - one) == (1, workers)


def test_components_match_networkx(pool):
    graph = rmat_graph(8, 8, seed=7)
    csr = build_csr(graph)
    par = parallel_connected_components(csr, pool)
    # to_networkx keeps all n nodes, so isolated vertices count as components
    expected = nx.number_connected_components(to_networkx(graph))
    assert par.n_components == expected


def hub_split_graphs():
    """A hub (vertex 5) whose row is 0, the leaves 6..39, then 3; the edge
    40-41; the rest isolated.  Stamped symmetric and not."""
    leaves = np.arange(6, 40)
    src = np.concatenate([[5], np.full(leaves.size, 5), [5, 40]])
    dst = np.concatenate([[0], leaves, [3, 41]])
    stamped = build_csr(EdgeList(43, src, dst))
    unstamped = csr_from_arrays(43, np.concatenate([src, dst]), np.concatenate([dst, src]))
    return stamped, unstamped


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_components_hub_row_split_across_chunks(workers, pool):
    # At 2 and 3 workers a chunk edge falls inside the hub's row: the hub
    # gets 0 from the first chunk and 3 from the last, and only the
    # parent's min keeps 0 (keeping 3 takes an extra pass).
    for csr in hub_split_graphs():
        hub_lo, hub_hi = int(csr.offsets[5]), int(csr.offsets[6])
        assert csr.targets[hub_lo] == 0 and csr.targets[hub_hi - 1] == 3
        chunks = range_chunks(csr.n_arcs, workers)
        assert len(chunks) == workers
        assert any(hub_lo < lo < hub_hi for lo, _ in chunks[1:]) == (workers > 1)
        serial = connected_components(csr)
        shared = workers == pool.workers  # the session pool must outlive this test
        with nullcontext(pool) if shared else WorkerPool(workers, timeout=120.0) as p:
            par, tasks = dispatched(lambda: parallel_connected_components(csr, p))
        np.testing.assert_array_equal(par.labels, serial.labels)
        assert par.labels.dtype == serial.labels.dtype
        assert (par.n_passes, par.jump_rounds, par.arcs_processed) == (
            serial.n_passes, serial.jump_rounds, serial.arcs_processed)
        assert par.roots().tolist() == [0, 1, 2, 4, 40, 42]
        assert tasks == par.n_passes * workers  # every pass fans out


def connectivity_counters():
    snap = METRICS.snapshot()["counters"]
    return {k: v for k, v in snap.items() if "connectivity." in k}


def assert_process_queries_equal_serial(index, us, vs, be):
    """``query_batch(backend=be)`` answers, counts hops and ticks the
    ``connectivity.*`` counters as the serial batch does, and submits no
    pool task."""
    METRICS.reset()
    serial = index.query_batch(us, vs)
    want = connectivity_counters()
    METRICS.reset()
    got = index.query_batch(us, vs, backend=be)
    np.testing.assert_array_equal(got.connected, serial.connected)
    assert got.total_hops == serial.total_hops
    assert connectivity_counters() == want
    assert want["connectivity.queries"] == us.size
    assert want["connectivity.hops"] == serial.total_hops
    assert METRICS.counter("parallel.pool.tasks_dispatched").value == 0


def test_query_batch_identical():
    index = ConnectivityIndex.from_csr(build_csr(rmat_graph(9, 8, seed=11)))
    rng = np.random.default_rng(2)
    with ProcessBackend(2) as be:
        be.pool.start()  # a running pool still gets no query task
        for k in (5000, 100):  # resolved, chased
            us, vs = rng.integers(0, index.n, size=(2, k))
            assert index.forest.resolves(k) == (k == 5000)
            assert_process_queries_equal_serial(index, us, vs, be)


def test_query_task_matches_the_serial_batch():
    # A query batch labelled with a pool is answered in this process: a
    # slice of a batch answers and counts what the forest's own batch does,
    # and the pool is never started.
    index = ConnectivityIndex.from_csr(build_csr(rmat_graph(7, 8, seed=11)))
    forest = index.forest
    ends = np.arange(forest.n, dtype=np.int64)
    us, vs = ends, ends[::-1].copy()
    lo, hi = 5, forest.n - 3
    METRICS.reset()
    with ProcessBackend(2) as be:
        got = index.query_batch(us[lo:hi], vs[lo:hi], backend=be)
        assert not be.pool._started
    before = forest.hops
    want = forest.connected_batch(us[lo:hi], vs[lo:hi])
    want_hops = forest.hops - before
    np.testing.assert_array_equal(got.connected, want)
    assert got.total_hops == want_hops > 0
    assert METRICS.counter("parallel.pool.tasks_dispatched").value == 0


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


@pytest.mark.parametrize("name", ["rmat-3", "rmat-sparse", "path", "star", "grid", "multigraph"])
def test_pull_levels_match_the_oracle(name, pool):
    # Every top-down level fanned out; bottom-up levels run in the parent.
    from tests.core.test_pull import GRAPHS, sources

    csr = GRAPHS[name]()
    for source in sources(csr):
        for max_levels in (None, 1):
            par = parallel_bfs(csr, source, pool, max_levels=max_levels, small_level_edges=0)
            assert_bfs_equal(unique_commit_bfs(csr, source, max_levels=max_levels), par)
            assert par.arcs_touched == bfs(csr, source, max_levels=max_levels).arcs_touched


def test_one_fragment_per_level_pull_levels_marked(pool):
    csr = build_csr(rmat_graph(10, 8, seed=3, ts_range=(1, 100)))
    source = int(np.argmax(csr.degrees()))
    degrees = csr.degrees()

    def expected_tasks(res, pulls):
        """One task per weighted chunk of each top-down level; none for a pull."""
        remaining = csr.n_arcs - np.cumsum(res.edges_scanned)
        return sum(
            0 if pulls and total > left
            else len(weighted_chunks(degrees[res.dist == level], pool.workers))
            for level, (total, left) in enumerate(zip(res.edges_scanned, remaining))
        )

    par, tasks = dispatched(lambda: parallel_bfs(csr, source, pool, small_level_edges=0))
    assert par.arcs_touched < par.total_edges_scanned
    # Every level here scans arcs, so each ran a step (the last reaches nothing).
    assert all(par.edges_scanned)
    assert tasks == expected_tasks(par, pulls=True) < expected_tasks(par, pulls=False)
    # A time-stamp filter never pulls.
    filt, tasks = dispatched(
        lambda: parallel_bfs(csr, source, pool, ts_range=(1, 100), small_level_edges=0)
    )
    assert filt.arcs_touched == filt.total_edges_scanned
    assert tasks == expected_tasks(filt, pulls=False)
