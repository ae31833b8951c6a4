"""Gates: sample-finish connectivity kernels (repro.connectit).

* the sampled composition (k-out + rank/halving) on an R-MAT scale-16
  graph gives the Shiloach–Vishkin labels with at least 3x fewer union
  attempts;
* the unsampled finish (default rank/halving, every arc through
  :meth:`UnionFind.union_arcs`) against the per-pair :meth:`UnionFind.union`
  loop: identical forests and counters, and the best of three batches at
  least 2x faster than one loop (both run on the same buffers; the batch
  body keeps its counters in locals, calls nothing and counts an arc
  already settled under one root instead of executing it, and the
  settled-arc mask keeps most such arcs out of the interpreter: 17-20x);
* the settled-arc mask: the unsampled baseline
  (``ConnectItSpec(sampling="none")``) against the same finish
  arcs sent through one call of the loop body with nothing watched (so
  every arc is run by the interpreter): equal labels and counters, and the
  best of three at least 2x faster (4.0-4.5x measured);
* the mask's cost rule: the k-out sample (2 arcs per vertex, few of
  them settled) through :meth:`UnionFind.union_arcs` against one call of
  the loop body with nothing watched: equal counters, and the median of
  three alternated rounds at most 1.5x the body's.  Its blocks hold a
  minority of settled arcs, so each runs whole and the two are at parity
  (0.77-1.24x over 12 trials on 2 vCPUs); before the rule every hook of a
  watched root re-masked the block, 378 restarts here, 1.97-2.79x;
* the default's level bound: on a 2^14-vertex path the default
  (``bfs+rank/halving``, its BFS sample cut after 28 levels) against the
  unsampled baseline, equal labels and the median of five interleaved
  rounds at most 1.5x the baseline's (0.97-1.07x measured; an unbounded
  sample expands one level per vertex, 18-30x);
* the batched insert path of :meth:`ConnectivityIndex.apply_batch` (one
  union-find over root space, then a link per winning edge) makes the same
  link decisions as the sequential :meth:`LinkCutForest.add_edge` loop, in
  the best of three at least 2x faster than it (5-6x measured).
"""

from statistics import median

import numpy as np

from benchmarks.conftest import best_of
from repro.adjacency.csr import build_csr
from repro.api import DynamicGraph
from repro import kernels
from repro.connectit import ConnectItSpec, UnionFind, WorkCounters, connect_components
from repro.connectit.framework import _finish_arcs
from repro.connectit.sampling import _kout_arcs
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.edgelist import EdgeList
from repro.generators.rmat import rmat_graph
from repro.generators.streams import UpdateStream
from repro.kernels import loops

SCALE = 16
EDGE_FACTOR = 10
SEED = 31
#: The k-out sample through ``union_arcs`` over one body call: parity is
#: what the mask's cost rule buys, and the box's noise spreads it by a
#: quarter either way; the restart pathology read 2x and more.
KOUT_MASK_RATIO = 1.5


def test_connectit_sampled_components():
    csr = build_csr(rmat_graph(SCALE, EDGE_FACTOR, seed=SEED))
    sv = connected_components(csr)
    result = connect_components(
        csr, ConnectItSpec(sampling="kout", union_rule="rank", compaction="halving")
    )

    np.testing.assert_array_equal(result.labels, sv.labels)
    reduction = sv.arcs_processed / max(1, result.counters.unions)
    assert reduction >= 3.0, (
        f"sampled composition did {result.counters.unions} union attempts vs "
        f"SV's {sv.arcs_processed} hook attempts ({reduction:.1f}x < 3x gate)"
    )


def test_connectit_unsampled_finish():
    csr = build_csr(rmat_graph(SCALE, EDGE_FACTOR, seed=SEED))
    src = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    dst = csr.targets

    ref = UnionFind(csr.n)
    loop_seconds, ref_linked = best_of(
        lambda: [ref.union(u, v) for u, v in zip(src.tolist(), dst.tolist())], 1
    )

    def batch():
        uf = UnionFind(csr.n)
        return uf, uf.union_arcs(src, dst)

    batch_seconds, (uf, linked) = best_of(batch, 3)

    assert linked.tolist() == ref_linked
    np.testing.assert_array_equal(uf.parent, ref.parent)
    np.testing.assert_array_equal(uf.rank, ref.rank)
    assert uf.counters == ref.counters
    speedup = loop_seconds / batch_seconds
    assert speedup >= 2.0, f"union_arcs {speedup:.2f}x the speed of the union loop (floor 2x)"


def test_connectit_settled_filter():
    csr = build_csr(rmat_graph(SCALE, EDGE_FACTOR, seed=SEED))

    def one_body():
        uf = UnionFind(csr.n)
        fsrc, fdst = _finish_arcs(csr, uf)
        c = [0] * 5
        loops.union_arcs(
            uf._parent, uf._rank, uf._size, fsrc.tolist(), fdst.tolist(),
            kernels.RULE_CODES["rank"], kernels.COMP_CODES["halving"],
            bytearray(fsrc.size), False, bytearray(csr.n), c,
        )
        return uf.components(), WorkCounters(*c)

    body_seconds, (labels, counters) = best_of(one_body, 3)
    masked_seconds, result = best_of(
        lambda: connect_components(csr, ConnectItSpec(sampling="none")), 3
    )

    np.testing.assert_array_equal(result.labels, labels)
    assert result.counters == counters
    speedup = body_seconds / masked_seconds
    assert speedup >= 2.0, f"settled-arc mask {speedup:.2f}x one body call (floor 2x)"


def test_connectit_kout_sample_masking_pays():
    csr = build_csr(rmat_graph(SCALE, EDGE_FACTOR, seed=SEED))
    src, dst = _kout_arcs(csr, 2)

    def one_body():
        uf = UnionFind(csr.n)
        c = [0] * 5
        loops.union_arcs(
            uf._parent, uf._rank, uf._size, src.tolist(), dst.tolist(),
            kernels.RULE_CODES["rank"], kernels.COMP_CODES["halving"],
            bytearray(src.size), False, None, c,
        )
        return uf, WorkCounters(*c)

    def masked():
        uf = UnionFind(csr.n)
        uf.union_arcs(src, dst)
        return uf, uf.counters

    body_seconds, masked_seconds = [], []
    for _ in range(3):  # alternated, so drift lands on both sides
        seconds, (ref, ref_counters) = best_of(one_body, 1)
        body_seconds.append(seconds)
        seconds, (uf, counters) = best_of(masked, 1)
        masked_seconds.append(seconds)

    assert counters == ref_counters
    np.testing.assert_array_equal(uf.parent, ref.parent)
    np.testing.assert_array_equal(uf.rank, ref.rank)
    ratio = median(masked_seconds) / median(body_seconds)
    assert ratio <= KOUT_MASK_RATIO, (
        f"union_arcs over the k-out sample {ratio:.2f}x one body call "
        f"(bound {KOUT_MASK_RATIO}x; {uf.restarts} restarts)"
    )


def test_connectit_default_on_a_path():
    n = 1 << 14
    csr = build_csr(
        EdgeList(n, np.arange(n - 1, dtype=np.int64), np.arange(1, n, dtype=np.int64))
    )
    default_seconds, unsampled_seconds = [], []
    for _ in range(5):  # interleaved, so drift lands on both sides
        seconds, result = best_of(lambda: connect_components(csr), 1)
        default_seconds.append(seconds)
        seconds, baseline = best_of(
            lambda: connect_components(csr, ConnectItSpec(sampling="none")), 1
        )
        unsampled_seconds.append(seconds)

    np.testing.assert_array_equal(result.labels, baseline.labels)
    assert result.sample.meta["bfs_cut"]
    ratio = median(default_seconds) / median(unsampled_seconds)
    assert ratio <= 1.5, f"the default on a path {ratio:.2f}x the unsampled baseline (bound 1.5x)"


def test_connectit_insert_batch():
    graph = rmat_graph(12, 4, seed=SEED)
    csr = build_csr(graph)
    rng = np.random.default_rng(SEED)
    k = 20_000
    us = rng.integers(0, graph.n, size=k, dtype=np.int64)
    vs = rng.integers(0, graph.n, size=k, dtype=np.int64)

    forests = iter([ConnectivityIndex.from_csr(csr).forest for _ in range(3)])
    indexes = iter([ConnectivityIndex.from_csr(csr) for _ in range(3)])

    def sequential():
        forest = next(forests)
        return np.array([forest.add_edge(int(u), int(v)) for u, v in zip(us, vs)]), forest

    def batched():
        index = next(indexes)
        linked = index._union_roots(us, vs)
        for i in np.flatnonzero(linked).tolist():
            index.forest.add_edge(int(us[i]), int(vs[i]))
        return linked, index.forest

    seq_seconds, (seq_linked, seq_forest) = best_of(sequential, 3)
    batch_seconds, (linked, forest) = best_of(batched, 3)

    np.testing.assert_array_equal(seq_linked, linked)
    np.testing.assert_array_equal(seq_forest.parent, forest.parent)
    index = ConnectivityIndex.from_rep(DynamicGraph.from_edgelist(graph, seed=1).rep)
    index.apply_batch(UpdateStream(graph.n, np.ones(k, dtype=np.int8), us, vs, np.zeros(k)))
    assert index.stats.tree_links == int(seq_linked.sum())
    speedup = seq_seconds / batch_seconds
    assert speedup >= 2.0, f"batched inserts {speedup:.2f}x the add_edge loop (floor 2x)"
