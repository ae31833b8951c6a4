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
* the settled-arc mask: ``connect_components`` against the same finish
  arcs sent through one call of the loop body with nothing watched (so
  every arc is run by the interpreter): equal labels and counters, and the
  best of three at least 2x faster (4.0-4.5x measured);
* the batched insert path of :meth:`ConnectivityIndex.apply_batch` (one
  union-find over root space, then a link per winning edge) makes the same
  link decisions as the sequential :meth:`LinkCutForest.add_edge` loop, in
  the best of three at least 2x faster than it (5-6x measured).
"""

import numpy as np

from benchmarks.conftest import best_of
from repro.adjacency.csr import build_csr
from repro.api import DynamicGraph
from repro import kernels
from repro.connectit import ConnectItSpec, UnionFind, WorkCounters, connect_components
from repro.connectit.framework import _finish_arcs
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.generators.rmat import rmat_graph
from repro.generators.streams import UpdateStream
from repro.kernels import loops

SCALE = 16
EDGE_FACTOR = 10
SEED = 31


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
    masked_seconds, result = best_of(lambda: connect_components(csr), 3)

    np.testing.assert_array_equal(result.labels, labels)
    assert result.counters == counters
    speedup = body_seconds / masked_seconds
    assert speedup >= 2.0, f"settled-arc mask {speedup:.2f}x one body call (floor 2x)"


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
