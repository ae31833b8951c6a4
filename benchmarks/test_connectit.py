"""Gates: sample-finish connectivity kernels (repro.connectit).

* the sampled composition (k-out + rank/halving) on an R-MAT scale-16
  graph gives the Shiloach–Vishkin labels with at least 3x fewer union
  attempts;
* the unsampled finish (default rank/halving, every arc through
  :meth:`UnionFind.union_arcs`) against the per-pair :meth:`UnionFind.union`
  loop: identical forests and counters, and the best of three batches at
  least 2x faster than one loop (both run on the same buffers; the batch
  body keeps its counters in locals, calls nothing and counts an arc
  already settled under one root instead of executing it: 3-4x);
* the :meth:`ConnectivityIndex.insert_batch` union-find fast path makes
  the same link decisions as the sequential :meth:`LinkCutForest.add_edge`
  loop.
"""

import numpy as np

from benchmarks.conftest import best_of
from repro.adjacency.csr import build_csr
from repro.connectit import ConnectItSpec, UnionFind, connect_components
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.generators.rmat import rmat_graph

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


def test_connectit_insert_batch():
    graph = rmat_graph(12, 4, seed=SEED)
    csr = build_csr(graph)
    rng = np.random.default_rng(SEED)
    k = 20_000
    us = rng.integers(0, graph.n, size=k, dtype=np.int64)
    vs = rng.integers(0, graph.n, size=k, dtype=np.int64)

    seq_forest = ConnectivityIndex.from_csr(csr).forest
    seq_linked = np.array([seq_forest.add_edge(int(u), int(v)) for u, v in zip(us, vs)])
    result = ConnectivityIndex.from_csr(csr).insert_batch(us, vs)

    np.testing.assert_array_equal(seq_linked, result.linked)
