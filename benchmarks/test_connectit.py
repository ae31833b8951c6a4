"""Benchmark: sample-finish connectivity kernels (repro.connectit).

Three gated kernels:

* the sampled composition (k-out + rank/halving) on an R-MAT scale-16
  graph, asserting label identity with the Shiloach–Vishkin kernel and the
  >= 3x union-work reduction the ablation gate requires;
* the unsampled finish (default rank/halving, every arc through
  :meth:`UnionFind.union_arcs`) against the per-pair :meth:`UnionFind.union`
  loop, asserting identical forests and counters and that the batch is at
  least 2x faster (both run on the same buffers; the batch body keeps its
  counters in locals, calls nothing and counts an arc already settled
  under one root instead of executing it: 3-4x);
* the :meth:`ConnectivityIndex.insert_batch` union-find fast path against
  the sequential :meth:`insert_edge` loop, asserting identical link
  decisions.
"""

import time

import numpy as np

from repro.adjacency.csr import build_csr
from repro.connectit import ConnectItSpec, UnionFind, connect_components
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.generators.rmat import rmat_graph

SCALE = 16
EDGE_FACTOR = 10
SEED = 31


def test_connectit_sampled_components(benchmark):
    csr = build_csr(rmat_graph(SCALE, EDGE_FACTOR, seed=SEED))
    sv = connected_components(csr)
    spec = ConnectItSpec(sampling="kout", union_rule="rank", compaction="halving")

    result = benchmark.pedantic(
        lambda: connect_components(csr, spec), rounds=3, iterations=1, warmup_rounds=0
    )

    np.testing.assert_array_equal(result.labels, sv.labels)
    reduction = sv.arcs_processed / max(1, result.counters.unions)
    assert reduction >= 3.0, (
        f"sampled composition did {result.counters.unions} union attempts vs "
        f"SV's {sv.arcs_processed} hook attempts ({reduction:.1f}x < 3x gate)"
    )
    benchmark.extra_info["variant"] = spec.name
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["sv_union_attempts"] = int(sv.arcs_processed)
    benchmark.extra_info["sampled_union_attempts"] = int(result.counters.unions)
    benchmark.extra_info["reduction_vs_sv"] = round(reduction, 1)
    benchmark.extra_info["giant_fraction"] = round(result.sample.giant_fraction, 4)
    benchmark.extra_info["identical"] = True


def test_connectit_unsampled_finish(benchmark):
    csr = build_csr(rmat_graph(SCALE, EDGE_FACTOR, seed=SEED))
    src = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    dst = csr.targets

    ref = UnionFind(csr.n)
    t0 = time.perf_counter()
    ref_linked = [ref.union(u, v) for u, v in zip(src.tolist(), dst.tolist())]
    loop_seconds = time.perf_counter() - t0

    def batch():
        uf = UnionFind(csr.n)
        return uf, uf.union_arcs(src, dst)

    uf, linked = benchmark.pedantic(batch, rounds=3, iterations=1, warmup_rounds=0)

    assert linked.tolist() == ref_linked
    np.testing.assert_array_equal(uf.parent, ref.parent)
    np.testing.assert_array_equal(uf.rank, ref.rank)
    assert uf.counters == ref.counters
    speedup = loop_seconds / float(benchmark.stats.stats.min)
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["arcs"] = int(src.size)
    benchmark.extra_info["per_pair_seconds"] = round(loop_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["identical"] = True
    assert speedup >= 2.0, f"union_arcs {speedup:.2f}x the speed of the union loop (floor 2x)"


def test_connectit_insert_batch(benchmark):
    graph = rmat_graph(12, 4, seed=SEED)
    csr = build_csr(graph)
    rng = np.random.default_rng(SEED)
    k = 20_000
    us = rng.integers(0, graph.n, size=k, dtype=np.int64)
    vs = rng.integers(0, graph.n, size=k, dtype=np.int64)

    seq_index = ConnectivityIndex.from_csr(csr)
    t0 = time.perf_counter()
    seq_linked = np.array([seq_index.insert_edge(int(u), int(v)) for u, v in zip(us, vs)])
    seq_seconds = time.perf_counter() - t0

    def batch():
        return ConnectivityIndex.from_csr(csr).insert_batch(us, vs)

    result = benchmark.pedantic(batch, rounds=3, iterations=1, warmup_rounds=0)

    np.testing.assert_array_equal(seq_linked, result.linked)
    benchmark.extra_info["n_edges"] = k
    benchmark.extra_info["n_links"] = int(result.n_links)
    benchmark.extra_info["sequential_seconds"] = round(seq_seconds, 6)
    benchmark.extra_info["identical"] = True
