"""Host-level microbenchmarks of the real kernels.

Unlike the figure benchmarks (which time whole reproduction experiments),
these time the actual Python/numpy kernels on this machine: structural
update throughput per representation, BFS/components edge rates, link-cut
query rates.  Useful for tracking real-code regressions independent of the
machine simulation.
"""

from dataclasses import asdict

import numpy as np
import pytest

from benchmarks.conftest import best_of
from repro.adjacency import bulkops
from repro.adjacency.csr import build_csr
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.registry import make_representation
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.core.betweenness import temporal_betweenness
from repro.core.induced import induced_subgraph
from repro.core.update_engine import _arc_stream, apply_stream, construct
from repro.generators.parallel import iter_update_chunks
from repro.generators.reference import path_graph
from repro.generators.rmat import rmat_graph
from repro.generators.streams import deletion_stream, mixed_stream
from tests.core.bfs_oracle import assert_bfs_equal, unique_commit_bfs

SCALE = 12
GRAPH = rmat_graph(SCALE, 8, seed=77, ts_range=(1, 100))
CSR = build_csr(GRAPH)


@pytest.mark.parametrize("kind", ["dynarr", "treap", "hybrid", "batched"])
def test_host_construction(benchmark, kind):
    def run():
        rep = make_representation(
            kind, GRAPH.n, **({"seed": 1} if kind in ("treap", "hybrid") else {})
        )
        construct(rep, GRAPH)
        return rep

    rep = benchmark(run)
    assert rep.n_arcs == 2 * GRAPH.m
    benchmark.extra_info["host_mups"] = round(GRAPH.m / benchmark.stats["mean"] / 1e6, 3)


@pytest.mark.parametrize("kind", ["dynarr", "hybrid"])
def test_host_deletions(benchmark, kind):
    dels = deletion_stream(GRAPH, GRAPH.m // 10, seed=3)

    def setup():
        rep = make_representation(
            kind, GRAPH.n, **({"seed": 1} if kind == "hybrid" else {})
        )
        construct(rep, GRAPH)
        return (rep,), {}

    def run(rep):
        return apply_stream(rep, dels)

    res = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert res.misses == 0


def test_host_mixed_updates(benchmark):
    stream = mixed_stream(GRAPH, 5000, 0.75, seed=4)

    def setup():
        rep = make_representation("hybrid", GRAPH.n, seed=1)
        construct(rep, GRAPH)
        return (rep,), {}

    benchmark.pedantic(lambda rep: apply_stream(rep, stream), setup=setup,
                       rounds=3, iterations=1)


def _argsort_order(keys, bound):
    """The stable argsort + gather ``bulkops.stable_order`` replaced: the oracle."""
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def test_host_semisort(benchmark, monkeypatch):
    """Packed-key semisort vs stable argsort + gather on one construction chunk.

    One scale-17 ``iter_update_chunks`` chunk, 65 536 edges = 131 072 arc
    sources, the unit the ``batch_insert`` workload applies 16 times.  Both
    sides are timed here, one after the other, so the ratio holds on any
    box (the floor leaves room for a numpy without the SIMD sort).
    """
    chunk = next(iter_update_chunks(17, edge_factor=8, seed=77, chunk_edges=65536))
    _, src, dst, ts = _arc_stream(chunk, True)
    assert src.size == 131_072

    order, sorted_keys = benchmark(lambda: bulkops.stable_order(src, chunk.n))
    want_order, want_keys = _argsort_order(src, chunk.n)
    assert np.array_equal(order, want_order) and np.array_equal(sorted_keys, want_keys)
    oracle_s, _ = best_of(lambda: _argsort_order(src, chunk.n), 15)
    shipped_s, _ = best_of(lambda: bulkops.stable_order(src, chunk.n), 15)
    ratio = oracle_s / shipped_s
    benchmark.extra_info["speedup_vs_stable_argsort"] = round(ratio, 2)
    assert ratio >= 2.0, f"semisort only {ratio:.2f}x the stable argsort (floor 2.0x)"

    shipped = DynArrAdjacency(chunk.n)
    shipped.bulk_insert(src, dst, ts)
    monkeypatch.setattr(bulkops, "stable_order", _argsort_order)
    oracle = DynArrAdjacency(chunk.n)
    oracle.bulk_insert(src, dst, ts)
    assert shipped.vectorised_arc_ops == oracle.vectorised_arc_ops == src.size
    for name in ("off", "cap", "cnt", "live"):
        assert np.array_equal(getattr(shipped, name), getattr(oracle, name)), name
    # The pool fills nothing, so only the slots a vertex occupies are state.
    held = bulkops.gather_index(shipped.off, shipped.cnt)
    for name in ("_adj", "_ts"):
        assert np.array_equal(getattr(shipped, name)[held], getattr(oracle, name)[held]), name
    assert asdict(shipped.stats) == asdict(oracle.stats)
    assert shipped.pool.used == oracle.pool.used
    assert shipped.memory_bytes() == oracle.memory_bytes()


def _gate_against_oracle(benchmark, res, floor, **kwargs):
    """Shipped ``bfs`` vs the sort-based commit, measured here, side by side.

    The gate is the ratio of two timings taken in this process one after
    the other, so it holds on any box; no stored ceiling is involved.
    """
    assert_bfs_equal(unique_commit_bfs(CSR, 0, **kwargs), res)
    oracle_s, _ = best_of(lambda: unique_commit_bfs(CSR, 0, **kwargs), 15)
    shipped_s, _ = best_of(lambda: bfs(CSR, 0, **kwargs), 15)
    ratio = oracle_s / shipped_s
    benchmark.extra_info["speedup_vs_unique_commit"] = round(ratio, 2)
    assert ratio >= floor, f"bfs only {ratio:.2f}x the np.unique commit (floor {floor}x)"


def test_host_bfs(benchmark):
    res = benchmark(lambda: bfs(CSR, 0))
    benchmark.extra_info["edges_per_sec"] = round(
        res.total_edges_scanned / benchmark.stats["mean"], 0
    )
    assert res.n_reached > 1
    _gate_against_oracle(benchmark, res, 2.0)
    # One vertex per level: what a level costs before any arc is touched.
    path = build_csr(path_graph(20_000))
    benchmark.extra_info["us_per_level_path20k"] = round(
        best_of(lambda: bfs(path, 0), 5)[0] / 20_000 * 1e6, 2
    )


def test_host_timestamped_bfs(benchmark):
    res = benchmark(lambda: bfs(CSR, 0, ts_range=(20, 80)))
    assert res.n_reached >= 1
    _gate_against_oracle(benchmark, res, 1.5, ts_range=(20, 80))


def test_host_components(benchmark):
    res = benchmark(lambda: connected_components(CSR))
    assert res.n_components >= 1


def test_host_linkcut_build_and_query(benchmark):
    index = ConnectivityIndex.from_csr(CSR)

    def run():
        return index.random_query_batch(100_000, seed=5)

    res = benchmark(run)
    benchmark.extra_info["queries_per_sec"] = round(
        res.n_queries / benchmark.stats["mean"], 0
    )


def test_host_induced_subgraph(benchmark):
    res = benchmark(lambda: induced_subgraph(GRAPH, 20, 70))
    assert res.n_affected > 0


def test_host_temporal_betweenness(benchmark):
    res = benchmark.pedantic(
        lambda: temporal_betweenness(CSR, sources=16, seed=6, temporal=True),
        rounds=3, iterations=1,
    )
    assert res.n_sources == 16
