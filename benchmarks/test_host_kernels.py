"""Gates: the shipped semisort and BFS commit against their sort-based oracles.

Both sides of each ratio are the best of 15 rounds, timed here one after
the other, and the shipped result must equal the oracle's.
"""

from dataclasses import asdict

import numpy as np

from benchmarks.conftest import best_of
from repro.adjacency import bulkops
from repro.adjacency.csr import build_csr
from repro.adjacency.dynarr import DynArrAdjacency
from repro.core.bfs import bfs
from repro.core.update_engine import _arc_stream
from repro.generators.parallel import iter_update_chunks
from repro.generators.rmat import rmat_graph
from tests.core.bfs_oracle import assert_bfs_equal, unique_commit_bfs

CSR = build_csr(rmat_graph(12, 8, seed=77, ts_range=(1, 100)))


def _argsort_order(keys, bound):
    """The stable argsort + gather ``bulkops.stable_order`` replaced: the oracle."""
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def test_host_semisort(monkeypatch):
    """Packed-key semisort vs stable argsort + gather on one construction chunk.

    One scale-17 ``iter_update_chunks`` chunk, 65 536 edges = 131 072 arc
    sources, the unit the ``batch_insert`` workload applies 16 times (the
    floor leaves room for a numpy without the SIMD sort).
    """
    chunk = next(iter_update_chunks(17, edge_factor=8, seed=77, chunk_edges=65536))
    _, src, dst, ts = _arc_stream(chunk, True)
    assert src.size == 131_072

    order, sorted_keys = bulkops.stable_order(src, chunk.n)
    want_order, want_keys = _argsort_order(src, chunk.n)
    assert np.array_equal(order, want_order) and np.array_equal(sorted_keys, want_keys)
    oracle_s, _ = best_of(lambda: _argsort_order(src, chunk.n), 15)
    shipped_s, _ = best_of(lambda: bulkops.stable_order(src, chunk.n), 15)
    ratio = oracle_s / shipped_s
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


def _gate_against_oracle(floor, **kwargs):
    """Shipped ``bfs`` vs the sort-based commit: equal results, ratio >= ``floor``."""
    res = bfs(CSR, 0, **kwargs)
    assert_bfs_equal(unique_commit_bfs(CSR, 0, **kwargs), res)
    oracle_s, _ = best_of(lambda: unique_commit_bfs(CSR, 0, **kwargs), 15)
    shipped_s, _ = best_of(lambda: bfs(CSR, 0, **kwargs), 15)
    ratio = oracle_s / shipped_s
    assert ratio >= floor, f"bfs only {ratio:.2f}x the np.unique commit (floor {floor}x)"
    return res


def test_host_bfs():
    assert _gate_against_oracle(2.0).n_reached > 1


def test_host_timestamped_bfs():
    assert _gate_against_oracle(1.5, ts_range=(20, 80)).n_reached >= 1
