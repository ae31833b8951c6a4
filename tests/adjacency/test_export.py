"""The one snapshot export: ``rep.to_csr()`` against the reference walk.

Every representation writes its live arcs straight into CSR; the reference
is the per-vertex walk fed through the generic builder,
``csr_from_arrays(n, *rep.to_arrays_scalar())``.  The matrix crosses the
seven registry kinds, plus a hybrid whose crossing vertex falls back below
its threshold (``hybrid-downshift``: the vertex keeps its treap); storage
built by the batch paths (``default``) and by the per-op loop (``scalar``,
whose pool layout differs); and the storage states that take different
export branches.  The allocation budget
pins what the direct export is for: a tombstone-free dyn-arr snapshot
allocates little beyond its own result.
"""

import tracemalloc

import numpy as np
import pytest

from repro.adjacency.csr import csr_from_arrays
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.registry import make_representation
from repro.generators.rmat import rmat_graph

KINDS = ["dynarr", "dynarr-nr", "treap", "hybrid", "hybrid-downshift", "vpart", "epart", "batched"]


def build(kind, n):
    if kind == "dynarr-nr":
        return make_representation(kind, n, degrees=np.full(n, 512))
    if kind == "hybrid":
        return make_representation(kind, n, degree_thresh=4, seed=1)
    if kind == "hybrid-downshift":
        return make_representation("hybrid", n, degree_thresh=8, seed=1)
    if kind == "treap":
        return make_representation(kind, n, seed=1)
    return make_representation(kind, n)


def batch(rng, n, k, insert_frac):
    op = np.where(rng.random(k) < insert_frac, 1, -1).astype(np.int8)
    return op, rng.integers(0, n, size=k), rng.integers(0, n, size=k), rng.integers(0, 99, size=k)


def insert_only(rng):
    return 40, [batch(rng, 40, 200, 1.1) for _ in range(2)]


def mixed(rng):
    return 40, [batch(rng, 40, 200, 0.6) for _ in range(3)]


def emptied_vertex(rng):
    # Vertex 3 holds three arcs, then loses all of them: on the array side
    # it keeps cnt == 3 slots, every one a tombstone (live == 0).
    op, src, dst, ts = batch(rng, 8, 60, 1.1)
    src[src == 3] = 4
    src[:3], dst[:3] = 3, [1, 2, 5]
    first = (op, src, dst, ts)
    op, src, dst, ts = batch(rng, 8, 60, 0.5)
    src[src == 3] = 4
    op[:3], src[:3], dst[:3] = -1, 3, [2, 5, 1]
    return 8, [first, (op, src, dst, ts)]


def crossing(rng):
    # Vertex 0 owns nothing until the second batch, which gives it 12 inserts
    # interleaved with deletes of its own arcs: on hybrid it crosses
    # degree_thresh mid-batch.  The third batch deletes 11 of those inserts,
    # taking it back below degree_thresh with its treap nearly empty.
    first = batch(rng, 10, 60, 0.8)
    first[1][first[1] == 0] = 1
    op, src, dst, ts = batch(rng, 10, 96, 0.7)
    src[src == 0] = 1
    src[::8] = 0
    op[::8] = 1
    src[4::16], op[4::16] = 0, -1
    mine = dst[::8][:-1]
    drop = (np.full(mine.size, -1, dtype=np.int8), np.zeros_like(mine), mine, np.zeros_like(mine))
    return 10, [first, (op, src, dst, ts), drop]


def empty(rng):
    return 6, []


def one_vertex(rng):
    op, _, _, ts = batch(rng, 1, 80, 0.6)
    zeros = np.zeros(op.size, dtype=np.int64)
    return 1, [(op, zeros, zeros, ts)]


SCENARIOS = {
    "insert-only": insert_only,
    "mixed": mixed,
    "emptied-vertex": emptied_vertex,
    "crossing": crossing,
    "empty": empty,
    "n=1": one_vertex,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("apply", ["apply_arcs", "apply_arcs_scalar"], ids=["default", "scalar"])
@pytest.mark.parametrize("kind", KINDS)
def test_to_csr_equals_reference_walk(kind, apply, scenario):
    n, batches = SCENARIOS[scenario](np.random.default_rng(7))
    rep = build(kind, n)
    for op, src, dst, ts in batches:
        getattr(rep, apply)(op, src, dst, ts)
    arr = getattr(rep, "arr", getattr(rep, "inner", rep))
    if scenario == "emptied-vertex" and hasattr(arr, "cnt"):
        assert arr.cnt[3] == 3 and arr.live[3] == 0
    if scenario == "crossing" and kind.startswith("hybrid"):
        assert rep.mode[0] == 1 and rep.stats.migrations > 0
    if scenario == "crossing" and kind == "hybrid-downshift":
        assert rep.degree(0) < rep.degree_thresh

    got = rep.to_csr()
    want = csr_from_arrays(n, *rep.to_arrays_scalar())
    for name in ("offsets", "targets", "ts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.int64
        assert np.array_equal(a, b), name
    assert got.meta["source"] == rep.kind
    for a, b in zip(rep.to_arrays(), rep.to_arrays_scalar()):
        assert np.array_equal(a, b)


def test_dynarr_snapshot_allocation_budget():
    """A tombstone-free dyn-arr snapshot peaks at <= 3.5 x 8m bytes.

    ``tracemalloc`` sees numpy's buffers.  The result alone is 2 x 8m
    (targets and ts); the direct export adds one 8m index array.  Exporting
    ``(src, dst, ts)`` and rebuilding CSR from it peaked above 6 x 8m.
    """
    g = rmat_graph(12, 16, seed=5)
    rep = DynArrAdjacency(g.n)
    rep.bulk_insert(np.concatenate([g.src, g.dst]), np.concatenate([g.dst, g.src]))
    m = rep.n_arcs
    assert int(rep.cnt.sum()) == m
    tracemalloc.start()
    try:
        csr = rep.to_csr()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert csr.n_arcs == m
    assert peak <= 3.5 * 8 * m, f"snapshot peaked at {peak / (8 * m):.2f} x 8m bytes"
