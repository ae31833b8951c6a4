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
allocates little beyond its own result.  The export chains hold the treap
and hybrid patch (each export after the first is the last one patched by
the batches since) to the same reference, and check when it is taken.
"""

import tracemalloc

import numpy as np
import pytest

from repro.adjacency.csr import csr_from_arrays
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.registry import make_representation
from repro.adjacency import treap
from repro.adjacency.treap import TreapAdjacency
from repro.generators.rmat import rmat_graph
from repro.obs import METRICS

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


# --------------------------------------------------------------------- #
# export chains: each export after the first is the last one patched
# --------------------------------------------------------------------- #

#: Kinds whose ``to_csr`` patches the last export (``adjacency/patch.py``).
PATCHED = {"treap", "hybrid", "hybrid-downshift"}


def counter(name):
    return METRICS.counter(f"adjacency.{name}").value


def chain_mixed(rng):
    """Mixed batches with misses, one export after each: large ones take
    the bulk kernels, the 20-arc one the per-op loop."""
    return 40, [("batch", batch(rng, 40, k, 0.6)) for k in (200, 20, 120, 300)]


def chain_crossing(rng):
    # A crossing vertex's run turns from array to treap between two exports.
    n, batches = crossing(rng)
    return n, [("batch", b) for b in batches]


def chain_several_batches(rng):
    # Three batches, an all-insert one among them, between two exports.
    steps = [("batch", batch(rng, 30, 150, 0.7))]
    steps += [("quiet", batch(rng, 30, k, f)) for k, f in ((90, 0.5), (60, 1.1), (70, 0.4))]
    return 30, steps + [("batch", batch(rng, 30, 50, 0.6))]


def chain_build(rng):
    # bulk_insert builds the treaps empty at its start; the next batch
    # deletes from them.
    return 30, [("build", batch(rng, 30, 240, 1.1)), ("build", batch(rng, 30, 90, 1.1)),
                ("batch", batch(rng, 30, 160, 0.5))]


def chain_per_op(rng):
    # A per-op insert outside any batch: the next export must walk.
    return 20, [("batch", batch(rng, 20, 100, 0.8)), ("per-op", (3, 7, 5)),
                ("batch", batch(rng, 20, 80, 0.6))]


CHAINS = {
    "mixed": chain_mixed,
    "crossing": chain_crossing,
    "several-batches": chain_several_batches,
    "build": chain_build,
    "per-op": chain_per_op,
}


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied-prios"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("kind", KINDS)
def test_export_chain_equals_reference_walk(kind, chain, ties, monkeypatch):
    """export -> batch -> export ...: every export equals the reference walk;
    on the patched kinds each one after the first is a patch, except the
    one after a per-op mutation; the patch's self-check never fires.
    ``tied-prios`` drops the vertex from the priority hash, so the k-th
    node of every treap shares one priority: ties across treaps, which the
    build's per-owner segments keep apart."""
    builds = []
    build_run = TreapAdjacency._build_run
    monkeypatch.setattr(
        TreapAdjacency, "_build_run", lambda t, *a: builds.append(a[0].size) or build_run(t, *a)
    )
    if ties:
        monkeypatch.setattr(treap, "_U_MIX", 0)
    rng = np.random.default_rng(11)
    n, steps = CHAINS[chain](rng)
    rep = build(kind, n)
    # A first export large enough for the logs below; vertex 0 is left
    # empty for the crossing chain.
    op, src, dst, ts = batch(rng, n, 10 * n, 1.1)
    rep.apply_arcs(op, np.maximum(src, 1), dst, ts)
    exported = rep.to_csr().n_arcs
    mismatches, misses, walked, logged = counter("export_patch_mismatches"), 0, False, 0
    for what, arg in steps:
        before = counter("export_patches")
        if what == "build":
            rep.bulk_insert(*arg[1:])
        elif what == "per-op":
            rep.insert(*arg)
            walked = True
        else:
            misses += rep.apply_arcs(*arg)
        logged += arg[1].size if what != "per-op" else 0
        if what == "quiet":
            continue
        got = rep.to_csr()
        want = csr_from_arrays(n, *rep.to_arrays_scalar())
        for name in ("offsets", "targets", "ts"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        # A log longer than the last export (the empty first one included)
        # is dropped for the walk.
        patched = kind in PATCHED and not walked and 0 < logged <= exported
        assert counter("export_patches") - before == patched
        exported, walked, logged = got.n_arcs, False, 0
    assert counter("export_patch_mismatches") == mismatches
    if chain == "mixed":
        assert misses > 0
    if chain == "crossing" and kind.startswith("hybrid"):
        assert rep.stats.migrations > 0
    if chain == "build" and kind in PATCHED:
        assert len(builds) == 2


def test_log_longer_than_the_export_walks():
    """A log with more arcs than the last export is dropped: the next
    export walks, and the one after patches again."""
    rng = np.random.default_rng(3)
    rep = build("treap", 20)
    rep.apply_arcs(*batch(rng, 20, 60, 1.1))
    rep.to_csr()
    before = counter("export_patches")
    rep.apply_arcs(*batch(rng, 20, 100, 1.1))
    assert rep._last is None
    rep.to_csr()
    rep.apply_arcs(*batch(rng, 20, 30, 0.5))
    got = rep.to_csr()
    assert counter("export_patches") - before == 1
    assert np.array_equal(got.targets, csr_from_arrays(20, *rep.to_arrays_scalar()).targets)


def test_patch_never_writes_the_previous_export():
    rng = np.random.default_rng(5)
    rep = build("hybrid", 30)
    rep.apply_arcs(*batch(rng, 30, 200, 1.1))
    first = rep.to_csr()
    kept = [a.copy() for a in (first.offsets, first.targets, first.ts)]
    rep.apply_arcs(*batch(rng, 30, 150, 0.5))
    second = rep.to_csr()
    for a, b in zip(kept, (first.offsets, first.targets, first.ts)):
        assert np.array_equal(a, b)
    assert not np.shares_memory(first.targets, second.targets)
