"""Model bytes versus host bytes.

``model_bytes()`` is the footprint of the paper's C layout, which the cache
model and the figures charge: 8-byte words, a pool that never reuses a
block, the doubling tail.  ``memory_bytes()`` is the bytes of the arrays a
structure holds; for the dyn-arr family that is an int32 pool (int64 once a
stamp outside int32 arrives) whose released blocks are reused.  These tests
pin the model to the footprint every kind reported before the split, pin the
host figure to the arrays, and hold the compact pool to the per-op
reference on streams whose stamps cross the int32 bound.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.mempool import IntPool
from repro.adjacency.registry import make_representation

KINDS = ["dynarr", "dynarr-nr", "treap", "hybrid", "vpart", "epart", "batched"]
POOLED = [k for k in KINDS if k != "treap"]
N = 64

#: ``memory_bytes()`` of each kind after :func:`fixed_batches`, as reported
#: when it was also the model footprint (one 8-byte word per slot, every
#: block ever allocated).
PINNED_MODEL_BYTES = {
    "dynarr": 67_584,
    "dynarr-nr": 309_248,
    "treap": 26_832,
    "hybrid": 44_992,
    "vpart": 67_584,
    "epart": 71_808,
    "batched": 67_584,
}

I32 = np.iinfo(np.int32)


def make(kind, n=N):
    extra = {"degrees": np.full(n, 300)} if kind == "dynarr-nr" else {}
    return make_representation(kind, n, **extra)


def fixed_batches():
    """Three mixed batches: three hot sources (hybrid migrates them, epart
    splits them) among cold ones, few targets so deletes hit."""
    for seed in (23, 24, 25):
        rng = np.random.default_rng(seed)
        k = 400
        op = np.where(rng.random(k) < 0.7, 1, -1).astype(np.int8)
        hot = rng.random(k) < 0.4
        src = np.where(hot, rng.integers(0, 3, size=k), rng.integers(0, N, size=k))
        yield op, src, rng.integers(0, 16, size=k), rng.integers(0, 1000, size=k)


def array_side(rep):
    return rep.arr if isinstance(rep, HybridAdjacency) else rep


def host_bytes(arr) -> int:
    """What a dyn-arr's arrays hold: four headers and the pool's host array."""
    return sum(a.nbytes for a in (arr.off, arr.cap, arr.cnt, arr.live)) + arr.pool.data.nbytes


def assert_blocks_disjoint(arr) -> None:
    """Live blocks and free-list blocks tile part of ``[0, top)`` without
    overlap."""
    held = arr.off >= 0
    offs = [arr.off[held], *(buf[:k] for buf, k in arr.pool._free.values())]
    sizes = [arr.cap[held], *(np.full(k, size) for size, (_, k) in arr.pool._free.items())]
    offs, sizes = np.concatenate(offs), np.concatenate(sizes)
    order = np.argsort(offs, kind="stable")
    offs, ends = offs[order], offs[order] + sizes[order]
    assert (offs[1:] >= ends[:-1]).all(), "two host blocks overlap"
    assert offs.size == 0 or (offs[0] >= 0 and ends[-1] <= arr.pool.top <= arr.pool.capacity)


class TestPinned:
    @pytest.mark.parametrize("path", ["apply_arcs", "apply_arcs_scalar"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_model_bytes_match_the_old_footprint(self, kind, path):
        rep = make(kind)
        for batch in fixed_batches():
            getattr(rep, path)(*batch)
        assert rep.model_bytes() == PINNED_MODEL_BYTES[kind]
        if kind != "batched":  # whose phase charges the larger semi-sort footprint
            assert rep.phase("x").footprint_bytes == PINNED_MODEL_BYTES[kind]

    @pytest.mark.parametrize("path", ["apply_arcs", "apply_arcs_scalar"])
    @pytest.mark.parametrize("kind", POOLED)
    def test_memory_bytes_are_the_arrays_held(self, kind, path):
        rep = make(kind)
        for batch in fixed_batches():
            getattr(rep, path)(*batch)
            arr = array_side(rep)
            assert arr.memory_bytes() == host_bytes(arr)
            assert arr.pool.data.dtype == np.int32
            assert_blocks_disjoint(arr)
        if isinstance(rep, HybridAdjacency):
            assert rep.memory_bytes() == (
                host_bytes(rep.arr) + rep.treap.memory_bytes() + len(rep.mode)
            )
        # The compact pool holds less than the model charges.
        assert rep.memory_bytes() < rep.model_bytes()

    def test_reuse_keeps_the_pool_at_live_capacity(self):
        # One vertex doubling block by block: every outgrown block returns
        # to its free list, and a second vertex climbing the same ladder
        # takes each one back instead of moving the bump pointer.
        rep = make("dynarr", 2)
        ones = np.ones(64, dtype=np.int8)
        rep.apply_arcs_scalar(ones, np.zeros(64), np.ones(64))
        top = rep.pool.top
        rep.apply_arcs_scalar(ones[:32], np.ones(32), np.zeros(32))
        assert rep.pool.top == top
        assert rep.pool.used == 2 * (2 + 4 + 8 + 16 + 32 + 64) - 64


def stamps():
    """Stamps near zero, at either int32 bound, and anywhere in int64."""
    near = st.integers(-3, 3)
    return st.one_of(
        st.integers(0, 1000),
        near.map(lambda d: int(I32.max) + d),
        near.map(lambda d: int(I32.min) + d),
        st.integers(-(2**63), 2**63 - 1),
    )


@st.composite
def streams(draw):
    n = draw(st.integers(2, 12))
    vertex = st.one_of(st.just(n - 1), st.integers(0, n - 1))
    arc = st.tuples(st.sampled_from([1, 1, -1]), vertex, vertex, stamps())
    batches = draw(st.lists(st.lists(arc, min_size=1, max_size=40), min_size=1, max_size=4))
    return n, [tuple(np.array(col, dtype=dt) for col, dt in
                     zip(zip(*b), (np.int8, np.int64, np.int64, np.int64))) for b in batches]


def state(rep):
    stats = rep.combined_stats() if isinstance(rep, HybridAdjacency) else rep.stats
    return {
        "n_arcs": rep.n_arcs,
        "model_bytes": rep.model_bytes(),
        "stats": asdict(stats),
        "adjacency": [tuple(a.tolist() for a in rep.neighbors_with_ts(u)) for u in range(rep.n)],
    }


class TestCompactPool:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(POOLED), stream=streams())
    def test_int32_pool_matches_the_per_op_reference(self, kind, stream):
        n, batches = stream
        widened = []
        wrapped = IntPool.widen

        def widen(pool):
            widened.append((id(pool), pool.data.dtype))
            wrapped(pool)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IntPool, "widen", widen)
            vec, ref = make(kind, n), make(kind, n)
            for op, src, dst, ts in batches:
                assert vec.apply_arcs(op, src, dst, ts) == ref.apply_arcs_scalar(op, src, dst, ts)
                assert state(vec) == state(ref)
        for rep in (vec, ref):
            arr = array_side(rep)
            wide = [w for w in widened if w == (id(arr.pool), np.int32)]
            assert len(wide) == (arr.pool.data.dtype == np.int64), "widened more than once"
            for u in range(n):
                assert rep.neighbors(u).dtype == np.int64
                assert all(a.dtype == np.int64 for a in rep.neighbors_with_ts(u))
            g = rep.to_csr()
            assert g.targets.dtype == g.ts.dtype == np.int64
            assert arr.memory_bytes() == host_bytes(arr)
            assert_blocks_disjoint(arr)
        if kind != "hybrid":
            # Every inserted stamp lands in the pool: it widens iff one is
            # outside int32, on either path.
            stored = np.concatenate([ts[op == 1] for op, _, _, ts in batches])
            outside = bool(((stored < I32.min) | (stored > I32.max)).any())
            for rep in (vec, ref):
                assert (rep.pool.data.dtype == np.int64) == outside
        assert array_side(vec).pool.data.dtype == array_side(ref).pool.data.dtype

    @pytest.mark.parametrize("path", ["apply_arcs", "apply_arcs_scalar", "bulk_insert"])
    def test_first_wide_stamp_widens_once_keeping_the_arcs(self, path, monkeypatch):
        copies = []
        wrapped = IntPool.widen
        monkeypatch.setattr(IntPool, "widen", lambda p: copies.append(p.data.dtype) or wrapped(p))
        rep = make("dynarr", 4)
        ins = np.ones(3, dtype=np.int8)

        def put(ts):
            args = (np.array([0, 1, 1]), np.array([3, 2, 0]), np.array(ts))
            getattr(rep, path)(*args) if path == "bulk_insert" else getattr(rep, path)(ins, *args)

        put([5, int(I32.max), int(I32.min)])
        assert rep.pool.data.dtype == np.int32 and copies == []
        put([2**40, -(2**62), 7])
        put([2**41, 1, 2])
        assert rep.pool.data.dtype == np.int64 and copies.count(np.int32) == 1
        assert rep.neighbors_with_ts(1)[1].tolist() == [int(I32.max), int(I32.min), -(2**62), 7, 1, 2]
        assert rep.neighbors_with_ts(0)[1].tolist() == [5, 2**40, 2**41]

    def test_fit_widens_past_int32(self):
        # A structure calls ``fit(0, n - 1)`` for its vertex ids at
        # construction, and ``fit`` on the stamps it is about to store.
        pool = IntPool(8, columns=2)
        pool.fit(int(I32.min), int(I32.max))
        assert pool.data.dtype == np.int32
        pool.fit(0, int(I32.max) + 1)
        assert pool.data.dtype == np.int64
