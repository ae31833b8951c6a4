"""Tests for the chunked memory pool."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.adjacency import bulkops
from repro.adjacency.batch import BatchedAdjacency
from repro.adjacency.dynarr import TOMBSTONE, DynArrAdjacency
from repro.adjacency.epart import EPartAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.mempool import IntPool
from repro.adjacency.vpart import VPartAdjacency
from repro.errors import GraphError


class TestAlloc:
    def test_bump_pointer(self):
        p = IntPool(16)
        assert p.alloc(4) == 0
        assert p.alloc(4) == 4
        assert p.used == 8

    def test_zero_alloc(self):
        p = IntPool(16)
        off = p.alloc(0)
        assert off == 0 and p.used == 0

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            IntPool(16).alloc(-1)

    def test_grows_by_doubling(self):
        p = IntPool(4)
        p.alloc(3)
        p.alloc(3)  # forces growth
        assert p.capacity >= 6
        assert p.grow_events == 1

    def test_growth_preserves_data(self):
        p = IntPool(4)
        off = p.alloc(3)
        p.data[0, off : off + 3] = [7, 8, 9]
        p.alloc(100)  # grow
        assert p.data[0, off : off + 3].tolist() == [7, 8, 9]

    def test_large_single_request(self):
        p = IntPool(2)
        p.alloc(1000)
        assert p.capacity >= 1000


class TestColumns:
    def test_parallel_columns_share_offsets(self):
        p = IntPool(8, columns=2)
        off = p.alloc(3)
        p.column(0)[off] = 1
        p.column(1)[off] = 2
        assert p.data[0, off] == 1 and p.data[1, off] == 2

    def test_growth_preserves_all_columns(self):
        p = IntPool(4, columns=3)
        off = p.alloc(2)
        for c in range(3):
            p.column(c)[off] = c + 10
        p.alloc(50)
        assert [int(p.column(c)[off]) for c in range(3)] == [10, 11, 12]

    def test_invalid_columns(self):
        with pytest.raises(GraphError):
            IntPool(4, columns=0)


class TestAccounting:
    def test_abandon(self):
        p = IntPool(16)
        p.alloc(8)
        p.abandon(3)
        assert p.abandoned == 3
        assert p.live_bytes() == (8 - 3) * 8

    def test_abandon_negative_rejected(self):
        with pytest.raises(GraphError):
            IntPool(4).abandon(-1)

    def test_memory_bytes(self):
        p = IntPool(10, columns=2)
        assert p.memory_bytes() == 2 * 10 * 8

    def test_invalid_capacity(self):
        with pytest.raises(GraphError):
            IntPool(0)


# --------------------------------------------------------------------- #
# the pool fills nothing: no reader may look past a vertex's ``cnt``
# --------------------------------------------------------------------- #


class FillingPool(IntPool):
    """A pool that writes ``fill`` into every slot it has not handed out yet,
    at construction and after every allocation (so also across the whole
    unused tail after each growth, mid-batch)."""

    def __init__(self, capacity: int, fill: int) -> None:
        super().__init__(capacity, columns=2)
        self.fill = fill
        self.data[:] = fill

    def alloc(self, size: int) -> int:
        off = super().alloc(size)
        self.data[:, off:] = self.fill
        return off


def poison_dead_slots(arr: DynArrAdjacency) -> None:
    """Fill every pool slot outside each vertex's ``[off, off + cnt)``:
    block tails, abandoned blocks and the unallocated remainder."""
    dead = np.ones(arr.pool.capacity, dtype=bool)
    dead[bulkops.gather_index(arr.off, arr.cnt)] = False
    arr.pool.data[:, dead] = arr.pool.fill


def build(kind: str, n: int, fill: int):
    """A ``kind`` instance whose array storage draws from a FillingPool."""
    pool = FillingPool(16, fill)
    if kind == "dynarr":
        return DynArrAdjacency(n, pool=pool)
    if kind == "dynarr-nr":
        rep = DynArrAdjacency(n, initial_capacity=np.full(n, 256), resize=False, pool=pool)
        rep.kind = "dynarr-nr"
        return rep
    if kind == "vpart":
        return VPartAdjacency(n, pool=pool)
    if kind == "epart":
        return EPartAdjacency(n, split_thresh=4, pool=pool)
    if kind == "batched":
        return BatchedAdjacency(n, pool=pool)
    if kind == "hybrid":
        return HybridAdjacency(n, degree_thresh=5, seed=3, array_kwargs={"pool": pool})
    raise AssertionError(kind)


def array_side(rep) -> DynArrAdjacency:
    return getattr(rep, "arr", getattr(rep, "inner", rep))


def observed(rep) -> dict:
    g = rep.to_csr()
    stats = rep.combined_stats() if isinstance(rep, HybridAdjacency) else rep.stats
    return {
        "csr": (g.offsets.tolist(), g.targets.tolist(), g.ts.tolist(), g.meta["source"]),
        "neighbors": [rep.neighbors(u).tolist() for u in range(rep.n)],
        "stats": asdict(stats),
        "n_arcs": rep.n_arcs,
        "memory_bytes": rep.memory_bytes(),
    }


class TestUnfilledPool:
    """Twin structures see the same streams; one pool reads as the old
    tombstone fill wherever nothing was written, the other as an in-range
    vertex id (0 is what a fresh page reads).  A reader that looked past a
    vertex's ``cnt`` would match, count or export the poison."""

    N = 64

    @pytest.mark.parametrize("fill", [0, 5])
    @pytest.mark.parametrize("path", ["vectorised", "scalar"])
    @pytest.mark.parametrize(
        "kind", ["dynarr", "dynarr-nr", "vpart", "epart", "batched", "hybrid"]
    )
    def test_poisoned_slots_are_never_read(self, kind, path, fill, monkeypatch):
        # On the vectorised path every batch, the hybrid's array half
        # included, takes the bulk kernels.
        monkeypatch.setattr(bulkops, "MIN_BULK_SIZE", 1)
        apply = "apply_arcs" if path == "vectorised" else "apply_arcs_scalar"
        twin, poisoned = build(kind, self.N, TOMBSTONE), build(kind, self.N, fill)
        rng = np.random.default_rng(17)
        for _ in range(6):
            k = 120
            op = np.where(rng.random(k) < 0.6, 1, -1).astype(np.int8)
            # Two hot sources (hybrid migrates them mid-batch) and many cold
            # ones that stay in array blocks; few targets, so deletes hit.
            hot = rng.random(k) < 0.5
            src = np.where(hot, rng.integers(0, 2, size=k), rng.integers(2, self.N, size=k))
            dst = rng.integers(0, 8, size=k)
            ts = rng.integers(0, 1000, size=k)
            for rep in (twin, poisoned):
                poison_dead_slots(array_side(rep))
            # The vectorised delete matcher or the per-op loop, with hybrid
            # migrations mid-batch.
            misses = [getattr(rep, apply)(op, src, dst, ts) for rep in (twin, poisoned)]
            assert misses[0] == misses[1]
            assert observed(poisoned) == observed(twin)
            # Per-op deletes: hits, misses and probe words.
            us, vs = rng.integers(0, self.N, size=12), rng.integers(0, 8, size=12)
            for u, v in zip(us.tolist(), vs.tolist()):
                for rep in (twin, poisoned):
                    poison_dead_slots(array_side(rep))
                assert poisoned.delete(u, v) == twin.delete(u, v)
            assert observed(poisoned) == observed(twin)
        # The streams exercised what the guard is for: pool growth,
        # tombstones and (on hybrid) migrations.
        arr = array_side(twin)
        assert arr.pool.grow_events > 0
        assert (arr.cnt > arr.live).any()
        if kind == "hybrid":
            assert twin.stats.migrations > 0
