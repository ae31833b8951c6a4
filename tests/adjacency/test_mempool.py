"""Tests for the chunked memory pool."""

import copy
import pickle
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency import bulkops, mempool
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
        # A released block counts as abandoned in the model, and the next
        # allocation of its size takes it back in host memory.
        p = IntPool(16)
        a, b = p.alloc(4), p.alloc(4)
        p.free(a, 4)
        assert (p.abandoned, p.used, p.top) == (4, 8, 8)
        assert p.alloc(4) == a and p.alloc(2) == 8
        assert (p.used, p.top) == (14, 10)
        # Many at once: released blocks first, most recent first, then fresh.
        p.free_many(np.array([b, a]), np.array([4, 4]))
        assert p.alloc_many([4, 2, 4, 4]).tolist() == [a, 10, b, 12]
        assert (p.abandoned, p.used, p.top) == (12, 28, 16)
        # Ladder rungs: allocated and outgrown in the model, never placed.
        p.charge(6)
        assert (p.abandoned, p.used, p.top, p.capacity) == (18, 34, 16, 16)

    def test_abandon_negative_rejected(self):
        for bad in (lambda p: p.free(0, -1), lambda p: p.free_many([0], [-1]),
                    lambda p: p.charge(-1)):
            with pytest.raises(GraphError):
                bad(IntPool(4))

    def test_memory_bytes(self):
        # Host: int32 slots.  Model: 8-byte words over the doubling capacity
        # of everything the paper's scheme hands out.
        p = IntPool(10, columns=2)
        assert (p.memory_bytes(), p.model_bytes()) == (2 * 10 * 4, 2 * 10 * 8)
        off = p.alloc(8)
        p.free(off, 8)
        p.alloc(8)
        assert (p.memory_bytes(), p.model_bytes()) == (2 * 10 * 4, 2 * 20 * 8)
        p.fit(0, 1 << 31)
        assert p.data.dtype == np.int64
        assert (p.memory_bytes(), p.model_bytes()) == (2 * 10 * 8, 2 * 20 * 8)

    def test_invalid_capacity(self):
        with pytest.raises(GraphError):
            IntPool(0)


# --------------------------------------------------------------------- #
# growth past the floor re-slices one reservation
# --------------------------------------------------------------------- #

#: Slots per column of the reservation the tests force on small pools.
SLOTS = 48


def force_reservation(mp, slots: int = SLOTS) -> None:
    """Every pool reserves ``slots`` slots per column at its first growth."""
    mp.setattr(mempool, "_RESERVE_FLOOR_BYTES", 0)
    mp.setattr(mempool, "_RESERVE_SLOTS", slots)


@pytest.fixture
def reserved(monkeypatch):
    force_reservation(monkeypatch)


class TestReservation:
    def test_growth_inside_reservation_shares_memory(self, reserved):
        p = IntPool(4, columns=2)
        p.alloc(3)
        p.alloc(3)  # the first growth moves into the reservation
        assert p.data.base.shape == (2, SLOTS)
        before = p.data
        before[:, :6] = [[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]]
        p.alloc(10)
        assert p.capacity == 16 and p.grow_events == 2
        assert np.shares_memory(p.data, before)
        assert p.data[:, :6].tolist() == before[:, :6].tolist()

    def test_growth_past_reservation_copies(self, reserved):
        p = IntPool(4, columns=2)
        off = p.alloc(40)  # 64 slots: more than the reservation holds
        assert p.capacity == 64 and p.data.base.shape == (2, 64)
        q = IntPool(4, columns=2)
        q.alloc(30)  # 32 slots, inside the reservation
        q.data[:, :30] = np.arange(60).reshape(2, 30)
        reservation = q.data
        q.alloc(20)  # 64 slots: exhausted, so the copy
        assert not np.shares_memory(q.data, reservation)
        assert q.data[:, :30].tolist() == np.arange(60).reshape(2, 30).tolist()
        assert (q.capacity, q.grow_events, off) == (64, 2, 0)

    def test_default_floor(self):
        small = IntPool(1 << 21)  # 8 MiB -> 16 MiB of int32: copied
        small.alloc((1 << 21) + 1)
        assert small.data.base.shape[1] == small.capacity
        large = IntPool(1 << 22)  # 16 MiB -> 32 MiB: reserved, written nowhere
        large.alloc((1 << 22) + 1)
        assert large.data.base.shape[1] == mempool._RESERVE_SLOTS > large.capacity
        wide = IntPool(1 << 21)  # int64: 16 MiB -> 32 MiB, reserved
        wide.widen()
        wide.alloc((1 << 21) + 1)
        assert wide.data.base.shape == (1, mempool._RESERVE_SLOTS)
        assert wide.data.dtype == wide.data.base.dtype == np.int64

    @pytest.mark.parametrize("copier", [pickle.loads, copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_carry_capacity_not_reservation(self, monkeypatch, copier):
        force_reservation(monkeypatch, slots=1 << 16)
        p = IntPool(4, columns=2)
        p.alloc(50)
        p.data[:, :50] = np.arange(100).reshape(2, 50)
        blob = pickle.dumps(p)
        assert p.capacity * 2 * 4 <= len(blob) < p.capacity * 2 * 4 + 1024
        q = copier(blob) if copier is pickle.loads else copier(p)
        assert q.data.nbytes == p.memory_bytes() and not np.shares_memory(q.data, p.data)
        assert (q.capacity, q.used, q.grow_events) == (p.capacity, p.used, p.grow_events)
        q.alloc(100)
        assert q.data[:, :50].tolist() == np.arange(100).reshape(2, 50).tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 3),
        st.lists(
            st.one_of(
                st.tuples(st.just("alloc"), st.integers(0, 24)),
                st.tuples(st.just("alloc_many"), st.lists(st.integers(0, 9), max_size=5)),
                st.tuples(st.just("charge"), st.integers(0, 6)),
                st.tuples(st.just("free"), st.integers(0, 30)),
                st.tuples(st.just("widen"), st.none()),
            ),
            max_size=25,
        ),
    )
    def test_reserved_path_matches_copy_path(self, capacity, columns, ops):
        def run() -> tuple:
            p, seen, held = IntPool(capacity, columns=columns), [], []
            for tag, (op, arg) in enumerate(ops):
                if op == "charge":
                    p.charge(arg)
                elif op == "widen":
                    p.widen()
                elif op == "free" and held:
                    p.free(*held.pop(arg % len(held)))
                elif op in ("alloc", "alloc_many"):
                    sizes = [arg] if op == "alloc" else arg
                    offs = [p.alloc(arg)] if op == "alloc" else p.alloc_many(arg).tolist()
                    held += zip(offs, sizes)
                    for off, size in zip(offs, sizes):
                        for c in range(columns):
                            p.column(c)[off : off + size] = 1000 * c + tag
                seen.append((p.capacity, p.grow_events, p.top, p.used, p.abandoned,
                             p.memory_bytes(), p.model_bytes(), sorted(held)))
            return seen, [p.data[:, off : off + size].tolist() for off, size in held]

        copied = run()
        with pytest.MonkeyPatch.context() as mp:
            force_reservation(mp)
            assert run() == copied


# --------------------------------------------------------------------- #
# the pool fills nothing: no reader may look past a vertex's ``cnt``
# --------------------------------------------------------------------- #


class FillingPool(IntPool):
    """A pool that writes ``fill`` into every slot it has not handed out yet,
    at construction and after every bump of its pointer (so also across the
    whole unused tail after each growth, mid-batch, and past the capacity to
    the end of a reservation, which later growths re-slice), and into every
    block it takes back: a reused block holds the poison, not stale arcs."""

    def __init__(self, capacity: int, fill: int) -> None:
        super().__init__(capacity, columns=2)
        self.fill = fill
        self.data[:] = fill

    def _bump(self, size: int) -> int:
        off = super()._bump(size)
        tail = self.data if self.data.base is None else self.data.base
        tail[:, off:] = self.fill
        return off

    def _push(self, size: int, offs) -> None:
        offs = np.asarray(offs, dtype=np.int64)
        self.data[:, bulkops.gather_index(offs, np.full(offs.size, size))] = self.fill
        super()._push(size, offs)


def poison_dead_slots(arr: DynArrAdjacency) -> None:
    """Fill every pool slot outside each vertex's ``[off, off + cnt)``:
    block tails, abandoned blocks and the unallocated remainder."""
    dead = np.ones(arr.pool.capacity, dtype=bool)
    dead[bulkops.gather_index(arr.off, arr.cnt)] = False
    arr.pool.data[:, dead] = arr.pool.fill


def build(kind: str, n: int, fill: int):
    """A ``kind`` instance whose array storage draws from a FillingPool,
    swapped in before anything is stored."""
    if kind == "dynarr":
        rep = DynArrAdjacency(n)
    elif kind == "dynarr-nr":
        rep = DynArrAdjacency.preallocated(n, np.full(n, 256))
    elif kind == "vpart":
        rep = VPartAdjacency(n)
    elif kind == "epart":
        rep = EPartAdjacency(n, split_thresh=4)
    elif kind == "batched":
        rep = BatchedAdjacency(n)
    elif kind == "hybrid":
        rep = HybridAdjacency(n, degree_thresh=5, seed=3)
    else:
        raise AssertionError(kind)
    arr = array_side(rep)
    assert arr.pool.top == 0
    arr.pool = FillingPool(16, fill)
    arr.pool.fit(0, n - 1)
    return rep


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
        "model_bytes": rep.model_bytes(),
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
    def test_poisoned_slots_are_never_read(self, kind, path, fill):
        self.check_poisoned(kind, path, fill)

    @pytest.mark.parametrize("fill", [0, 5])
    @pytest.mark.parametrize("path", ["vectorised", "scalar"])
    @pytest.mark.parametrize(
        "kind", ["dynarr", "dynarr-nr", "vpart", "epart", "batched", "hybrid"]
    )
    def test_poisoned_reserved_slots_are_never_read(self, kind, path, fill, monkeypatch):
        # Every pool grows inside a reservation whose tail holds the poison.
        force_reservation(monkeypatch, slots=1 << 14)
        arr = self.check_poisoned(kind, path, fill)
        assert arr.pool.data.base.shape == (2, 1 << 14)

    def check_poisoned(self, kind, path, fill) -> DynArrAdjacency:
        # The batch path (every batch, the hybrid's array half included,
        # takes the bulk kernels) or the per-op reference by name.
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
        return arr
