"""Unit tests for the shared vectorised bulk-update kernels.

Covers the grouping primitives (:func:`stable_order` against numpy's stable
argsort, :func:`group_runs`, :func:`gather_index`),
the pool's :meth:`alloc_many`, the one batch path at every size, the
op-code and length checks at every batched entry point, and the
sentinel/constant invariants the kernels rely on.  The scalar-vs-vectorised *equivalence* checks live in
test_equivalence.py.
"""

import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency import bulkops
from repro.adjacency.base import AdjacencyRepresentation, HotStats
from repro.adjacency.batch import BatchedAdjacency
from repro.adjacency.dynarr import DynArrAdjacency, TOMBSTONE
from repro.adjacency.epart import EPartAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.mempool import IntPool
from repro.adjacency.registry import REPRESENTATIONS, make_representation
from repro.adjacency.treap import TreapAdjacency
from repro.errors import GraphError, StreamError, VertexError
from repro.generators.rmat import rmat_graph
from repro.generators.streams import UpdateStream


def assert_stable_order(keys, bound):
    """``stable_order`` equals the stable argsort and its gather, exactly."""
    keys = np.asarray(keys, dtype=np.int64)
    before = keys.copy()
    order, sorted_keys = bulkops.stable_order(keys, bound)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == np.int64 and sorted_keys.dtype == np.int64
    assert np.array_equal(order, expected)
    assert np.array_equal(sorted_keys, before[expected])
    assert np.array_equal(keys, before)  # the caller's keys are never written
    return order, sorted_keys


class TestStableOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2**40).flatmap(
            lambda bound: st.tuples(
                st.just(bound),
                st.lists(st.integers(min_value=0, max_value=bound - 1), max_size=300),
            )
        )
    )
    def test_matches_stable_argsort(self, case):
        bound, keys = case
        assert_stable_order(keys, bound)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=300))
    def test_heavy_ties_keep_arrival_order(self, keys):
        assert_stable_order(keys, 6)

    def test_empty(self):
        order, sorted_keys = assert_stable_order([], 8)
        assert order.size == sorted_keys.size == 0

    def test_one_key(self):
        order, sorted_keys = assert_stable_order([5], 8)
        assert order.tolist() == [0] and sorted_keys.tolist() == [5]

    def test_all_equal(self):
        order, _ = assert_stable_order([3] * 100, 8)
        assert order.tolist() == list(range(100))

    def test_already_sorted_is_identity_without_a_copy(self):
        keys = np.array([0, 0, 1, 4, 4, 7], dtype=np.int64)
        order, sorted_keys = assert_stable_order(keys, 8)
        assert order.tolist() == list(range(6))
        assert sorted_keys is keys

    def test_reversed(self):
        assert_stable_order(np.arange(1000)[::-1] // 3, 334)

    def test_largest_key_present(self):
        bound = 1 << 17
        assert_stable_order([bound - 1, 0, bound - 1, 5, bound - 1], bound)

    @pytest.mark.parametrize("m", [2, 3, 5, 127, 129, 1000, 4097])
    def test_sizes_off_the_power_of_two(self, m):
        rng = np.random.default_rng(m)
        assert_stable_order(rng.integers(0, 50, size=m), 50)

    def test_rmat_skewed_keys(self):
        g = rmat_graph(12, 8, seed=5)
        src = np.concatenate([g.src, g.dst])
        assert np.bincount(src).max() > 50  # hot vertices: long equal-key runs
        assert_stable_order(src, g.n)

    def test_pair_keys_bounded_by_n_squared(self):
        n = 1 << 14
        rng = np.random.default_rng(9)
        owner = rng.integers(0, n, size=8192)
        target = rng.integers(0, 40, size=8192)  # repeated (owner, target) pairs too
        keys = np.concatenate([owner * n + target, [n * n - 1, 0, n * n - 1]])
        assert_stable_order(keys, n * n)

    @staticmethod
    def _count_argsorts(monkeypatch):
        calls = []
        real = np.argsort

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(bulkops.np, "argsort", spy)
        return calls

    def test_both_sides_of_the_packing_limit(self, monkeypatch):
        # 8192 keys need 13 index bits: a 49-bit key packs into 62, a 50-bit
        # key does not and takes the comparison sort.
        rng = np.random.default_rng(4)
        results = {}
        for key_bits in (49, 50):
            bound = 1 << key_bits
            keys = rng.integers(0, bound, size=8192)
            keys[[3, 700]] = bound - 1
            keys[[4, 701]] = 0
            expected = np.argsort(keys, kind="stable")
            calls = self._count_argsorts(monkeypatch)
            order, sorted_keys = bulkops.stable_order(keys, bound)
            monkeypatch.undo()
            assert np.array_equal(order, expected)
            assert np.array_equal(sorted_keys, keys[expected])
            results[key_bits] = len(calls)
        assert results == {49: 0, 50: 1}

    def test_narrowed_limit_takes_the_fallback(self, monkeypatch):
        keys = np.array([5, 1, 5, 0, 1], dtype=np.int64)
        calls = self._count_argsorts(monkeypatch)
        bulkops.stable_order(keys, 8)
        assert calls == []  # 3 key bits + 3 index bits pack
        monkeypatch.setattr(bulkops, "PACK_BITS", 5)
        order, sorted_keys = bulkops.stable_order(keys, 8)
        assert calls == [{"kind": "stable"}]
        assert order.tolist() == [3, 1, 4, 0, 2] and sorted_keys.tolist() == [0, 1, 1, 5, 5]

    def test_batched_hands_its_inner_dynarr_a_grouped_stream(self, monkeypatch):
        # BatchedAdjacency is Dyn-arr storage: its batch reaches the Dyn-arr
        # kernels as sent, and their grouping step is the one semi-sort.
        # The batched kind sorts exactly what a plain Dyn-arr sorts and ends
        # with its arcs and counters.
        seen = []
        real = bulkops.stable_order

        def spy(keys, bound):
            seen.append(keys.copy())
            return real(keys, bound)

        monkeypatch.setattr(bulkops, "stable_order", spy)  # the kernels' calls only
        rng = np.random.default_rng(8)
        src, dst = rng.integers(0, 32, size=500), rng.integers(0, 32, size=500)
        for op in (np.ones(500, dtype=np.int8), rng.choice([1, -1], size=500).astype(np.int8)):
            seen.clear()
            rep = BatchedAdjacency(32)
            misses = rep.apply_arcs(op, src, dst)
            by_rep = seen[:]
            seen.clear()
            ref = DynArrAdjacency(32)
            assert misses == ref.apply_arcs(op, src, dst)
            assert np.array_equal(by_rep[0], src)
            assert len(by_rep) == len(seen)
            assert all(np.array_equal(a, b) for a, b in zip(by_rep, seen))
            for got, want in zip(rep.to_arrays(), ref.to_arrays()):
                assert np.array_equal(got, want)
            assert rep.stats == ref.stats


BAD_OP_CODES = [0, 2, 257, -255]  # the last two wrap to +1 under an int8 cast


@pytest.mark.parametrize("code", BAD_OP_CODES)
class TestOpCodesCheckedBeforeNarrowing:
    K = 64

    def _batches(self, code):
        rng = np.random.default_rng(1)
        src, dst = rng.integers(0, 8, size=self.K), rng.integers(0, 8, size=self.K)
        mixed = [1, -1] * (self.K // 2)
        mixed[self.K // 2] = code
        return [([code] * self.K, src, dst), (mixed, src, dst)]

    @staticmethod
    def _state(rep):
        return (
            rep.n_arcs,
            rep.mutation_count,
            asdict(rep.stats),
            rep.pool.used,
            rep.cnt.tolist(),
        )

    # The batch path at K arcs (``None``) and at the one arc holding the bad
    # code (``vectorised``), and the per-op reference by name (``scalar``).
    @pytest.mark.parametrize("path", [None, "one-arc", "scalar"], ids=["None", "vectorised", "scalar"])
    def test_dynarr_apply_arcs(self, code, path):
        for op, src, dst in self._batches(code):
            rep = DynArrAdjacency(8)
            before = self._state(rep)
            with pytest.raises(GraphError, match="update code"):
                if path == "scalar":
                    rep.apply_arcs_scalar(op, src, dst)
                elif path == "one-arc":
                    at = op.index(code)
                    rep.apply_arcs(op[at : at + 1], src[at : at + 1], dst[at : at + 1])
                else:
                    rep.apply_arcs(op, src, dst)
            assert self._state(rep) == before

    def test_batched_apply_arcs(self, code):
        for op, src, dst in self._batches(code):
            rep = BatchedAdjacency(8)
            before = self._state(rep)
            with pytest.raises(GraphError, match="update code"):
                rep.apply_arcs(op, src, dst)
            assert self._state(rep) == before
            assert rep.batches == rep.batched_updates == 0

    def test_update_stream(self, code):
        with pytest.raises(StreamError, match="update code"):
            UpdateStream(4, [1, code], [0, 1], [1, 2], [0, 0])
        with pytest.raises(StreamError, match="update code"):
            UpdateStream(4, [code], [0], [1], [0])


def hot_spot_stats(keys) -> tuple[int, int, float]:
    """Reference: ``(total, max_per_key, max_fraction)`` by sorting."""
    if keys.size == 0:
        return 0, 0, 0.0
    mx = int(np.unique(keys, return_counts=True)[1].max())
    return int(keys.size), mx, mx / keys.size


class TestHotStatsFromKeys:
    @staticmethod
    def assert_equal_to_hot_spot_stats(keys, n):
        hot = HotStats.from_keys(keys, n)
        assert (hot.total_ops, hot.max_addr_ops, hot.max_unit_frac) == hot_spot_stats(keys)
        assert type(hot.total_ops) is int and type(hot.max_addr_ops) is int

    def test_random_streams(self):
        rng = np.random.default_rng(6)
        for n, k in [(1, 1), (8, 3), (50, 1000), (1 << 12, 5000)]:
            self.assert_equal_to_hot_spot_stats(rng.integers(0, n, size=k), n)

    def test_rmat_stream(self):
        g = rmat_graph(11, 8, seed=2)
        self.assert_equal_to_hot_spot_stats(np.concatenate([g.src, g.dst]), g.n)

    def test_single_hot_vertex(self):
        keys = np.full(777, 41, dtype=np.int64)
        self.assert_equal_to_hot_spot_stats(keys, 64)
        assert HotStats.from_keys(keys, 64) == HotStats(777, 777, 1.0)
        keys[::7] = 3
        self.assert_equal_to_hot_spot_stats(keys, 64)

    def test_empty(self):
        assert HotStats.from_keys(np.empty(0, dtype=np.int64), 16) == HotStats()


class TestPrimitives:
    def test_segment_ranks_basic(self):
        counts = np.array([3, 1, 0, 2], dtype=np.int64)
        assert bulkops.gather_index(np.zeros_like(counts), counts).tolist() == [0, 1, 2, 0, 0, 1]

    def test_segment_ranks_empty(self):
        empty = np.array([], dtype=np.int64)
        assert bulkops.gather_index(empty, empty).size == 0

    def test_group_runs(self):
        keys = np.array([2, 2, 5, 7, 7, 7], dtype=np.int64)
        vals, starts, counts = bulkops.group_runs(keys)
        assert vals.tolist() == [2, 5, 7]
        assert starts.tolist() == [0, 2, 3]
        assert counts.tolist() == [2, 1, 3]

    def test_group_runs_single_and_empty(self):
        vals, starts, counts = bulkops.group_runs(np.array([9], dtype=np.int64))
        assert (vals.tolist(), starts.tolist(), counts.tolist()) == ([9], [0], [1])
        vals, starts, counts = bulkops.group_runs(np.array([], dtype=np.int64))
        assert vals.size == starts.size == counts.size == 0

    def test_gather_index(self):
        offsets = np.array([10, 50], dtype=np.int64)
        counts = np.array([2, 3], dtype=np.int64)
        assert bulkops.gather_index(offsets, counts).tolist() == [10, 11, 50, 51, 52]

    def test_gather_index_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        offsets = rng.integers(0, 1000, size=20)
        counts = rng.integers(0, 8, size=20)
        expected = [o + j for o, c in zip(offsets, counts) for j in range(int(c))]
        assert bulkops.gather_index(offsets, counts).tolist() == expected

    @given(
        st.lists(
            st.tuples(st.integers(-1, 10_000), st.integers(0, 6)),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_gather_index_matches_concatenated_ranges(self, blocks):
        # Zero counts (including the -1 offset of an unallocated dyn-arr
        # block) and an empty input must contribute nothing.
        offsets = np.array([o for o, _ in blocks], dtype=np.int64)
        counts = np.array([c for _, c in blocks], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(o, o + c, dtype=np.int64) for o, c in blocks]
            + [np.empty(0, dtype=np.int64)]
        )
        got = bulkops.gather_index(offsets, counts)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


class TestAllocMany:
    def test_matches_sequential_allocs(self):
        sizes = np.array([4, 0, 7, 1], dtype=np.int64)
        a, b = IntPool(4), IntPool(4)
        offs = a.alloc_many(sizes)
        seq = [b.alloc(int(s)) for s in sizes]
        assert offs.tolist() == seq
        assert a.used == b.used

    def test_blocks_disjoint(self):
        pool = IntPool(2)
        sizes = np.array([3, 5, 2, 8], dtype=np.int64)
        offs = pool.alloc_many(sizes)
        spans = sorted(zip(offs.tolist(), sizes.tolist()))
        for (o1, s1), (o2, _s2) in zip(spans, spans[1:]):
            assert o1 + s1 <= o2

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            IntPool(4).alloc_many(np.array([2, -1], dtype=np.int64))

    def test_empty(self):
        pool = IntPool(4)
        assert pool.alloc_many(np.array([], dtype=np.int64)).size == 0
        assert pool.used == 0


def make(kind, n):
    """A ``kind`` instance over ``n`` vertices (dyn-arr-nr with room)."""
    extra = {"degrees": np.full(n, 256)} if kind == "dynarr-nr" else {}
    return make_representation(kind, n, **extra)


def full_state(rep):
    """Arc count, mutation count, every counter, footprint and export."""
    g = rep.to_csr()
    return (
        rep.n_arcs,
        rep.mutation_count,
        asdict(rep.combined_stats()),
        rep.memory_bytes(),
        g.offsets.tolist(),
        g.targets.tolist(),
        g.ts.tolist(),
    )


def seeded(rep, seed=0):
    """Give ``rep`` 200 arcs out of every vertex but the last, and an
    export its next one may patch."""
    rng = np.random.default_rng(seed)
    rep.bulk_insert(rng.integers(0, rep.n - 1, 200), rng.integers(0, rep.n, 200), rng.integers(0, 9, 200))
    rep.to_csr()
    return rep


class TestDispatchGate:
    def test_tombstone_matches_dynarr(self):
        # bulkops re-declares the sentinel to avoid an import cycle; the two
        # must never drift apart.
        assert bulkops.TOMBSTONE == TOMBSTONE

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIONS))
    def test_one_arc_takes_the_batch_path(self, kind, monkeypatch):
        # A one-arc batch, through either entry point, never enters the
        # per-op methods, and is applied: the arc lands, then one delete
        # hits and the next misses.
        rep = seeded(make(kind, 16))

        def refuse(*args):
            raise AssertionError("a batch entered the per-op path")

        for cls in (DynArrAdjacency, EPartAdjacency, TreapAdjacency, HybridAdjacency,
                    BatchedAdjacency):
            for name in ("insert", "delete", "apply_arcs_scalar", "bulk_insert_scalar"):
                monkeypatch.setattr(cls, name, refuse)
        rep.bulk_insert([15], [4], [5])
        assert rep.n_arcs == 201 and rep.degree(15) == 1
        assert rep.apply_arcs([-1], [15], [4], [0]) == 0
        assert rep.apply_arcs([-1], [15], [4], [0]) == 1
        assert rep.n_arcs == 200

    def test_empty_batch_never_vectorised(self, monkeypatch):
        # An empty batch changes nothing on any kind, through either entry
        # point: no arc, counter, mutation count, footprint or export moves,
        # and no kernel runs.
        for kind in sorted(REPRESENTATIONS):
            monkeypatch.undo()
            rep = seeded(make(kind, 16))
            before = full_state(rep)

            def refuse(*args):
                raise AssertionError(f"{kind}: an empty batch ran a kernel")

            for name in ("bulk_insert", "apply_mixed"):
                monkeypatch.setattr(bulkops, name, refuse)
            for name in ("_apply_run", "_build_run"):
                monkeypatch.setattr(TreapAdjacency, name, refuse)
            assert rep.apply_arcs([], [], [], []) == 0
            assert full_state(rep) == before, kind
            rep.bulk_insert([], [], [])
            assert full_state(rep) == before, kind

    def test_huge_vertex_count_is_refused(self):
        # Every kind refuses a vertex count whose arcs would not pack into
        # one int64 key, before it allocates anything.  The check runs in a
        # child whose address space is capped, so a regression fails with
        # MemoryError instead of allocating n-sized arrays.
        obj = DynArrAdjacency.__new__(DynArrAdjacency)
        AdjacencyRepresentation.__init__(obj, bulkops.MAX_KEY_N)
        with pytest.raises(VertexError):
            AdjacencyRepresentation.__init__(obj, bulkops.MAX_KEY_N + 1)
        code = textwrap.dedent("""
            import resource, tracemalloc
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
            import numpy as np
            from repro.adjacency import bulkops
            from repro.adjacency.registry import REPRESENTATIONS, make_representation
            from repro.errors import VertexError
            for kind in REPRESENTATIONS:
                extra = {"degrees": np.zeros(1)} if kind == "dynarr-nr" else {}
                tracemalloc.start()
                try:
                    make_representation(kind, bulkops.MAX_KEY_N + 1, **extra)
                except VertexError:
                    pass
                else:
                    raise SystemExit(kind + " was built")
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < 1 << 20, (kind, peak)
        """)
        src_dir = Path(bulkops.__file__).parents[2]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": str(src_dir), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0, proc.stderr


#: Ragged batches: one column cut or padded by one arc, at ``K`` arcs.
RAGGED = ["op-short", "dst-long", "ts-long", "ts-short"]


@pytest.mark.parametrize("case", RAGGED)
@pytest.mark.parametrize("entry", ["apply_arcs", "bulk_insert"])
@pytest.mark.parametrize("kind", sorted(REPRESENTATIONS))
def test_ragged_batch_is_rejected_whole(kind, entry, case):
    # Every column of a batch must have one length; a ragged batch raises
    # GraphError before any arc is applied.  ``bulk_insert`` has no op
    # column, so there ``op-short`` cuts its first column, ``src``.
    k = 64
    rng = np.random.default_rng(5)
    cols = {
        "op": np.where(rng.random(k + 1) < 0.6, 1, -1).astype(np.int8),
        "src": rng.integers(0, 16, k + 1),
        "dst": rng.integers(0, 16, k + 1),
        "ts": rng.integers(0, 9, k + 1),
    }
    name, size = {"op-short": ("op", k - 1), "dst-long": ("dst", k + 1),
                  "ts-long": ("ts", k + 1), "ts-short": ("ts", k - 1)}[case]
    if entry == "bulk_insert" and name == "op":
        name = "src"
    batch = {c: a[: size if c == name else k] for c, a in cols.items()}
    rep = seeded(make(kind, 16))
    before = full_state(rep)
    with pytest.raises(GraphError, match="length mismatch"):
        if entry == "apply_arcs":
            rep.apply_arcs(batch["op"], batch["src"], batch["dst"], batch["ts"])
        else:
            rep.bulk_insert(batch["src"], batch["dst"], batch["ts"])
    assert full_state(rep) == before


class TestMutationCounter:
    def test_counter_moves_on_every_structural_change(self):
        rep = DynArrAdjacency(4)
        k0 = rep.mutation_count
        rep.insert(0, 1)
        k1 = rep.mutation_count
        assert k1 > k0
        rep.delete(0, 1)
        assert rep.mutation_count > k1

    def test_counter_moves_on_balanced_mix(self):
        # The stale-snapshot bug: arc count returns to its old value, the
        # mutation counter must not.
        rep = DynArrAdjacency(4)
        rep.insert(0, 1)
        before = rep.mutation_count
        n_arcs = rep.n_arcs
        rep.apply_arcs(
            np.array([1, -1], dtype=np.int8),
            np.array([2, 0], dtype=np.int64),
            np.array([3, 1], dtype=np.int64),
            np.zeros(2, dtype=np.int64),
        )
        assert rep.n_arcs == n_arcs
        assert rep.mutation_count > before

    def test_miss_only_stream_may_cache(self):
        rep = DynArrAdjacency(4)
        rep.insert(0, 1)
        rep.delete(3, 2)  # miss: no structural change required
        assert rep.degree(3) == 0
