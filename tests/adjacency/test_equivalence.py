"""Scalar vs vectorised equivalence for every registry representation.

The contract of :mod:`repro.adjacency.bulkops` is *bit-identical observable
state*: for the same update stream, the vectorised kernels must leave every
representation with exactly the same adjacency contents (per-vertex order
included), the same miss count, the same ``UpdateStats`` counters (inserts,
deletes, misses, probe words, resize events/copied words, treap counters,
migrations), the same live-arc count and the same ``memory_bytes``.  These
tests drive two twins through identical streams — one through
``apply_arcs`` with every batch size on the bulk path, the other through the
per-op ``apply_arcs_scalar`` — with seeded sweeps across all seven kinds,
plus hypothesis-generated adversarial streams for the dyn-arr family, and
diff all of it.  At the shipped :data:`~repro.adjacency.bulkops.MIN_BULK_SIZE`
the batch size is the one thing that picks the path; the last test holds
both sides of that cut to the same contract.

Every stream runs with the retired tier variable left in the environment,
naming ``vectorised`` and the deleted ``compiled`` tier: nothing reads it,
so neither may change a path or a result.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adjacency import bulkops
from repro.adjacency.batch import BatchedAdjacency
from repro.adjacency.csr import csr_from_arrays
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.epart import EPartAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.treap import TreapAdjacency
from repro.adjacency.vpart import VPartAdjacency
from tests.retired_tier import stale_tier

KINDS = ["dynarr", "dynarr-nr", "treap", "hybrid", "vpart", "epart", "batched"]

#: The kinds that apply a whole batch at the cut with the dyn-arr bulk kernels.
DYNARR_FAMILY = ["dynarr", "dynarr-nr", "vpart", "epart", "batched"]

#: Values a stale environment may hold in the retired tier variable.
TIERS = ["vectorised", "compiled"]


def build(kind, n, seed=7):
    """Two structurally identical instances (same seeds where relevant)."""
    if kind == "dynarr":
        return DynArrAdjacency(n, initial_capacity=2)
    if kind == "dynarr-nr":
        return DynArrAdjacency.preallocated(n, np.full(n, 2048))
    if kind == "treap":
        return TreapAdjacency(n, seed=seed)
    if kind == "hybrid":
        return HybridAdjacency(n, degree_thresh=5, seed=seed)
    if kind == "vpart":
        return VPartAdjacency(n)
    if kind == "epart":
        return EPartAdjacency(n, split_thresh=4)
    if kind == "batched":
        return BatchedAdjacency(n)
    raise AssertionError(kind)


def full_stats(rep):
    combined = getattr(rep, "combined_stats", None)
    return asdict(combined() if callable(combined) else rep.stats)


def observable_state(rep):
    """Everything the equivalence contract promises, as one comparable dict."""
    return {
        "n_arcs": rep.n_arcs,
        "memory_bytes": rep.memory_bytes(),
        "stats": full_stats(rep),
        "adjacency": [
            tuple(map(tuple, map(np.ndarray.tolist, rep.neighbors_with_ts(u))))
            for u in range(rep.n)
        ],
    }


def size_for(src, dst):
    return max(int(src.max(initial=0)) + 1, int(dst.max(initial=0)) + 1, 2)


def apply_bulk(rep, op, src, dst, ts):
    """``rep.apply_arcs`` with every non-empty batch, however small (and the
    hybrid's array half of one), on the bulk path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bulkops, "MIN_BULK_SIZE", 1)
        return rep.apply_arcs(op, src, dst, ts)


def check_stream(kind, op, src, dst, ts, tier):
    """Full equivalence check of one stream under a stale ``tier``: bulk
    path vs per-op twin."""
    n = size_for(src, dst)
    vec, ref = build(kind, n), build(kind, n)
    with stale_tier(tier):
        m_vec = apply_bulk(vec, op, src, dst, ts)
        m_ref = ref.apply_arcs_scalar(op, src, dst, ts)
    assert_equivalent(vec, ref, m_vec, m_ref)


def assert_equivalent(vec, ref, m_vec, m_ref):
    assert m_vec == m_ref, "miss counts differ"
    sv, sr = observable_state(vec), observable_state(ref)
    assert sv["stats"] == sr["stats"], {
        k: (sv["stats"][k], sr["stats"][k])
        for k in sv["stats"]
        if sv["stats"][k] != sr["stats"][k]
    }
    assert sv == sr
    # to_arrays must agree element-for-element with the scalar export.
    for a, b in zip(vec.to_arrays(), ref.to_arrays_scalar()):
        assert np.array_equal(a, b)


def make_stream(rng, n, k, insert_frac):
    op = np.where(rng.random(k) < insert_frac, 1, -1).astype(np.int8)
    src = rng.integers(0, n, size=k)
    dst = rng.integers(0, n, size=k)
    ts = rng.integers(0, 1000, size=k)
    return op, src, dst, ts


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("kind", KINDS)
class TestSeededEquivalence:
    def test_mixed_stream(self, kind, tier):
        for trial in range(8):
            rng = np.random.default_rng(100 * trial + 1)
            op, src, dst, ts = make_stream(rng, 10, 500, 0.6)
            check_stream(kind, op, src, dst, ts, tier)

    def test_insert_only_stream(self, kind, tier):
        rng = np.random.default_rng(2)
        op, src, dst, ts = make_stream(rng, 16, 800, 1.1)  # all inserts
        check_stream(kind, op, src, dst, ts, tier)

    def test_delete_heavy_stream(self, kind, tier):
        # Mostly deletes against a sparse structure: exercises the miss path.
        rng = np.random.default_rng(3)
        op, src, dst, ts = make_stream(rng, 8, 400, 0.25)
        check_stream(kind, op, src, dst, ts, tier)

    def test_duplicates_and_self_loops(self, kind, tier):
        # Heavy duplication (tiny value range) plus forced self-loops: the
        # delete matcher must consume duplicate occurrences in FIFO order.
        rng = np.random.default_rng(4)
        k = 600
        op = np.where(rng.random(k) < 0.55, 1, -1).astype(np.int8)
        src = rng.integers(0, 3, size=k)
        dst = rng.integers(0, 3, size=k)
        loops = rng.random(k) < 0.3
        dst[loops] = src[loops]
        ts = rng.integers(0, 50, size=k)
        check_stream(kind, op, src, dst, ts, tier)

    def test_interleaved_same_key_stream(self, kind, tier):
        # Insert/delete/insert/delete on one (u, v) pair — the worst case for
        # the batch-internal supply/demand matching.
        k = 120
        op = np.tile(np.array([1, -1, 1, 1, -1, -1], dtype=np.int8), k // 6)
        src = np.zeros(k, dtype=np.int64)
        dst = np.ones(k, dtype=np.int64)
        ts = np.arange(k, dtype=np.int64)
        check_stream(kind, op, src, dst, ts, tier)

    def test_multi_batch_accumulation(self, kind, tier):
        # Several consecutive batches: later batches start from non-empty
        # structures, exercising the pre-existing-supply path.
        n = 6
        vec, ref = build(kind, n), build(kind, n)
        for trial in range(5):
            rng = np.random.default_rng(50 + trial)
            op, src, dst, ts = make_stream(rng, n, 200, 0.55)
            with stale_tier(tier):
                m_vec = apply_bulk(vec, op, src, dst, ts)
                m_ref = ref.apply_arcs_scalar(op, src, dst, ts)
            assert_equivalent(vec, ref, m_vec, m_ref)


hypothesis_stream = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=200,
)


@pytest.mark.parametrize("tier", TIERS)
class TestHypothesisEquivalence:
    @given(hypothesis_stream)
    @settings(max_examples=60, deadline=None)
    def test_dynarr(self, tier, stream):
        self._run("dynarr", stream, tier)

    @given(hypothesis_stream)
    @settings(max_examples=40, deadline=None)
    def test_hybrid(self, tier, stream):
        self._run("hybrid", stream, tier)

    @given(hypothesis_stream)
    @settings(max_examples=30, deadline=None)
    def test_epart(self, tier, stream):
        self._run("epart", stream, tier)

    @staticmethod
    def _run(kind, stream, tier):
        op = np.array([1 if i else -1 for i, _, _ in stream], dtype=np.int8)
        src = np.array([u for _, u, _ in stream], dtype=np.int64)
        dst = np.array([v for _, _, v in stream], dtype=np.int64)
        ts = np.arange(op.size, dtype=np.int64)
        check_stream(kind, op, src, dst, ts, tier)


class TestSnapshotPipeline:
    def test_grouped_csr_equals_sorted_csr(self):
        # The direct export (already grouped) equals the scalar export with
        # its source groups reversed, so csr_from_arrays must semisort it.
        rng = np.random.default_rng(9)
        rep = DynArrAdjacency(50)
        op, src, dst, ts = make_stream(rng, 50, 2000, 0.7)
        rep.apply_arcs(op, src, dst, ts)
        fast = rep.to_csr()
        s_src, s_dst, s_ts = rep.to_arrays_scalar()
        flip = np.argsort(-s_src, kind="stable")
        slow = csr_from_arrays(rep.n, s_src[flip], s_dst[flip], s_ts[flip])
        assert np.array_equal(fast.offsets, slow.offsets)
        assert np.array_equal(fast.targets, slow.targets)
        assert np.array_equal(fast.ts, slow.ts)

    def test_unsorted_source_is_grouped(self):
        src = np.array([3, 0, 1, 0], dtype=np.int64)
        dst = np.array([1, 2, 0, 3], dtype=np.int64)
        g = csr_from_arrays(4, src, dst)
        assert g.neighbors(0).tolist() == [2, 3]
        assert g.neighbors(3).tolist() == [1]
        # A sorted source column is the semisort's identity: the payload is
        # used as given, not gathered.
        grouped = csr_from_arrays(4, np.sort(src), dst)
        assert np.shares_memory(grouped.targets, dst)

    @pytest.mark.parametrize("kind", KINDS)
    def test_representation_snapshot_consistent(self, kind):
        rng = np.random.default_rng(11)
        rep = build(kind, 9)
        op, src, dst, ts = make_stream(rng, 9, 300, 0.65)
        rep.apply_arcs(op, src, dst, ts)
        g = rep.to_csr()
        assert g.n_arcs == rep.n_arcs
        for u in range(rep.n):
            nbr, t = rep.neighbors_with_ts(u)
            cn, ct = g.neighbors_with_ts(u)
            assert nbr.tolist() == cn.tolist()
            assert t.tolist() == ct.tolist()


@pytest.mark.parametrize("insert_frac", [1.1, 0.6], ids=["insert-only", "mixed"])
@pytest.mark.parametrize(
    "size", [bulkops.MIN_BULK_SIZE - 1, bulkops.MIN_BULK_SIZE], ids=["below-cut", "at-cut"]
)
@pytest.mark.parametrize("kind", KINDS)
def test_batch_size_cut(kind, size, insert_frac):
    # At the shipped threshold, a batch one arc short of the cut takes the
    # per-op loop and a batch at the cut the bulk path; both leave what the
    # per-op twin leaves.  The batch lands on a structure that already holds
    # arcs, so the mixed batch's deletes hit.
    n = 10
    rng = np.random.default_rng(size)
    base = make_stream(rng, n, 30, 1.1)
    op, src, dst, ts = make_stream(rng, n, size, insert_frac)
    assert (op == -1).any() == (insert_frac < 1)
    rep, twin = build(kind, n), build(kind, n)
    rep.apply_arcs_scalar(*base)
    twin.apply_arcs_scalar(*base)
    m_rep = rep.apply_arcs(op, src, dst, ts)
    m_twin = twin.apply_arcs_scalar(op, src, dst, ts)
    assert_equivalent(rep, twin, m_rep, m_twin)
    if kind in DYNARR_FAMILY:
        assert (rep.vectorised_arc_ops > 0) == (size >= bulkops.MIN_BULK_SIZE)
