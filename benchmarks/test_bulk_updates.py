"""Gates: vectorised bulk-update kernels vs the scalar reference loops.

Each vectorised time is the mean of its rounds, each scalar time one run,
both measured here:

* the vectorised ``apply_arcs`` is at least 5x faster than the scalar loop
  on a 1M-update insertion stream into Dyn-arr;
* the snapshot export (``rep.to_csr()``: offsets from the live degrees,
  arcs gathered straight into CSR) is at least 5x faster than the scalar
  export + generic CSR build on Dyn-arr;
* the ``hybrid`` export (both sides writing into one CSR: array-side
  gather plus the level-synchronous treap scatter) is at least 2x faster
  than the per-vertex walk on a scale-14 R-MAT graph after a mixed stream,
  and bit-equal to it;
* the ``hybrid`` bulk ``apply_arcs`` (array kernels + the treap's fused
  arrival-order run) is at least 1.3x faster than the per-op replay on the
  same scale-14 graph and stream, and leaves a bit-equal structure;
* no representation's vectorised path is slower than its scalar path
  (beyond timing noise).
"""

from dataclasses import asdict
from statistics import fmean

import numpy as np
import pytest

from benchmarks.conftest import best_of
from repro.adjacency.batch import BatchedAdjacency
from repro.adjacency.csr import csr_from_arrays
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.epart import EPartAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.treap import TreapAdjacency
from repro.adjacency.vpart import VPartAdjacency
from repro.api import DynamicGraph
from repro.generators import mixed_stream, rmat_graph

N = 100_000
M_LARGE = 1_000_000
M_SMALL = 100_000
SEED = 31

#: Noise allowance for the "vectorised never slower" assertion.
NOISE = 1.35


def _build(kind, n):
    if kind == "dynarr":
        return DynArrAdjacency(n)
    if kind == "dynarr-nr":
        # Generous uniform budget: the random stream is near-uniform.
        return DynArrAdjacency.preallocated(n, np.full(n, 64))
    if kind == "treap":
        return TreapAdjacency(n, seed=SEED)
    if kind == "hybrid":
        return HybridAdjacency(n, seed=SEED)
    if kind == "vpart":
        return VPartAdjacency(n)
    if kind == "epart":
        return EPartAdjacency(n)
    if kind == "batched":
        return BatchedAdjacency(n)
    raise AssertionError(kind)


def _stream(m, n, insert_frac=1.1, seed=SEED):
    rng = np.random.default_rng(seed)
    op = np.where(rng.random(m) < insert_frac, 1, -1).astype(np.int8)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    ts = np.arange(m, dtype=np.int64)
    return op, src, dst, ts


def _vectorised_seconds(kind, n, op, src, dst, ts):
    def run():
        rep = _build(kind, n)
        rep.apply_arcs(op, src, dst, ts)
        return rep

    return best_of(run, 3, stat=fmean)


def _scalar_seconds(kind, n, op, src, dst, ts):
    rep = _build(kind, n)
    return best_of(lambda: rep.apply_arcs_scalar(op, src, dst, ts), 1)[0]


def test_bulk_insert_dynarr_1m():
    """Acceptance headline: >=5x on a 1M-update insertion stream."""
    op, src, dst, ts = _stream(M_LARGE, N)
    vec_seconds, rep = _vectorised_seconds("dynarr", N, op, src, dst, ts)
    speedup = _scalar_seconds("dynarr", N, op, src, dst, ts) / vec_seconds

    assert rep.n_arcs == M_LARGE
    assert speedup >= 5.0, f"vectorised insert only {speedup:.1f}x faster"


def test_snapshot_pipeline_csr_1m():
    """Acceptance headline: the direct CSR export >=5x over the scalar export."""
    op, src, dst, ts = _stream(M_LARGE, N)
    rep = _build("dynarr", N)
    rep.apply_arcs(op, src, dst, ts)

    vec_seconds, csr = best_of(rep.to_csr, 3, stat=fmean)
    scalar_seconds, slow = best_of(
        lambda: csr_from_arrays(rep.n, *rep.to_arrays_scalar()), 1
    )
    speedup = scalar_seconds / vec_seconds

    np.testing.assert_array_equal(csr.offsets, slow.offsets)
    np.testing.assert_array_equal(csr.targets, slow.targets)
    assert speedup >= 5.0, f"zero-copy snapshot only {speedup:.1f}x faster"


def test_snapshot_pipeline_hybrid():
    """Rotation cost on ``hybrid``: the export must beat the per-vertex walk >=2x."""
    base = rmat_graph(14, 8, seed=SEED)
    g = DynamicGraph.from_edgelist(base, representation="hybrid")
    fresh = rmat_graph(14, 16, seed=SEED + 1)
    g.apply(mixed_stream(base, 49152, 0.75, SEED + 2, insert_edges=fresh))
    rep = g.rep

    rep.to_csr()  # warm-up round
    vec_seconds, fast = best_of(rep.to_csr, 5, stat=fmean)
    scalar_seconds, (s_src, s_dst, s_ts) = best_of(rep.to_arrays_scalar, 1)
    speedup = scalar_seconds / vec_seconds

    slow = csr_from_arrays(rep.n, s_src, s_dst, s_ts)
    for name in ("offsets", "targets", "ts"):
        np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name))
    assert speedup >= 2.0, f"hybrid export only {speedup:.1f}x faster than the walk"


def test_mixed_apply_hybrid():
    """Apply cost on ``hybrid``: the partitioned bulk path must beat the
    per-op replay >=1.3x on a treap-heavy mixed stream, bit for bit."""
    base = rmat_graph(14, 8, seed=SEED)
    fresh = rmat_graph(14, 16, seed=SEED + 1)
    stream = mixed_stream(base, 49152, 0.75, SEED + 2, insert_edges=fresh)
    # Each undirected update as its two arcs, interleaved (as apply_stream does).
    op, ts = np.repeat(stream.op, 2), np.repeat(stream.ts, 2)
    src = np.stack((stream.src, stream.dst), axis=1).ravel()
    dst = np.stack((stream.dst, stream.src), axis=1).ravel()

    def fresh_rep():
        return DynamicGraph.from_edgelist(base, representation="hybrid").rep

    reps = iter([fresh_rep() for _ in range(3)])  # built outside the clock

    def bulk():
        rep = next(reps)
        return rep, rep.apply_arcs(op, src, dst, ts)

    bulk_seconds, (rep, misses) = best_of(bulk, 3, stat=fmean)
    twin = fresh_rep()
    scalar_seconds, twin_misses = best_of(lambda: twin.apply_arcs_scalar(op, src, dst, ts), 1)
    speedup = scalar_seconds / bulk_seconds

    assert misses == twin_misses
    assert asdict(rep.combined_stats()) == asdict(twin.combined_stats())
    assert (rep.n_arcs, rep.memory_bytes()) == (twin.n_arcs, twin.memory_bytes())
    assert bytes(rep.mode) == bytes(twin.mode)
    for a, b in zip(rep.to_arrays(), twin.to_arrays()):
        np.testing.assert_array_equal(a, b)
    assert speedup >= 1.3, f"hybrid bulk apply only {speedup:.2f}x faster than per-op"


@pytest.mark.parametrize(
    "kind", ["dynarr", "dynarr-nr", "treap", "hybrid", "vpart", "epart", "batched"]
)
def test_bulk_updates_representation(kind):
    """Mixed 70/30 stream per representation; vectorised must not lose."""
    n = 10_000
    op, src, dst, ts = _stream(M_SMALL, n, insert_frac=0.7)
    vec_seconds, rep = _vectorised_seconds(kind, n, op, src, dst, ts)
    scalar_seconds = _scalar_seconds(kind, n, op, src, dst, ts)

    assert rep.n_arcs > 0
    assert vec_seconds / scalar_seconds <= NOISE, (
        f"{kind}: vectorised path slower than scalar "
        f"({vec_seconds:.3f}s vs {scalar_seconds:.3f}s)"
    )
