"""Benchmark: vectorised bulk-update kernels vs the scalar reference loops.

Per-representation structural-update throughput with the
:mod:`repro.adjacency.bulkops` fast path on, with the scalar time measured
inline for the speedup ratio.  Five hard assertions back the PRs'
acceptance criteria:

* the vectorised ``apply_arcs`` is at least 5x faster than the scalar loop
  on a 1M-update insertion stream into Dyn-arr;
* the snapshot export (``rep.to_csr()``:
  offsets from the live degrees, arcs gathered straight into CSR) is at
  least 5x faster than the scalar export + generic CSR build on Dyn-arr;
* the ``hybrid`` export (both sides writing into one CSR: array-side
  gather plus the level-synchronous treap scatter) is at least 2x faster
  than the per-vertex walk on a scale-14 R-MAT graph after a mixed stream,
  and bit-equal to it;
* the ``hybrid`` bulk ``apply_arcs`` (array kernels + the treap's fused
  arrival-order run) is at least 1.3x faster than the per-op replay on the
  same scale-14 graph and stream, and leaves a bit-equal structure;
* no representation's vectorised path is slower than its scalar path
  (beyond timing noise).

Every gate is a ratio measured inside the test (the CI ``kernel-gates``
job runs them); absolute host timings are ``bench/``'s to record.
"""

import time
from dataclasses import asdict

import numpy as np
import pytest

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


def _scalar_seconds(kind, n, op, src, dst, ts):
    rep = _build(kind, n)
    t0 = time.perf_counter()
    rep.apply_arcs_scalar(op, src, dst, ts)
    return time.perf_counter() - t0


def test_bulk_insert_dynarr_1m(benchmark):
    """Acceptance headline: >=5x on a 1M-update insertion stream."""
    op, src, dst, ts = _stream(M_LARGE, N)

    def vectorised():
        rep = _build("dynarr", N)
        rep.apply_arcs(op, src, dst, ts)
        return rep

    rep = benchmark.pedantic(vectorised, rounds=3, iterations=1, warmup_rounds=0)
    vec_seconds = float(benchmark.stats.stats.mean)
    scalar_seconds = _scalar_seconds("dynarr", N, op, src, dst, ts)
    speedup = scalar_seconds / vec_seconds

    assert rep.n_arcs == M_LARGE
    benchmark.extra_info["n_updates"] = M_LARGE
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 6)
    benchmark.extra_info["vectorised_mups"] = round(M_LARGE / vec_seconds / 1e6, 3)
    benchmark.extra_info["scalar_mups"] = round(M_LARGE / scalar_seconds / 1e6, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 5.0, f"vectorised insert only {speedup:.1f}x faster"


def test_snapshot_pipeline_csr_1m(benchmark):
    """Acceptance headline: the direct CSR export >=5x over the scalar export."""
    op, src, dst, ts = _stream(M_LARGE, N)
    rep = _build("dynarr", N)
    rep.apply_arcs(op, src, dst, ts)

    csr = benchmark.pedantic(rep.to_csr, rounds=3, iterations=1, warmup_rounds=0)
    vec_seconds = float(benchmark.stats.stats.mean)

    t0 = time.perf_counter()
    s_src, s_dst, s_ts = rep.to_arrays_scalar()
    slow = csr_from_arrays(rep.n, s_src, s_dst, s_ts)
    scalar_seconds = time.perf_counter() - t0
    speedup = scalar_seconds / vec_seconds

    np.testing.assert_array_equal(csr.offsets, slow.offsets)
    np.testing.assert_array_equal(csr.targets, slow.targets)
    benchmark.extra_info["n_arcs"] = rep.n_arcs
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 5.0, f"zero-copy snapshot only {speedup:.1f}x faster"


def test_snapshot_pipeline_hybrid(benchmark):
    """Rotation cost on ``hybrid``: the export must beat the per-vertex walk >=2x."""
    base = rmat_graph(14, 8, seed=SEED)
    g = DynamicGraph.from_edgelist(base, representation="hybrid")
    fresh = rmat_graph(14, 16, seed=SEED + 1)
    g.apply(mixed_stream(base, 49152, 0.75, SEED + 2, insert_edges=fresh))
    rep = g.rep

    fast = benchmark.pedantic(rep.to_csr, rounds=5, iterations=1, warmup_rounds=1)
    vec_seconds = float(benchmark.stats.stats.mean)
    t0 = time.perf_counter()
    s_src, s_dst, s_ts = rep.to_arrays_scalar()
    scalar_seconds = time.perf_counter() - t0
    speedup = scalar_seconds / vec_seconds

    slow = csr_from_arrays(rep.n, s_src, s_dst, s_ts)
    for name in ("offsets", "targets", "ts"):
        np.testing.assert_array_equal(getattr(fast, name), getattr(slow, name))
    benchmark.extra_info["n_arcs"] = rep.n_arcs
    benchmark.extra_info["n_treap_arcs"] = rep.treap.n_arcs
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 2.0, f"hybrid export only {speedup:.1f}x faster than the walk"


def test_mixed_apply_hybrid(benchmark):
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

    def bulk(rep):
        return rep, rep.apply_arcs(op, src, dst, ts)

    rep, misses = benchmark.pedantic(
        bulk, setup=lambda: ((fresh_rep(),), {}), rounds=3, iterations=1, warmup_rounds=0
    )
    bulk_seconds = float(benchmark.stats.stats.mean)
    twin = fresh_rep()
    t0 = time.perf_counter()
    twin_misses = twin.apply_arcs_scalar(op, src, dst, ts)
    scalar_seconds = time.perf_counter() - t0
    speedup = scalar_seconds / bulk_seconds

    assert misses == twin_misses
    assert asdict(rep.combined_stats()) == asdict(twin.combined_stats())
    assert (rep.n_arcs, rep.memory_bytes()) == (twin.n_arcs, twin.memory_bytes())
    assert bytes(rep.mode) == bytes(twin.mode)
    for a, b in zip(rep.to_arrays(), twin.to_arrays()):
        np.testing.assert_array_equal(a, b)
    benchmark.extra_info["n_arc_ops"] = int(op.size)
    benchmark.extra_info["n_treap_arcs"] = rep.treap.n_arcs
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 1.3, f"hybrid bulk apply only {speedup:.2f}x faster than per-op"


@pytest.mark.parametrize(
    "kind", ["dynarr", "dynarr-nr", "treap", "hybrid", "vpart", "epart", "batched"]
)
def test_bulk_updates_representation(benchmark, kind):
    """Mixed 70/30 stream per representation; vectorised must not lose."""
    n = 10_000
    op, src, dst, ts = _stream(M_SMALL, n, insert_frac=0.7)

    def vectorised():
        rep = _build(kind, n)
        rep.apply_arcs(op, src, dst, ts)
        return rep

    rep = benchmark.pedantic(vectorised, rounds=3, iterations=1, warmup_rounds=0)
    vec_seconds = float(benchmark.stats.stats.mean)
    scalar_seconds = _scalar_seconds(kind, n, op, src, dst, ts)
    ratio = vec_seconds / scalar_seconds

    benchmark.extra_info["n_updates"] = M_SMALL
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 6)
    benchmark.extra_info["vectorised_mups"] = round(M_SMALL / vec_seconds / 1e6, 3)
    benchmark.extra_info["scalar_mups"] = round(M_SMALL / scalar_seconds / 1e6, 3)
    benchmark.extra_info["speedup"] = round(1.0 / ratio, 2)
    assert rep.n_arcs > 0
    assert ratio <= NOISE, (
        f"{kind}: vectorised path slower than scalar "
        f"({vec_seconds:.3f}s vs {scalar_seconds:.3f}s)"
    )
