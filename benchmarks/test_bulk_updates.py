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
* the ``hybrid`` construction (``bulk_insert``: each treap empty at the
  batch's start built as one Cartesian tree) is at least 2.5x faster than
  ``apply_arcs`` of the same all-insert stream (the fused arrival-order
  run) on the scale-14 R-MAT base, and leaves a bit-equal structure;
* the ``hybrid`` export after a mixed batch (the last export patched) is
  bit-equal to the full walk in at most half its time, and the treap
  forest stays within 3 * ceil(log2(largest treap)) levels;
* no representation's vectorised path is slower than its scalar path
  (beyond timing noise);
* growing the ``dynarr`` pool through an R-MAT construction faults in no
  more pages than ``model_bytes()`` spans: a pool past its reservation
  floor re-slices one reservation instead of copying into fresh pages.
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from statistics import fmean, median

import numpy as np
import pytest

import repro
from benchmarks.conftest import best_of
from repro.adjacency.batch import BatchedAdjacency
from repro.adjacency.csr import csr_from_arrays
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.epart import EPartAdjacency
from repro.adjacency.hybrid import HybridAdjacency
from repro.adjacency.treap import TreapAdjacency
from repro.adjacency.vpart import VPartAdjacency
from repro.api import DynamicGraph
from repro.generators import iter_batches, mixed_stream, rmat_graph
from repro.obs import METRICS

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
    assert (rep.n_arcs, rep.model_bytes()) == (twin.n_arcs, twin.model_bytes())
    assert bytes(rep.mode) == bytes(twin.mode)
    for a, b in zip(rep.to_arrays(), twin.to_arrays()):
        np.testing.assert_array_equal(a, b)
    assert speedup >= 1.3, f"hybrid bulk apply only {speedup:.2f}x faster than per-op"


def _structure(rep: HybridAdjacency) -> dict:
    """Everything a hybrid holds, counters but ``nodes_visited`` /
    ``rotations`` included: the two construction paths differ only there."""
    t = rep.treap
    stats = asdict(rep.combined_stats())
    del stats["nodes_visited"], stats["rotations"]
    return {
        "mode": bytes(rep.mode),
        "arr": [a.tobytes() for a in (rep.arr.off, rep.arr.cap, rep.arr.cnt, rep.arr.live)],
        "arr_arcs": [a.tobytes() for a in rep.arr.to_arrays()],
        "pool": [buf.tobytes() for buf in (t._key, t._prio, t._left, t._right, t._ts)],
        "roots": t.root.tobytes(),
        "live_deg": t._live_deg.tobytes(),
        "free": list(t._free),
        "seq": t._seq.tobytes(),
        "stats": stats,
        "migrations": (rep.stats.migrations, rep.stats.migration_words),
        "sizes": (rep.n_arcs, rep.model_bytes()),
        "arcs": [a.tobytes() for a in rep.to_arrays()],
    }


def test_construction_build_hybrid():
    """Construction on ``hybrid``: ``bulk_insert``'s Cartesian-tree build
    must beat the fused arrival-order run >=2.5x, bit for bit."""
    base = rmat_graph(14, 8, seed=SEED)
    src = np.concatenate((base.src, base.dst))
    dst = np.concatenate((base.dst, base.src))
    ts = None if base.ts is None else np.concatenate((base.ts, base.ts))
    op = np.ones(src.size, dtype=np.int8)

    def built():
        rep = HybridAdjacency(base.n, seed=SEED)
        rep.bulk_insert(src, dst, ts)
        return rep

    def replayed():
        rep = HybridAdjacency(base.n, seed=SEED)
        rep.apply_arcs(op, src, dst, ts)
        return rep

    build_seconds, rep = best_of(built, 5, stat=median)
    run_seconds, twin = best_of(replayed, 5, stat=median)
    speedup = run_seconds / build_seconds

    assert rep.stats.migrations > 0 and rep.stats.rotations == 0
    assert _structure(rep) == _structure(twin)
    assert speedup >= 2.5, f"hybrid construction build only {speedup:.2f}x faster than the run"


def _forest_levels(t: TreapAdjacency) -> int:
    """Levels of the whole treap forest: the deepest treap's node count on
    its longest root-to-leaf path."""
    left, right, roots = (np.frombuffer(a, dtype=np.int64) for a in (t._left, t._right, t.root))
    nodes, levels = roots[roots >= 0], 0
    while nodes.size:
        kids = np.concatenate((left[nodes], right[nodes]))
        nodes, levels = kids[kids >= 0], levels + 1
    return levels


def test_patched_export_hybrid():
    """Rotations on ``hybrid`` (the mixed-update recipe of ``serve_churn``:
    scale 14, batches of 1 024 updates): each export after a batch is the
    last one patched, bit-equal to the full walk (``_scatter_inorder``) in
    at most half its time, median over 12 batches (0.29 measured; 0.44 with
    ``batch_mixed``'s 4 096-update batches); the self-check never fires.
    Equal keys in arrival order keep the treap forest logarithmic: at most
    3 * ceil(log2(largest treap)) levels (a random treap of n nodes is
    about 2.99 * log2(n) deep; 29-33 levels measured)."""
    base = rmat_graph(14, 8, seed=SEED)
    fresh = rmat_graph(14, 16, seed=SEED + 1)
    stream = mixed_stream(base, 12 * 1024, 0.75, SEED + 2, insert_edges=fresh,
                          delete_mode="existing")
    g = DynamicGraph.from_edgelist(base, representation="hybrid")
    rep = g.rep
    g.snapshot()
    counters = [METRICS.counter(f"adjacency.export_{c}") for c in ("patches", "patch_mismatches")]
    before = [c.value for c in counters]
    patch_seconds, walk_seconds = [], []
    for b in iter_batches(stream, 1024):
        g.apply(b)
        seconds, got = best_of(rep.to_csr, 1)
        patch_seconds.append(seconds)
        seconds, want = best_of(rep._walk_csr, 1)
        walk_seconds.append(seconds)
        for name in ("offsets", "targets", "ts"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert [c.value - b for c, b in zip(counters, before)] == [12, 0]
    share = median(patch_seconds) / median(walk_seconds)
    assert share <= 0.5, f"patched export took {share:.2f} of the walk's time"
    largest = int(np.frombuffer(rep.treap._live_deg, dtype=np.int64).max())
    assert _forest_levels(rep.treap) <= 3 * (largest - 1).bit_length()


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


#: ``memory_bytes()`` after that construction: four int64 headers of 2**17
#: vertices (4 MiB) and an int32 pool of 2 columns by 2**22 slots (32 MiB),
#: of which reused blocks leave 3 710 558 slots used for 3 022 182 slots of
#: live capacity.  The model (``model_bytes()``) charges 138 412 032.
HOST_BYTES = 37_748_736

#: Child for ``test_pool_growth_faults``: THP off for itself only, then the
#: R-MAT scale-17 construction (16 chunks of 65 536 edges, seed 7) with
#: ``ru_minflt`` summed around each apply.  One warm-up construction first
#: (the heap's high-water mark), then the best of three.
_FAULTS_CHILD = """
import ctypes, json, resource
ok = ctypes.CDLL(None).prctl(41, 1, 0, 0, 0) == 0  # PR_SET_THP_DISABLE
from repro.api import DynamicGraph
from repro.generators.parallel import iter_update_chunks

def construct():
    g, faults = DynamicGraph(1 << 17, "dynarr"), 0
    for chunk in iter_update_chunks(17, edge_factor=8, seed=7, chunk_edges=65536):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        g.apply(chunk)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults, g.memory_bytes(), g.rep.model_bytes()

construct()
runs = [construct() for _ in range(3)]
print(json.dumps({"thp_off": ok, "faults": min(f for f, _, _ in runs),
                  "memory_bytes": runs[0][1], "model_bytes": runs[0][2],
                  "page": resource.getpagesize()}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl and ru_minflt are Linux")
def test_pool_growth_faults():
    """Apply-stage page faults of a chunked construction stay within the
    pages the model footprint spans: pool growth copies nothing into fresh
    pages.  The host arrays (int32 slots, reused blocks) are pinned too."""
    path = [str(Path(repro.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS_CHILD], env=env, capture_output=True, text=True, check=True
    )
    got = json.loads(out.stdout.splitlines()[-1])
    if not got["thp_off"]:
        pytest.skip("PR_SET_THP_DISABLE refused: faults would count huge pages")
    pages = got["model_bytes"] // got["page"]
    assert got["model_bytes"] == 138_412_032
    assert got["memory_bytes"] == HOST_BYTES
    assert got["faults"] <= pages, (
        f"apply faulted {got['faults']} pages; the model spans {pages}"
    )
