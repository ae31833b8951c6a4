"""Compiled-vs-vectorised kernel-tier benchmarks at 2^16 vertices.

Skipped entirely when numba is not installed — the CI jit leg (and any
``pip install repro[jit]`` checkout) runs them.  Each benchmark drives the
same workload at both tiers, asserts the results are bit-identical, records
the compiled timing as the benchmark row (vectorised seconds and the
measured speedup ride along in ``extra_info``), and gates the compiled tier
at no-slower-than-vectorised.  The aggregate test at the bottom enforces
the acceptance target: >=3x over the vectorised tier on at least two of the
three ported kernels.  JIT compilation happens in the module fixture (and
the session-wide ``pytest_sessionstart`` warmup), never in a timed round.
"""

from dataclasses import asdict

import numpy as np
import pytest

from benchmarks.conftest import best_of
from repro import kernels
from repro.adjacency.csr import build_csr
from repro.adjacency.dynarr import DynArrAdjacency
from repro.core.components import connected_components
from repro.core.linkcut import LinkCutForest
from repro.core.update_engine import construct
from repro.generators.rmat import rmat_graph
from repro.generators.streams import mixed_stream

pytestmark = pytest.mark.skipif(
    not kernels.numba_available(),
    reason="compiled-tier benchmarks need numba (pip install repro[jit])",
)

SCALE = 16
EDGE_FACTOR = 8
ROUNDS = 3

#: The ported kernels the aggregate speedup gate covers.
GATE_KERNELS = ("delete_match", "findroot_batch", "sv_components")

#: kernel name -> measured compiled-over-vectorised speedup, filled by the
#: three per-kernel benchmarks and read by the aggregate gate below.
SPEEDUPS: dict[str, float] = {}


@pytest.fixture(scope="module")
def graph():
    kernels.warmup()  # compile cost lands here, never in a timed round
    return rmat_graph(SCALE, EDGE_FACTOR, seed=101, ts_range=(1, 100))


@pytest.fixture(scope="module")
def csr(graph):
    return build_csr(graph)


def _record(benchmark, name, vec_s, comp_s, **extra):
    SPEEDUPS[name] = speedup = vec_s / comp_s if comp_s > 0 else float("inf")
    benchmark.extra_info.update(
        {
            "kernel_tier": "compiled",
            "vectorised_seconds": round(vec_s, 6),
            "speedup_vs_vectorised": round(speedup, 2),
            **extra,
        }
    )
    # The compiled tier must never lose to the vectorised tier it replaces
    # (10% slack for runner jitter; the 3x target is gated in aggregate).
    assert comp_s <= vec_s * 1.10, (
        f"{name}: compiled {comp_s:.4f}s slower than vectorised {vec_s:.4f}s"
    )


def test_kernel_delete_match(benchmark, graph):
    stream = mixed_stream(graph, 300_000, insert_frac=0.25, seed=7)

    def make(tier):
        rep = DynArrAdjacency(graph.n, initial_capacity=2)
        construct(rep, graph)
        rep.kernel_tier = tier
        return rep

    def run(rep):
        rep.apply_arcs(stream.op, stream.src, stream.dst, stream.ts)
        return rep

    jit = benchmark.pedantic(
        run, setup=lambda: ((make("compiled"),), {}), rounds=ROUNDS, iterations=1
    )
    comp_s = benchmark.stats["min"]
    vec_s, ref = best_of(lambda: run(make("vectorised")), ROUNDS)

    assert asdict(jit.stats) == asdict(ref.stats)
    assert jit.n_arcs == ref.n_arcs
    for a, b in zip(jit.to_arrays(), ref.to_arrays()):
        np.testing.assert_array_equal(a, b)
    _record(benchmark, "delete_match", vec_s, comp_s, n_updates=stream.op.size)


def test_kernel_findroot_batch(benchmark, csr):
    forest, _ = LinkCutForest.from_csr(csr)
    rng = np.random.default_rng(3)
    queries = rng.integers(0, csr.n, 500_000).astype(np.int64)

    def run(tier):
        forest.kernel_tier = tier
        h0 = forest.hops
        roots = forest.findroot_batch(queries.copy())
        return roots, forest.hops - h0

    jit_roots, jit_hops = benchmark.pedantic(
        lambda: run("compiled"), rounds=ROUNDS, iterations=1
    )
    comp_s = benchmark.stats["min"]
    vec_s, (ref_roots, ref_hops) = best_of(lambda: run("vectorised"), ROUNDS)

    np.testing.assert_array_equal(jit_roots, ref_roots)
    assert jit_hops == ref_hops
    _record(benchmark, "findroot_batch", vec_s, comp_s, n_queries=queries.size)


def test_kernel_sv_components(benchmark, csr):
    jit = benchmark.pedantic(
        lambda: connected_components(csr, kernel_tier="compiled"),
        rounds=ROUNDS,
        iterations=1,
    )
    comp_s = benchmark.stats["min"]
    vec_s, ref = best_of(lambda: connected_components(csr, kernel_tier="vectorised"), ROUNDS)

    np.testing.assert_array_equal(jit.labels, ref.labels)
    assert (jit.n_passes, jit.jump_rounds, jit.arcs_processed) == (
        ref.n_passes,
        ref.jump_rounds,
        ref.arcs_processed,
    )
    _record(benchmark, "sv_components", vec_s, comp_s, n=csr.n)


def test_speedup_gate_aggregate():
    """Acceptance: >=3x over vectorised on at least two of the kernels."""
    missing = [k for k in GATE_KERNELS if k not in SPEEDUPS]
    if missing:
        pytest.skip(f"aggregate gate needs the whole module run (missing: {missing})")
    fast = sorted(k for k, v in SPEEDUPS.items() if v >= 3.0)
    assert len(fast) >= 2, (
        f"expected >=3x compiled speedup on at least two of {GATE_KERNELS} "
        f"at 2^{SCALE}; measured {SPEEDUPS}"
    )
