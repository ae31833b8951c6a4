"""Benchmark: generator throughput — serial vs parallel, plus chunked MUPS.

Three kernels:

* ``test_generator_serial_edges`` — the in-process ``rmat_edges`` draw,
  reported as edges/sec;
* ``test_generator_parallel_edges`` — the communication-free sliced
  generation on a warm worker pool (pool start-up is a per-session cost
  and stays outside the clock), with the serial/parallel bit-identity
  contract asserted on every run;
* ``test_generator_chunked_construction`` — streaming a chunked edge
  stream into a ``DynamicGraph`` (the never-fully-resident construction
  path), reported as MUPS.

As with the backend benchmarks, the hard assertion is identity, not
speed: a single-CPU runner makes the parallel driver slower and the
honest number is the interesting one.
"""

import os

import numpy as np

from repro.api import DynamicGraph
from repro.generators.parallel import iter_edge_chunks, rmat_edges_parallel
from repro.generators.rmat import rmat_edges
from repro.parallel.pool import WorkerPool

SCALE = 14
EDGE_FACTOR = 8
M = EDGE_FACTOR * (1 << SCALE)
SEED = 29
WORKERS = 2


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_generator_serial_edges(benchmark):
    src, dst = benchmark(rmat_edges, SCALE, M, seed=SEED)
    assert len(src) == M
    seconds = float(benchmark.stats.stats.mean)
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["edges"] = M
    benchmark.extra_info["edges_per_second"] = round(M / seconds) if seconds else 0


def test_generator_parallel_edges(benchmark):
    serial_src, serial_dst = rmat_edges(SCALE, M, seed=SEED)

    import time

    t0 = time.perf_counter()
    rmat_edges(SCALE, M, seed=SEED)
    serial_seconds = time.perf_counter() - t0

    pool = WorkerPool(WORKERS)
    try:
        # Warm the pool outside the clock (worker spawn + first imports).
        rmat_edges_parallel(SCALE, M, seed=SEED, pool=pool)

        def generate():
            return rmat_edges_parallel(SCALE, M, seed=SEED, pool=pool)

        src, dst, _ = benchmark.pedantic(
            generate, rounds=3, iterations=1, warmup_rounds=0
        )
    finally:
        pool.shutdown()

    np.testing.assert_array_equal(serial_src, src)
    np.testing.assert_array_equal(serial_dst, dst)

    seconds = float(benchmark.stats.stats.mean)
    speedup = serial_seconds / seconds if seconds > 0 else 0.0
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["edges"] = M
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cpus"] = _cpus()
    benchmark.extra_info["edges_per_second"] = round(M / seconds) if seconds else 0
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 6)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 3)
    benchmark.extra_info["identical"] = True

    if _cpus() >= 2 * WORKERS:
        # Plenty of hardware: sliced generation is embarrassingly parallel,
        # so it must at least not be a disaster.  (Loose floor — shared
        # memory copies and task dispatch have real overhead.)
        assert speedup > 0.5


def test_generator_chunked_construction(benchmark):
    n = 1 << SCALE

    def construct():
        return DynamicGraph.from_edge_chunks(
            n,
            iter_edge_chunks(
                SCALE, M, seed=SEED, ts_range=(0, 1000), chunk_edges=1 << 15
            ),
        )

    g = benchmark.pedantic(construct, rounds=3, iterations=1, warmup_rounds=0)
    assert g.n_edges == M

    seconds = float(benchmark.stats.stats.mean)
    benchmark.extra_info["scale"] = SCALE
    benchmark.extra_info["edges"] = M
    benchmark.extra_info["mups"] = round(M / seconds / 1e6, 3) if seconds else 0.0
