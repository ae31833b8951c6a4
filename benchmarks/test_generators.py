"""Gate: communication-free sliced generation on a warm worker pool.

The hard assertion is identity: the parallel edges equal the serial
``rmat_edges`` draw bit for bit.  Speed is only asserted when the host has
spare CPUs: on a small runner the parallel driver is slower.
"""

from statistics import fmean

import numpy as np

from benchmarks.conftest import best_of, cpus
from repro.generators.parallel import rmat_edges_parallel
from repro.generators.rmat import rmat_edges
from repro.parallel.pool import WorkerPool

SCALE = 14
M = 8 * (1 << SCALE)
SEED = 29
WORKERS = 2


def test_generator_parallel_edges():
    serial_src, serial_dst = rmat_edges(SCALE, M, seed=SEED)
    serial_seconds, _ = best_of(lambda: rmat_edges(SCALE, M, seed=SEED), 1)

    pool = WorkerPool(WORKERS)
    try:
        # Warm the pool outside the clock (worker spawn + first imports).
        rmat_edges_parallel(SCALE, M, seed=SEED, pool=pool)
        seconds, (src, dst, _) = best_of(
            lambda: rmat_edges_parallel(SCALE, M, seed=SEED, pool=pool), 3, stat=fmean
        )
    finally:
        pool.shutdown()

    np.testing.assert_array_equal(serial_src, src)
    np.testing.assert_array_equal(serial_dst, dst)
    if cpus() >= 2 * WORKERS:
        # Plenty of hardware: sliced generation is embarrassingly parallel,
        # so it must at least not be a disaster.  (Loose floor — shared
        # memory copies and task dispatch have real overhead.)
        assert serial_seconds / seconds > 0.5
