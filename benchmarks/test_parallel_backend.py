"""Gate: serial vs process backend on the same BFS + components run.

The hard assertion is *identity* — the process backend's contract — and a
steady state that stays steady over 20 calls.  Speed is only asserted when
the host has spare CPUs: on a small runner the process backend is slower
(IPC overhead with no parallel hardware).
"""

import statistics

import numpy as np

from benchmarks.conftest import best_of, cpus
from repro.adjacency.csr import build_csr
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.generators.rmat import rmat_graph
from repro.parallel.backend import ProcessBackend

SCALE = 12
EDGE_FACTOR = 8
WORKERS = 2


def test_parallel_backend_bfs_and_components():
    csr = build_csr(rmat_graph(SCALE, EDGE_FACTOR, seed=29))
    source = int(np.argmax(csr.degrees()))

    serial_seconds, (serial_bfs, serial_cc) = best_of(
        lambda: (bfs(csr, source), connected_components(csr)), 1
    )

    with ProcessBackend(WORKERS) as be:
        # Warm the pool outside the clock; pool startup is a one-time cost.
        be.bfs(csr, source)
        backend_seconds, (par_bfs, par_cc) = best_of(
            lambda: (be.bfs(csr, source), be.connected_components(csr)),
            3,
            stat=statistics.fmean,
        )

        # Steady state stays steady: a pool that strands a shared-memory
        # segment per call gets slower as they pile up.  The best of calls
        # 16-20 against the median of calls 3-5: a 4 ms call is preempted
        # often enough on a shared box that any single late call can double.
        calls = [best_of(lambda: be.bfs(csr, source), 1)[0] for _ in range(20)]
        assert min(calls[15:]) <= 1.5 * statistics.median(calls[2:5])

    np.testing.assert_array_equal(serial_bfs.dist, par_bfs.dist)
    np.testing.assert_array_equal(serial_bfs.parent, par_bfs.parent)
    assert serial_bfs.edges_scanned == par_bfs.edges_scanned
    np.testing.assert_array_equal(serial_cc.labels, par_cc.labels)
    assert serial_cc.n_passes == par_cc.n_passes

    if cpus() >= 2 * WORKERS:
        # Plenty of hardware: the process backend must at least not be a
        # disaster.  (Loose floor — shared-memory IPC has real overhead.)
        assert serial_seconds / backend_seconds > 0.5
