"""Benchmark: serial vs process backend on the same BFS + components run.

Measures the speedup of the shared-memory process backend next to the
serial kernels (``extra_info``).  The hard assertion is *identity* — the
process backend's contract — not speed: on a single-CPU runner the process
backend is slower (IPC overhead with no parallel hardware), and the honest
number is the interesting one.  A speedup floor is only asserted when the
host actually has spare CPUs.
"""

import os
import statistics
import time

import numpy as np

from repro.adjacency.csr import build_csr
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.generators.rmat import rmat_graph
from repro.parallel.backend import ProcessBackend

SCALE = 12
EDGE_FACTOR = 8
WORKERS = 2


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_parallel_backend_bfs_and_components(benchmark):
    csr = build_csr(rmat_graph(SCALE, EDGE_FACTOR, seed=29))
    source = int(np.argmax(csr.degrees()))

    t0 = time.perf_counter()
    serial_bfs = bfs(csr, source)
    serial_cc = connected_components(csr)
    serial_seconds = time.perf_counter() - t0

    with ProcessBackend(WORKERS) as be:
        # Warm the pool outside the clock; the steady-state cost is the
        # interesting number, pool startup is a one-time cost per session.
        be.bfs(csr, source)

        def parallel_pair():
            return be.bfs(csr, source), be.connected_components(csr)

        par_bfs, par_cc = benchmark.pedantic(
            parallel_pair, rounds=3, iterations=1, warmup_rounds=0
        )

        # Steady state stays steady: a pool that strands a shared-memory
        # segment per call gets slower as they pile up.  The best of calls
        # 16-20 against the median of calls 3-5: a 4 ms call is preempted
        # often enough on a shared box that any single late call can double.
        calls = []
        for _ in range(20):
            t0 = time.perf_counter()
            be.bfs(csr, source)
            calls.append(time.perf_counter() - t0)
        assert min(calls[15:]) <= 1.5 * statistics.median(calls[2:5])

    np.testing.assert_array_equal(serial_bfs.dist, par_bfs.dist)
    np.testing.assert_array_equal(serial_bfs.parent, par_bfs.parent)
    assert serial_bfs.edges_scanned == par_bfs.edges_scanned
    np.testing.assert_array_equal(serial_cc.labels, par_cc.labels)
    assert serial_cc.n_passes == par_cc.n_passes

    backend_seconds = float(benchmark.stats.stats.mean)
    speedup = serial_seconds / backend_seconds if backend_seconds > 0 else 0.0
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cpus"] = _cpus()
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 6)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 3)
    benchmark.extra_info["identical"] = True

    if _cpus() >= 2 * WORKERS:
        # Plenty of hardware: the process backend must at least not be a
        # disaster.  (Loose floor — shared-memory IPC has real overhead.)
        assert speedup > 0.5
