"""Benchmark: sustained query load against the service while a stream drains.

The tentpole claim of the serving runtime (docs/SERVICE.md) measured end to
end: a writer thread drains batched R-MAT updates through the vectorised
``apply_arcs`` path while reader threads fire concurrent HTTP queries at
pinned epochs.  Reported in ``extra_info``:

* ``update_mups`` — millions of updates applied per second *under load*;
* ``query_p50_ms`` / ``query_p99_ms`` — concurrent query latency;
* ``queries_per_second`` — sustained service rate during the drain;
* ``max_epoch_lag`` — how far the live structure ever ran ahead of the
  served epoch (bounded rebuild backlog).

Hard assertions are the contracts, not the speeds: every concurrent query
succeeds mid-drain (readers never wait on the writer), epoch lag returns to
zero once the stream drains, and the served components/BFS answers are
bit-identical to the serial kernels on the equivalent static graph.
"""

import json
import threading
import time
import urllib.request

import numpy as np

from repro.api import DynamicGraph
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.generators.parallel import iter_update_chunks
from repro.obs import METRICS
from repro.service import GraphService

SCALE = 12
N = 1 << SCALE
EDGE_FACTOR = 4
CHUNK_EDGES = 2048
READERS = 3


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as r:
        assert r.status == 200
        return json.loads(r.read())


def test_service_sustained_load(benchmark):
    batches = list(
        iter_update_chunks(SCALE, N * EDGE_FACTOR, seed=97, chunk_edges=CHUNK_EDGES)
    )
    n_updates = sum(len(c) for c in batches)
    service = GraphService(DynamicGraph(N), query_threads=READERS + 1)
    handle = service.start_background()
    lat = METRICS.histogram("service.query.seconds")
    lat.reset()

    stop = threading.Event()
    query_counts = [0] * READERS
    errors: list[BaseException] = []

    def reader(i: int) -> None:
        sources = [(7 * i + 3 * k) % N for k in range(64)]
        try:
            k = 0
            while not stop.is_set():
                u, v = sources[k % 64], sources[(k + 1) % 64]
                _get(f"{handle.url}/connected?u={u}&v={v}")
                query_counts[i] += 1
                k += 1
        except BaseException as exc:  # pragma: no cover - asserted below
            errors.append(exc)

    def drain_under_load() -> float:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(READERS)]
        for t in threads:
            t.start()
        t0 = time.perf_counter()
        for c in batches:
            handle.submit(c)
        # Wait for the writer to finish applying *and publishing* everything
        # (the batch counter ticks just before the final rotation).
        while (
            service.drainer.n_batches < len(batches)
            or service.store.lag_of(service.graph.rep.mutation_count) > 0
        ):
            time.sleep(0.005)
        drain_seconds = time.perf_counter() - t0
        stop.set()
        for t in threads:
            t.join(timeout=60)
        return drain_seconds

    try:
        drain_seconds = benchmark.pedantic(
            drain_under_load, rounds=1, iterations=1, warmup_rounds=0
        )

        # -------- contracts ------------------------------------------- #
        assert not errors, f"concurrent queries failed mid-drain: {errors[0]!r}"
        total_queries = sum(query_counts)
        assert total_queries > 0  # readers made progress during the drain
        stats = _get(handle.url + "/stats")
        assert stats["updates_applied"] == n_updates
        assert stats["epoch_lag"] == 0  # backlog fully drained, lag bounded
        assert service.store.n_live == 1  # no epoch leak under churn

        # Bit-identity of served answers vs serial kernels on the final graph.
        final = service.graph.snapshot()
        served_cc = _get(handle.url + "/components?full=1")
        expected_cc = connected_components(final)
        assert np.array_equal(np.asarray(served_cc["labels"]), expected_cc.labels)
        served_bfs = _get(handle.url + "/bfs?source=11&full=1")
        expected_bfs = bfs(final, 11)
        assert np.array_equal(np.asarray(served_bfs["dist"]), expected_bfs.dist)

        # -------- the numbers ------------------------------------------ #
        update_mups = n_updates / drain_seconds / 1e6 if drain_seconds > 0 else 0.0
        benchmark.extra_info["scale"] = SCALE
        benchmark.extra_info["updates"] = n_updates
        benchmark.extra_info["batches"] = len(batches)
        benchmark.extra_info["readers"] = READERS
        benchmark.extra_info["update_mups"] = round(update_mups, 4)
        benchmark.extra_info["queries_during_drain"] = total_queries
        benchmark.extra_info["queries_per_second"] = round(
            total_queries / drain_seconds, 1
        )
        benchmark.extra_info["query_p50_ms"] = round(lat.quantile(0.50) * 1e3, 3)
        benchmark.extra_info["query_p99_ms"] = round(lat.quantile(0.99) * 1e3, 3)
        benchmark.extra_info["max_epoch_lag"] = service.drainer.max_observed_lag
        benchmark.extra_info["epochs_published"] = service.store.n_published
        benchmark.extra_info["identical"] = True
    finally:
        stop.set()
        handle.close()
