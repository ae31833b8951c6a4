"""Gate: sustained query load against the service while a stream drains.

The serving runtime's contract (docs/SERVICE.md) checked end to end: a
writer thread drains batched R-MAT updates through the vectorised
``apply_arcs`` path while reader threads fire concurrent HTTP queries at
pinned epochs.  Every concurrent query succeeds mid-drain (readers never
wait on the writer), epoch lag returns to zero once the stream drains, and
the served components/BFS answers are bit-identical to the serial kernels
on the equivalent static graph.
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


def test_service_sustained_load():
    batches = list(
        iter_update_chunks(SCALE, N * EDGE_FACTOR, seed=97, chunk_edges=CHUNK_EDGES)
    )
    n_updates = sum(len(c) for c in batches)
    service = GraphService(DynamicGraph(N), query_threads=READERS + 1)
    handle = service.start_background()

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

    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(READERS)]
        for t in threads:
            t.start()
        for c in batches:
            handle.submit(c)
        # Wait for the writer to finish applying *and publishing* everything
        # (the batch counter ticks just before the final rotation).
        while (
            service.drainer.n_batches < len(batches)
            or service.store.lag_of(service.graph.rep.mutation_count) > 0
        ):
            time.sleep(0.005)
        stop.set()
        for t in threads:
            t.join(timeout=60)

        assert not errors, f"concurrent queries failed mid-drain: {errors[0]!r}"
        assert sum(query_counts) > 0  # readers made progress during the drain
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
    finally:
        stop.set()
        handle.close()
