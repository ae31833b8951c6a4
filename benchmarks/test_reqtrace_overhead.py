"""Gate: request-tracing overhead on the sustained-load service path.

With default sampling (``head_every=10``, 250 ms tail threshold), the
per-request tracing layer must keep a service query storm within 2% of
the untraced wall clock, with bit-identical answer bodies.

Same adjacent-pair protocol as ``test_obs_overhead.py``: the gate runs
(baseline, traced) storms back to back and asserts on the **minimum
per-pair ratio** — a true tracing cost inflates every pair, a noise spike
only some.  The arm that runs first alternates from pair to pair, since
the second storm of a pair reads slower on a busy box whichever arm it
is.  Both arms are full HTTP services over identical graphs, so the ratio
prices everything the tracer adds on the hot path: trace start/finish,
contextvar binds into the executor, the epoch-pin and kernel spans,
and exemplar recording.
"""

import json
import urllib.request

from benchmarks.conftest import best_of
from repro.api import DynamicGraph
from repro.generators.parallel import iter_update_chunks
from repro.obs.reqtrace import RequestTracer
from repro.service import GraphService

SCALE = 11
N = 1 << SCALE
EDGE_FACTOR = 4
CHUNK_EDGES = 2048
QUERIES = 300
PAIRS = 7


def _get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as r:
        assert r.status == 200
        return json.loads(r.read())


def _boot(reqtrace):
    """One fully drained service over the reference stream."""
    service = GraphService(DynamicGraph(N), reqtrace=reqtrace)
    handle = service.start_background()
    for chunk in iter_update_chunks(
        SCALE, N * EDGE_FACTOR, seed=97, chunk_edges=CHUNK_EDGES
    ):
        handle.submit(chunk)
    service.drainer.close()
    return service, handle


def _storm(handle) -> list[dict]:
    """The fixed query storm; returns every answer body for bit-identity."""
    bodies = []
    for k in range(QUERIES):
        u, v = (7 * k + 13) % N, (11 * k + 3) % N
        if k % 2:
            bodies.append(_get(f"{handle.url}/connected?u={u}&v={v}"))
        else:
            bodies.append(_get(f"{handle.url}/component?v={v}"))
    return bodies


def test_reqtrace_overhead():
    _, base_handle = _boot(reqtrace=False)
    traced_service, traced_handle = _boot(reqtrace=RequestTracer())
    try:
        _storm(base_handle)  # warmup: sockets, kernels, epoch caches
        _storm(traced_handle)

        ratios = []
        base_out = traced_out = None
        for pair in range(PAIRS):
            if pair % 2:
                traced_s, traced_out = best_of(lambda: _storm(traced_handle), 1)
                base_s, base_out = best_of(lambda: _storm(base_handle), 1)
            else:
                base_s, base_out = best_of(lambda: _storm(base_handle), 1)
                traced_s, traced_out = best_of(lambda: _storm(traced_handle), 1)
            ratios.append(traced_s / base_s)

        overhead_pct = 100.0 * (min(ratios) - 1.0)
        tracer = traced_service.reqtrace
        # Tracing observes; it never participates.
        assert base_out == traced_out
        # Default sampling really ran: the summary ring is full (far more
        # requests flowed than its bound) and head-kept trees exist.
        assert len(tracer.recent()) == tracer.config()["max_recent"]
        assert len(tracer.sampled()) > 0
        assert overhead_pct < 2.0, (
            f"request-tracing overhead {overhead_pct:.2f}% "
            f"(per-pair ratios: {[round(r, 3) for r in ratios]})"
        )
    finally:
        base_handle.close()
        traced_handle.close()
