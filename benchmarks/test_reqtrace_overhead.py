"""Gate: request-tracing overhead on the sustained-load service path.

With default sampling (``head_every=10``, 250 ms tail threshold), the
per-request tracing layer must keep a service query storm within 2% of
the untraced wall clock, with bit-identical answer bodies.

The statistic is built to resolve 2%:

* **One service, tracing toggled.**  Two service instances differ by a few
  percent on their own (thread placement on a small box), so both arms run
  on the same service and only its ``reqtrace`` is switched between the
  default :class:`RequestTracer` and ``None``.
* **Many short alternated pairs.**  ``PAIRS`` pairs of ``STORM`` requests,
  the arm that runs first alternating, so drift and the warmth of the
  second storm of a pair cancel.
* **Paired per-request differences.**  Request ``k`` of the traced storm is
  compared with request ``k`` of its untraced twin (same query); the
  overhead is the median difference over the median untraced request.
  A noise spike moves a median by one rank, a real cost moves every pair.

The traced arm prices everything the tracer adds on the hot path: trace
start/finish, the contextvar bind into the executor and the executor and
epoch-pin spans.  A second service, booted without
a tracer, answers the same storm for the bit-identity check.
"""

import json
import statistics
import time
import urllib.request

from repro.api import DynamicGraph
from repro.generators.parallel import iter_update_chunks
from repro.obs.reqtrace import RequestTracer
from repro.service import GraphService

SCALE = 11
N = 1 << SCALE
EDGE_FACTOR = 4
CHUNK_EDGES = 2048
QUERIES = 300
STORM = 25
PAIRS = 80


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


def _storm(handle, start: int = 0, count: int = QUERIES) -> tuple[list[float], list[dict]]:
    """Queries ``start .. start+count`` of the fixed storm: per-request seconds, bodies."""
    seconds, bodies = [], []
    for k in range(start, start + count):
        u, v = (7 * k + 13) % N, (11 * k + 3) % N
        path = f"/connected?u={u}&v={v}" if k % 2 else f"/component?v={v}"
        t0 = time.perf_counter()
        bodies.append(_get(handle.url + path))
        seconds.append(time.perf_counter() - t0)
    return seconds, bodies


def test_reqtrace_overhead():
    _, base_handle = _boot(reqtrace=False)
    tracer = RequestTracer()
    service, handle = _boot(reqtrace=tracer)
    try:
        # Warmup (sockets, kernels, epoch caches) and bit-identity: tracing
        # observes, it never participates.
        _, base_out = _storm(base_handle)
        _, traced_out = _storm(handle)
        assert base_out == traced_out

        diffs, untraced = [], []
        for pair in range(PAIRS):
            start = (pair * STORM) % QUERIES
            arms = {}
            for traced in ((True, False) if pair % 2 else (False, True)):
                service.reqtrace = tracer if traced else None
                arms[traced] = _storm(handle, start, STORM)
            assert arms[True][1] == arms[False][1]
            diffs += [t - b for t, b in zip(arms[True][0], arms[False][0])]
            untraced += arms[False][0]
        service.reqtrace = tracer

        overhead_pct = 100.0 * statistics.median(diffs) / statistics.median(untraced)
        # Default sampling really ran: the summary ring is full (far more
        # requests flowed than its bound) and head-kept trees exist.
        assert len(tracer.recent()) == tracer.config()["max_recent"]
        assert len(tracer.sampled()) > 0
        assert overhead_pct < 2.0, (
            f"request-tracing overhead {overhead_pct:.2f}% "
            f"(median untraced request {statistics.median(untraced) * 1e6:.0f} us)"
        )
    finally:
        base_handle.close()
        handle.close()
