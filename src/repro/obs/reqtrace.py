"""Per-request tracing: sampled request span trees on the one span model.

A served query crosses three execution domains — the asyncio route, the
query :class:`~concurrent.futures.ThreadPoolExecutor` and the epoch-pinned
kernel.  There is no second
span system for that: a request is a *root span on its own
:class:`~repro.obs.trace.Tracer`*, and everything else is
:mod:`repro.obs.trace`.

* :class:`RequestTrace` — one request: a per-request tracer whose sink
  keeps the first :data:`MAX_SPANS` events and counts the rest, plus the
  request's root :class:`~repro.obs.trace.Span`.  While the root (or a
  descendant) is the current span, every plain
  :func:`~repro.obs.trace.span` — the service's own and the kernels' —
  records into this request's tree and nowhere else (innermost scope
  wins); :func:`~repro.obs.trace.bind` / :func:`~repro.obs.trace.activate`
  carry the root across the executor hop and into the drainer thread.
* :class:`RequestTracer` — the per-service store and the sampling policy
  applied when a request finishes.  **Head sampling** is deterministic
  (every ``head_every``-th request keeps its spans); **tail sampling**
  always keeps requests whose total latency breaches
  ``slow_threshold_seconds``, into a bounded in-memory slow-query store
  (served at ``GET /debug/slow``).

See docs/OBSERVABILITY.md ("Request tracing") for the sampling
rules and docs/SERVICE.md for the served endpoints.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Optional

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.sink import TraceSink
from repro.obs.trace import Span, Tracer, span_event

__all__ = ["RequestTrace", "RequestTracer"]

#: Bounds of the slow store (full trees), the head-sample store (full trees)
#: and the recent-request summary ring.
MAX_SLOW = 64
MAX_SAMPLED = 32
MAX_RECENT = 256
#: Per-request span cap; excess spans are counted, not stored.
MAX_SPANS = 512


class _BoundedSink(TraceSink):
    """Keeps the first ``max_events`` events and counts the ones past that."""

    def __init__(self, max_events: int) -> None:
        self.max_events = max_events
        self.events: list[dict[str, Any]] = []
        self.n_dropped = 0
        self.lock = threading.Lock()

    def emit(self, event: dict[str, Any]) -> None:
        """Store ``event``, or count it as dropped once the cap is reached."""
        with self.lock:
            if len(self.events) < self.max_events:
                self.events.append(event)
            else:
                self.n_dropped += 1


class RequestTrace(Tracer):
    """One request: a per-request tracer and the root span of its tree.

    ``root`` is an ordinary :class:`~repro.obs.trace.Span` whose lifetime is
    the request's (:meth:`RequestTracer.start` to
    :meth:`RequestTracer.finish`), so it is put in scope with
    :func:`~repro.obs.trace.activate` / :func:`~repro.obs.trace.bind`
    rather than entered; spans opened beneath it parent at it, which is what
    stitches executor-thread and drainer-thread spans into one connected
    tree.  Every event is stamped with the request identity.
    """

    sink: _BoundedSink

    def __init__(
        self,
        trace_id: str,
        request_id: int,
        name: str,
        kind: str,
        sampled_head: bool,
        attrs: dict[str, Any],
    ) -> None:
        super().__init__(_BoundedSink(MAX_SPANS))
        self.trace_id = trace_id
        self.request_id = request_id
        self.kind = kind
        self.sampled_head = sampled_head
        attrs.update(trace_id=trace_id, request_id=request_id)
        self.root = Span(self, name, next(self._ids), None, attrs)
        self.root.t_start = time.perf_counter()

    def record(self, event: dict[str, Any]) -> None:
        """Stamp one finished event with the request identity and keep it."""
        event["attrs"].update(trace_id=self.trace_id, request_id=self.request_id)
        super().record(event)


class RequestTracer:
    """Head+tail-sampled request traces with bounded in-memory stores.

    Parameters
    ----------
    head_every:
        Deterministic head sampling: requests ``1, 1+N, 1+2N, ...`` keep
        their full span tree (0 disables head sampling).
    slow_threshold_seconds:
        Tail sampling: any request at or above this total latency is always
        kept, into the slow-query store, regardless of the head decision.
    registry:
        Metrics registry for ``obs.reqtrace.*`` counters (default: process
        registry).
    """

    def __init__(
        self,
        *,
        head_every: int = 10,
        slow_threshold_seconds: float = 0.25,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.head_every = int(head_every)
        self.slow_threshold_seconds = float(slow_threshold_seconds)
        self.registry = registry if registry is not None else METRICS
        self._seq = itertools.count(1)
        self._slow: deque[dict[str, Any]] = deque(maxlen=MAX_SLOW)
        self._sampled: deque[dict[str, Any]] = deque(maxlen=MAX_SAMPLED)
        self._recent: deque[dict[str, Any]] = deque(maxlen=MAX_RECENT)
        self._lock = threading.Lock()
        self._id_prefix = f"{os.getpid() & 0xFFFFFFFF:08x}"

    # -------------------------------------------------------------- #
    # lifecycle of one request
    # -------------------------------------------------------------- #

    def start(self, name: str, *, kind: str = "query", **attrs: Any) -> RequestTrace:
        """Open a trace for one request; the sampling head decision is made here."""
        request_id = next(self._seq)
        sampled_head = self.head_every > 0 and (request_id - 1) % self.head_every == 0
        trace_id = f"{self._id_prefix}{request_id:08x}"
        return RequestTrace(trace_id, request_id, name, kind, sampled_head, attrs)

    def finish(
        self,
        trace: RequestTrace,
        *,
        status: int = 200,
        error: Optional[str] = None,
    ) -> dict[str, Any]:
        """Close a trace: apply the tail-sampling decision and store it.

        Returns the request summary; when the trace was kept (head-sampled
        or slow) the summary carries the full ``events`` span tree, root
        included.
        """
        root = trace.root
        duration = root.duration = time.perf_counter() - root.t_start
        slow = duration >= self.slow_threshold_seconds
        kept = trace.sampled_head or slow
        sampled = "head" if trace.sampled_head else ("tail" if slow else "none")
        sink = trace.sink
        with sink.lock:
            n_events, dropped = len(sink.events), sink.n_dropped
            events = list(sink.events) if kept else None
        summary: dict[str, Any] = {
            "trace_id": trace.trace_id,
            "request_id": trace.request_id,
            "name": root.name,
            "kind": trace.kind,
            "status": int(status),
            "duration_seconds": duration,
            "slow": slow,
            "sampled": sampled,
            "epoch": root.attrs.get("epoch"),
            "n_spans": n_events + 1,
            "n_dropped_spans": dropped,
            "error": error,
        }
        self.registry.inc("obs.reqtrace.requests")
        if trace.sampled_head:
            self.registry.inc("obs.reqtrace.sampled")
        if slow:
            self.registry.inc("obs.reqtrace.slow")
        if dropped:
            self.registry.inc("obs.reqtrace.dropped_spans", dropped)
        record = summary
        if events is not None:
            root.set(kind=trace.kind, status=int(status), sampled=sampled)
            if error is not None:
                root.set(error=error)
            record = {**summary, "events": [span_event(root), *events]}
        with self._lock:
            self._recent.append(summary)
            if slow:
                self._slow.append(record)
            elif trace.sampled_head:
                self._sampled.append(record)
        return record

    # -------------------------------------------------------------- #
    # stores
    # -------------------------------------------------------------- #

    def slow(self) -> list[dict[str, Any]]:
        """Tail-sampled slow requests, oldest first (full span trees)."""
        with self._lock:
            return [dict(r) for r in self._slow]

    def sampled(self) -> list[dict[str, Any]]:
        """Head-sampled requests, oldest first (full span trees)."""
        with self._lock:
            return [dict(r) for r in self._sampled]

    def recent(self) -> list[dict[str, Any]]:
        """Summaries of recent requests, oldest first (no span events)."""
        with self._lock:
            return [dict(r) for r in self._recent]

    def config(self) -> dict[str, Any]:
        """The sampling configuration, for ``/debug/slow`` and reports."""
        return {
            "head_every": self.head_every,
            "slow_threshold_seconds": self.slow_threshold_seconds,
            "max_slow": self._slow.maxlen,
            "max_sampled": self._sampled.maxlen,
            "max_recent": self._recent.maxlen,
            "max_spans": MAX_SPANS,
        }
