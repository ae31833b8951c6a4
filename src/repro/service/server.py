"""The graph service: routes and query kernels over pinned epochs.

One :class:`GraphService` ties the service pieces together — the
:class:`~repro.service.epoch.EpochStore` readers pin, the
:class:`~repro.service.drainer.UpdateDrainer` that is the structure's only
writer, and an optional :class:`~repro.service.shards.ShardRouter` for
process-sharded components queries.  The wire is :mod:`repro.util.httpd`;
this module is the handler behind it.  The event loop only routes requests
and shapes responses; every graph kernel runs on a small thread pool
(``run_in_executor``) with its epoch pinned for exactly the kernel's
duration, so a slow query neither blocks the accept loop nor the writer.

Endpoints (GET, JSON unless noted):

* ``/healthz`` — liveness + current epoch id
* ``/stats`` — epochs published/live, queue depth, update/query counters
* ``/connected?u=&v=`` — same-component test via the epoch's cached labels
* ``/components[?full=1]`` — component count/largest (``full`` adds labels)
* ``/component?v=`` — one vertex's label and component size
* ``/bfs?source=[&ts_lo=&ts_hi=][&full=1]`` — traversal summary
  (``full`` adds the distance array)
* ``/metrics``, ``/metrics.json`` — the shared telemetry routes
  (:func:`repro.obs.expose.telemetry_response`): OpenMetrics text with
  trace-id exemplars, and the raw snapshot plus the live collector's rollups
* ``/debug/slow`` — the bounded slow-query store: full span trees of
  requests that breached the latency threshold (``?sampled=1`` adds the
  deterministic head samples)
* ``/slo`` — burn-rate state of the query/update SLO trackers

Every routed query is the root span of its own
:class:`~repro.obs.reqtrace.RequestTrace` (deterministic head sampling +
always-keep tail sampling).  The root is bound across the executor hop
explicitly; beneath it the service's ``service.exec.*`` /
``service.epoch.read`` spans, the kernels' own spans and — for sharded
``/components`` — the per-worker hook spans shipped back through the pool
envelope are all plain :func:`~repro.obs.trace.span` calls landing in that
request: one connected tree per request, exportable via the Chrome-trace
exporter.

Errors map onto status codes through the wire's one
:func:`~repro.util.httpd.error_status` (bad input is a 400 carrying the
:class:`~repro.errors.GraphError` message, service-protocol failures are
503); an unknown path is a 404.  A crashed shard worker is recovered
transparently (``pool.restart()`` + one retry, then serial fallback).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Union

import numpy as np

from repro.api import DynamicGraph
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.errors import GraphError, WorkerCrashError
from repro.obs import METRICS, bind, current_collector, span
from repro.obs.expose import telemetry_response
from repro.obs.reqtrace import RequestTracer
from repro.obs.slo import SloTracker
from repro.service.drainer import UpdateDrainer
from repro.service.epoch import Epoch, EpochStore
from repro.service.shards import ShardRouter
from repro.util import httpd

__all__ = ["GraphService", "ServiceHandle"]


class GraphService:
    """The serving runtime: one graph, one writer, many pinned readers.

    Parameters
    ----------
    graph:
        The :class:`~repro.api.DynamicGraph` to serve.  Once the service
        starts, all mutation must go through :meth:`submit`.
    router:
        Optional :class:`~repro.service.shards.ShardRouter` to execute
        ``/components`` across worker processes (serial kernel otherwise).
    query_threads:
        Executor width for query kernels (default 4).
    max_queue / rotate_min_interval:
        Forwarded to the :class:`~repro.service.drainer.UpdateDrainer`.
    reqtrace:
        Request tracing: None/True builds a default
        :class:`~repro.obs.reqtrace.RequestTracer` (head sampling every
        10th request, 250 ms tail threshold), False disables tracing
        entirely, or pass a configured tracer.
    slo_query / slo_update:
        :class:`~repro.obs.slo.SloTracker` instances for the read and
        write paths (defaults are built when not given).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        *,
        router: Optional[ShardRouter] = None,
        query_threads: int = 4,
        max_queue: int = 8,
        rotate_min_interval: float = 0.0,
        reqtrace: Union[RequestTracer, bool, None] = None,
        slo_query: Optional[SloTracker] = None,
        slo_update: Optional[SloTracker] = None,
    ) -> None:
        self.graph = graph
        self.store = EpochStore()
        if reqtrace is False:
            self.reqtrace: Optional[RequestTracer] = None
        elif reqtrace is None or reqtrace is True:
            self.reqtrace = RequestTracer()
        else:
            self.reqtrace = reqtrace
        self.slo_query = (
            slo_query if slo_query is not None else SloTracker("service.query")
        )
        self.slo_update = (
            slo_update
            if slo_update is not None
            else SloTracker("service.update", latency_threshold_seconds=1.0)
        )
        self.drainer = UpdateDrainer(
            graph, self.store, max_queue=max_queue,
            rotate_min_interval=rotate_min_interval,
            reqtrace=self.reqtrace, slo=self.slo_update,
        )
        self.router = router
        self._executor = ThreadPoolExecutor(
            max_workers=int(query_threads), thread_name_prefix="repro-query"
        )
        self.n_queries = 0
        self._inflight = 0

    # ------------------------------------------------------------------ #
    # writer path
    # ------------------------------------------------------------------ #

    def submit(self, stream: Any, *, timeout: Optional[float] = None) -> None:
        """Enqueue one update batch onto the drainer (producer backpressure)."""
        self.drainer.submit(stream, timeout=timeout)

    # ------------------------------------------------------------------ #
    # query kernels (run on executor threads, epoch pinned inside)
    # ------------------------------------------------------------------ #

    def _labels(self, epoch: Epoch) -> np.ndarray:
        """Component labels of one epoch, computed once and memoised."""

        def compute() -> np.ndarray:
            """Run sharded components, recovering once, else serial fallback."""
            snap = epoch.snapshot
            if self.router is not None:
                try:
                    return self.router.components(snap)
                except WorkerCrashError:
                    self.router.recover()
                    try:
                        return self.router.components(snap)
                    except WorkerCrashError:
                        METRICS.inc("service.shard.fallbacks")
            return connected_components(snap).labels

        labels = epoch.cached("components.labels", compute)
        assert isinstance(labels, np.ndarray)
        return labels

    @contextmanager
    def _pinned(self) -> Iterator[Epoch]:
        """Pin an epoch for one kernel, under a ``service.epoch.read`` span."""
        with self.store.reading() as epoch:
            with span(
                "service.epoch.read", epoch=epoch.id, mutations=epoch.mutation_count
            ):
                yield epoch

    def _q_connected(self, u: int, v: int) -> dict:
        with self._pinned() as epoch:
            snap = epoch.snapshot
            for name, x in (("u", u), ("v", v)):
                if not 0 <= x < snap.n:
                    raise GraphError(f"vertex {name}={x} out of range [0, {snap.n})")
            labels = self._labels(epoch)
            return {
                "u": u, "v": v,
                "connected": bool(labels[u] == labels[v]),
                "epoch": epoch.id, "mutations": epoch.mutation_count,
            }

    def _q_components(self, full: bool) -> dict:
        with self._pinned() as epoch:
            labels = self._labels(epoch)
            roots, counts = (
                np.unique(labels, return_counts=True)
                if labels.size else (np.empty(0, np.int64), np.empty(0, np.int64))
            )
            i = int(np.argmax(counts)) if counts.size else -1
            out = {
                "n": epoch.snapshot.n,
                "n_components": int(roots.size),
                "largest": ([int(roots[i]), int(counts[i])] if i >= 0 else None),
                "epoch": epoch.id, "mutations": epoch.mutation_count,
            }
            if full:
                out["labels"] = labels.tolist()
            return out

    def _q_component(self, v: int) -> dict:
        with self._pinned() as epoch:
            snap = epoch.snapshot
            if not 0 <= v < snap.n:
                raise GraphError(f"vertex v={v} out of range [0, {snap.n})")
            labels = self._labels(epoch)
            label = int(labels[v])
            return {
                "v": v, "label": label,
                "size": int(np.count_nonzero(labels == label)),
                "epoch": epoch.id,
            }

    def _q_bfs(self, source: int, ts_range: Optional[tuple], full: bool) -> dict:
        with self._pinned() as epoch:
            res = bfs(epoch.snapshot, source, ts_range=ts_range)
            out = {
                "source": source,
                "n_reached": res.n_reached,
                "n_levels": res.n_levels,
                "edges_scanned": res.total_edges_scanned,
                "epoch": epoch.id, "mutations": epoch.mutation_count,
            }
            if full:
                out["dist"] = res.dist.tolist()
            return out

    def _q_stats(self) -> dict:
        cur = self.store.current
        return {
            "epoch": cur.id if cur is not None else None,
            "mutations": cur.mutation_count if cur is not None else None,
            "arcs": cur.snapshot.n_arcs if cur is not None else None,
            "epochs_published": self.store.n_published,
            "epochs_live": self.store.n_live,
            "epoch_lag": self.store.lag_of(self.graph.rep.mutation_count),
            "update_queue_depth": self.drainer.queue_depth,
            "batches_applied": self.drainer.n_batches,
            "updates_applied": self.drainer.n_updates,
            "queries": self.n_queries,
            "queries_inflight": self._inflight,
            "sharded": self.router is not None,
            "reqtrace": self.reqtrace is not None,
            "slow_captured": len(self.reqtrace.slow()) if self.reqtrace is not None else 0,
        }

    def _q_debug_slow(self, params: dict) -> dict:
        """The slow-query store (``GET /debug/slow``): full span trees."""
        tracer = self.reqtrace
        if tracer is None:
            return {"enabled": False, "config": {}, "slow": [], "recent": []}
        out: dict[str, Any] = {
            "enabled": True,
            "config": tracer.config(),
            "slow": tracer.slow(),
            "recent": tracer.recent(),
        }
        if params.get("sampled", ["0"])[0] not in ("0", "", "false"):
            out["sampled"] = tracer.sampled()
        return out

    def _q_slo(self) -> dict:
        """Burn-rate state of both trackers (``GET /slo``), checking first."""
        slos: dict[str, Any] = {}
        for tracker in (self.slo_query, self.slo_update):
            tracker.check()
            slos[tracker.name] = tracker.state()
        return {"slos": slos}

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _dispatch(self, path: str, params: dict) -> httpd.Reply:
        """Route one request; returns (status, content_type, body)."""

        def qint(name: str) -> int:
            """Parse a required integer query parameter or raise GraphError."""
            vals = params.get(name)
            if not vals:
                raise GraphError(f"missing required parameter {name!r}")
            try:
                return int(vals[0])
            except ValueError:
                raise GraphError(f"parameter {name!r} must be an integer") from None

        full = params.get("full", ["0"])[0] not in ("0", "", "false")
        fn: Optional[Callable[[], dict]] = None
        if path == "/healthz":
            cur = self.store.current
            return 200, httpd.JSON, json.dumps(
                {"ok": True, "epoch": cur.id if cur is not None else None}
            )
        if path == "/stats":
            return 200, httpd.JSON, json.dumps(self._q_stats())
        if path == "/debug/slow":
            return 200, httpd.JSON, json.dumps(self._q_debug_slow(params))
        if path == "/slo":
            return 200, httpd.JSON, json.dumps(self._q_slo())
        if path == "/connected":
            u, v = qint("u"), qint("v")
            fn = lambda: self._q_connected(u, v)  # noqa: E731
        elif path == "/components":
            fn = lambda: self._q_components(full)  # noqa: E731
        elif path == "/component":
            v = qint("v")
            fn = lambda: self._q_component(v)  # noqa: E731
        elif path == "/bfs":
            source = qint("source")
            ts_range = None
            if "ts_lo" in params or "ts_hi" in params:
                ts_range = (qint("ts_lo"), qint("ts_hi"))
            fn = lambda: self._q_bfs(source, ts_range, full)  # noqa: E731
        if fn is None:
            return telemetry_response(path, METRICS, current_collector()) or httpd.not_found(path)
        loop = asyncio.get_running_loop()
        tracer = self.reqtrace
        route = path.replace("/", ".")
        trace = (
            tracer.start(f"service{route}", kind="query", route=path)
            if tracer is not None
            else None
        )
        self._inflight += 1
        METRICS.set("service.queries.inflight", float(self._inflight))
        status, error = 200, None
        t0 = time.perf_counter()
        try:
            # contextvars don't cross run_in_executor: bind the request root
            # into the executor thread explicitly so kernel spans attach to it.
            run = fn if trace is None else bind(trace.root, self._exec_traced(route, fn))
            body = await loop.run_in_executor(self._executor, run)
        except BaseException as exc:
            status, error = httpd.error_status(exc), type(exc).__name__
            raise
        finally:
            self._inflight -= 1
            METRICS.set("service.queries.inflight", float(self._inflight))
            elapsed = time.perf_counter() - t0
            ok = status == 200
            if ok:
                self.n_queries += 1
                METRICS.inc("service.queries")
                METRICS.inc(f"service.query{route}")
                METRICS.observe("service.query.seconds", elapsed)
            if tracer is not None and trace is not None:
                if ok and body.get("epoch") is not None:
                    trace.root.set(epoch=body["epoch"])
                tracer.finish(trace, status=status, error=error)
                if ok:
                    tracer.exemplars.observe("service.query.seconds", elapsed, trace.trace_id)
            self.slo_query.record(elapsed, error=status >= 500)
        return 200, httpd.JSON, json.dumps(body)

    def _exec_traced(self, route: str, fn: Callable[[], dict]) -> Callable[[], dict]:
        """Wrap a query kernel in the request's executor-level span."""

        def run() -> dict:
            with span(f"service.exec{route}", thread=threading.current_thread().name):
                return fn()

        return run

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.AbstractServer:
        """Publish epoch 0, start the drainer, and bind the asyncio server."""
        self.drainer.start()
        return await httpd.start_server(self._dispatch, host, port)

    def start_background(self, host: str = "127.0.0.1", port: int = 0) -> "ServiceHandle":
        """Run the server on a daemon event-loop thread; returns a handle."""
        return ServiceHandle(self, host, port)

    def close(self) -> None:
        """Drain and stop the writer, query threads, and shard pool."""
        try:
            self.drainer.close()
        finally:
            self._executor.shutdown(wait=True)
            if self.router is not None:
                self.router.close()


class ServiceHandle(httpd.BackgroundServer):
    """A running :class:`GraphService` on its own event-loop thread.

    Gives synchronous callers (tests, the CLI's stream feeder, the CI
    smoke driver) a bound ``url``, pass-through :meth:`submit`, and a
    clean :meth:`close` that drains the writer before tearing down.
    """

    def __init__(self, service: GraphService, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        super().__init__(service.start, host, port)

    def submit(self, stream: Any, *, timeout: Optional[float] = None) -> None:
        """Enqueue one update batch (same backpressure as the service)."""
        self.service.submit(stream, timeout=timeout)

    def close(self) -> None:
        """Stop accepting, stop the loop thread, then drain and stop the writer."""
        super().close()
        self.service.close()
