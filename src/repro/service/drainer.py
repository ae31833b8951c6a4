"""The service's single writer: drain batched update streams, rotate epochs.

One :class:`UpdateDrainer` owns the dynamic graph.  Producers (the CLI's
stream feeder, a test, an ingest pipeline) :meth:`~UpdateDrainer.submit`
bounded :class:`~repro.generators.streams.UpdateStream` batches — typically
straight from :func:`repro.generators.parallel.iter_update_chunks` — onto a
bounded queue; the drain loop applies each batch through the vectorised
``apply_arcs`` path (:func:`repro.core.update_engine.apply_stream`)
and publishes a fresh epoch to the :class:`~repro.service.epoch.EpochStore`
at batch boundaries.

Because the snapshot export writes every live arc straight into CSR
(``rep.to_csr()``: offsets from the live degrees, no sort) a rotation costs
one gathered export, so the default policy publishes after **every** batch: epoch lag is
then exactly zero at each batch boundary.  ``rotate_min_interval`` coalesces
rotations for very small batches; the ``service.epoch.lag_updates`` gauge
and :attr:`UpdateDrainer.max_observed_lag` record how far the live
structure ever ran ahead, so an unbounded rebuild backlog is visible
(``benchmarks/test_service.py`` asserts the lag is back to zero once a
stream drains).

The queue gives backpressure, not loss: a full queue blocks the *producer*,
never the readers — queries keep running against the pinned epochs while
the writer catches up.

A rotation allocates arc-sized arrays and drops the previous epoch's, so the
cost of one depends on where the allocator finds such blocks;
:func:`keep_large_blocks_on_heap` (called by :meth:`UpdateDrainer.start`)
takes that out of the hands of the process's allocation history.
"""

from __future__ import annotations

import ctypes
import queue
import threading
import time
from typing import Optional

from repro.api import DynamicGraph
from repro.core.update_engine import apply_stream
from repro.errors import ServiceError
from repro.generators.streams import UpdateStream
from repro.obs import METRICS, activate, span
from repro.obs.reqtrace import RequestTracer
from repro.service.epoch import Epoch, EpochStore

__all__ = ["UpdateDrainer", "keep_large_blocks_on_heap"]

#: Queue sentinel asking the drain loop to finish and exit.
_CLOSE = object()

#: glibc ``mallopt`` parameters (``malloc.h``) and the largest
#: ``M_MMAP_THRESHOLD`` a 64-bit glibc accepts (half a 64 MiB arena heap).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_LARGEST_HEAP_BLOCK = 32 << 20


def keep_large_blocks_on_heap() -> bool:
    """Fix glibc's large-block policy for a process that rotates snapshots.

    glibc serves a request from a fresh ``mmap`` when it is at least as
    large as the largest mapped block the process has freed *so far*, and
    from the heap's free lists otherwise.  Every rotation asks for
    arc-sized arrays and frees the previous epoch's, and under inserts each
    is a little larger than any freed before — so unless set-up happened to
    free one still larger block (a pool resize, say), every rotation gets
    its arrays as new zero pages and faults each page in: 500 to 2 000
    faults per rotation on a 130 k–180 k-arc graph, 2.6 µs apiece on a VM,
    a fifth of the export, in some processes and none of it in others
    (which of the two was decided by the seed of the input).  Pinning
    ``M_MMAP_THRESHOLD`` at its maximum and ``M_TRIM_THRESHOLD`` at twice
    that (the ratio glibc keeps itself) ends the dependence on history:
    blocks up to 32 MiB are recycled on the heap, larger ones are mapped.
    Process-wide by nature.  Returns whether the policy was set — False
    (and nothing changed) off glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _LARGEST_HEAP_BLOCK)
        and mallopt(_M_TRIM_THRESHOLD, 2 * _LARGEST_HEAP_BLOCK)
    )


class UpdateDrainer:
    """Single-writer drain loop: batched updates in, epochs out.

    Parameters
    ----------
    graph:
        The :class:`~repro.api.DynamicGraph` absorbing the stream.  The
        drainer is its only mutator once :meth:`start` has run.  Edge
        updates symmetrise into two arcs exactly when the graph is
        undirected, so every epoch of an undirected graph is a snapshot
        stamped symmetric (and may run bottom-up BFS levels).
    store:
        The :class:`~repro.service.epoch.EpochStore` rotations publish to.
    max_queue:
        Bounded queue depth (batches); a full queue blocks producers.
    rotate_min_interval:
        Minimum seconds between epoch publishes (0 = publish after every
        batch).  A final rotation always happens when the drainer closes,
        so no applied update is ever left unpublished.
    reqtrace:
        Optional :class:`~repro.obs.reqtrace.RequestTracer`: each batch
        application becomes a ``kind="update"`` request trace, so slow
        batches land in the same slow-query store as slow queries.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        store: EpochStore,
        *,
        max_queue: int = 8,
        rotate_min_interval: float = 0.0,
        reqtrace: Optional[RequestTracer] = None,
    ) -> None:
        self.graph = graph
        self.store = store
        self.rotate_min_interval = float(rotate_min_interval)
        self.reqtrace = reqtrace
        #: Test/fault-injection hook: seconds to sleep inside each batch
        #: application (counted into the batch's update trace).
        self.throttle = 0.0
        self._q: "queue.Queue[object]" = queue.Queue(maxsize=int(max_queue))
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._last_rotate = 0.0
        self.n_batches = 0
        self.n_updates = 0
        self.n_misses = 0
        self.max_observed_lag = 0
        #: Set when the drain loop died on an unexpected exception.
        self.error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "UpdateDrainer":
        """Publish the initial epoch and launch the drain thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        keep_large_blocks_on_heap()
        # Epoch 0: queries are answerable from the moment the service is up,
        # even before the first batch lands.
        self.rotate(force=True)
        self._thread = threading.Thread(
            target=self._run, name="repro-service-drainer", daemon=True
        )
        self._thread.start()
        return self

    def close(self, *, timeout: float = 30.0) -> None:
        """Stop accepting batches, drain the queue, rotate once more, join."""
        if self._closed:
            self._join(timeout)
            return
        self._closed = True
        self._q.put(_CLOSE)
        self._join(timeout)

    def _join(self, timeout: float) -> None:
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():  # pragma: no cover - hung drain
                raise ServiceError("drainer did not stop within the timeout")
            self._thread = None
        if self.error is not None:
            raise ServiceError(f"drainer died: {self.error!r}") from self.error

    def __enter__(self) -> "UpdateDrainer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #

    def submit(self, stream: UpdateStream, *, timeout: Optional[float] = None) -> None:
        """Enqueue one update batch (blocks while the queue is full).

        Backpressure by design: producers wait, readers never do.  Raises
        :class:`~repro.errors.ServiceError` once the drainer is closed.
        """
        if self._closed:
            raise ServiceError("drainer is closed; no further batches accepted")
        try:
            self._q.put(stream, timeout=timeout)
        except queue.Full:
            raise ServiceError(
                f"update queue stayed full for {timeout}s (depth {self._q.maxsize})"
            ) from None
        METRICS.set("service.update_queue.depth", float(self._q.qsize()))

    @property
    def queue_depth(self) -> int:
        """Batches currently waiting to be applied."""
        return self._q.qsize()

    # ------------------------------------------------------------------ #
    # writer side
    # ------------------------------------------------------------------ #

    def rotate(self, *, force: bool = False) -> Epoch:
        """Publish the current structure as a fresh epoch (writer thread).

        Keyed on ``mutation_count``: an unchanged structure republishes
        nothing (the store returns the current epoch).  ``force`` bypasses
        the time-coalescing policy, not the key.
        """
        now = time.monotonic()
        if not force and (now - self._last_rotate) < self.rotate_min_interval:
            lag = self.store.lag_of(self.graph.rep.mutation_count)
            self.max_observed_lag = max(self.max_observed_lag, lag)
            METRICS.set("service.epoch.lag_updates", float(lag))
            cur = self.store.current
            if cur is not None:
                return cur
        epoch = self.store.publish(self.graph.snapshot(), self.graph.rep.mutation_count)
        self._last_rotate = now
        METRICS.set("service.epoch.lag_updates", 0.0)
        return epoch

    def _apply(self, stream: UpdateStream) -> None:
        tracer = self.reqtrace
        trace = (
            tracer.start("service.apply_batch", kind="update", updates=len(stream))
            if tracer is not None
            else None
        )
        root = trace.root if trace is not None else None
        error: Optional[str] = None
        try:
            with activate(root):
                if self.throttle > 0:
                    time.sleep(self.throttle)
                with span("service.drain.apply", updates=len(stream)) as sp:
                    t0 = time.perf_counter()
                    res = apply_stream(
                        self.graph.rep, stream, undirected=not self.graph.directed,
                        reset_stats=True,
                    )
                    elapsed = time.perf_counter() - t0
                    self.n_batches += 1
                    self.n_updates += res.n_updates
                    self.n_misses += res.misses
                    METRICS.inc("service.updates.batches")
                    METRICS.inc("service.updates.applied", res.n_updates)
                    METRICS.observe("service.updates.batch_seconds", elapsed)
                    if elapsed > 0:
                        METRICS.observe("service.updates.mups", res.n_updates / elapsed / 1e6)
                    sp.set(misses=res.misses, seconds=elapsed)
                with span("service.drain.rotate"):
                    epoch = self.rotate()
                if root is not None:
                    root.set(epoch=epoch.id)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            if tracer is not None and trace is not None:
                tracer.finish(trace, status=500 if error else 200, error=error)

    def _run(self) -> None:
        try:
            while True:
                item = self._q.get()
                METRICS.set("service.update_queue.depth", float(self._q.qsize()))
                if item is _CLOSE:
                    break
                assert isinstance(item, UpdateStream)
                self._apply(item)
            # Final rotation: whatever was applied is published, even when
            # the coalescing policy skipped the last batch boundary.
            self.rotate(force=True)
        except BaseException as exc:  # pragma: no cover - surfaced via close()
            self.error = exc
            METRICS.inc("service.drainer.errors")
