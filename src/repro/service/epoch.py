"""Epoch-rotated snapshot store: the service's reader/writer protocol.

The streaming service has one writer (the update drainer) and many
concurrent readers (query handlers).  Readers must never block the writer
and the writer must never mutate what a reader is looking at.  Both follow
from one rule: **snapshots are immutable and epochs are refcounted**.

* The writer *publishes*: it builds a fresh CSR snapshot of the dynamic
  structure (``rep.to_csr()``, which writes the live arcs straight into
  CSR) and installs it as the new current
  :class:`Epoch`, keyed on the representation's monotonic
  ``mutation_count``.  Publishing takes a short O(1) critical section and
  never waits for readers.
* A reader *pins*: :meth:`EpochStore.pin` hands it the current epoch with
  its reader count incremented; every query the reader runs against that
  epoch sees one frozen, internally consistent graph.  Releasing the pin
  retires the epoch once it is no longer current and its reader count has
  drained — the store never accumulates unpinned history.

Consistency model (documented for queries in ``docs/SERVICE.md``): a query
observes the graph *as of the last published batch boundary*.  Updates are
applied in batches by the drainer; a snapshot is never published mid-batch,
so a reader sees either all or none of any batch — batch atomicity, with
staleness bounded by the publish cadence (the ``service.epoch.lag_updates``
gauge tracks how far the live structure has run ahead).

Per-epoch caches (:meth:`Epoch.cached`) memoise derived results — component
labels, notably — so heavy traffic on one epoch pays each kernel once.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator, Optional, TYPE_CHECKING
from contextlib import contextmanager

from repro.errors import ServiceError
from repro.obs import METRICS

if TYPE_CHECKING:  # imported for annotations only; keeps import light
    from repro.adjacency.csr import CSRGraph

__all__ = ["Epoch", "EpochStore"]


class Epoch:
    """One immutable published snapshot plus its reader bookkeeping.

    ``id`` increases by one per publish; ``mutation_count`` is the value of
    the representation's monotonic mutation counter at publish time — the
    key that ties the epoch back to a precise structural state.  The
    snapshot (a frozen :class:`~repro.adjacency.csr.CSRGraph`) is shared by
    every reader pinned to the epoch; derived results are memoised in a
    per-epoch cache so concurrent queries compute them once.
    """

    __slots__ = ("id", "mutation_count", "snapshot", "published_at", "pins",
                 "_cache", "_cache_lock")

    def __init__(self, epoch_id: int, mutation_count: int, snapshot: "CSRGraph") -> None:
        self.id = int(epoch_id)
        self.mutation_count = int(mutation_count)
        self.snapshot = snapshot
        self.published_at = time.monotonic()
        #: Live reader count; guarded by the owning store's lock.
        self.pins = 0
        self._cache: dict[str, Any] = {}
        self._cache_lock = threading.Lock()

    def cached(self, key: str, compute: Callable[[], Any]) -> Any:
        """Memoise ``compute()`` under ``key`` for this epoch's lifetime.

        The per-epoch lock serialises the *first* computation of each key
        (one components run per epoch, not one per concurrent query);
        subsequent reads return the stored value without recomputing.
        """
        with self._cache_lock:
            if key not in self._cache:
                self._cache[key] = compute()
                METRICS.inc("service.epoch.cache_misses")
            else:
                METRICS.inc("service.epoch.cache_hits")
            return self._cache[key]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Epoch(id={self.id}, mutations={self.mutation_count}, "
                f"arcs={self.snapshot.n_arcs}, pins={self.pins})")


class EpochStore:
    """Refcounted epoch rotation: one writer publishes, readers pin.

    All state transitions run under one short lock; neither side ever
    holds it across a kernel, a snapshot build, or any other O(graph)
    work, which is the non-blocking guarantee the concurrency suite
    (``tests/service/test_epoch.py``) exercises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Epoch] = None
        #: Superseded epochs still pinned by in-flight readers, by id.
        self._retired: dict[int, Epoch] = {}
        self._next_id = 0
        self.n_published = 0
        self.n_retired = 0

    # ------------------------------------------------------------------ #
    # writer side
    # ------------------------------------------------------------------ #

    def publish(self, snapshot: "CSRGraph", mutation_count: int) -> Epoch:
        """Install ``snapshot`` as the new current epoch (writer only).

        A publish whose ``mutation_count`` equals the current epoch's is a
        no-op returning the current epoch — rotation is keyed on structural
        change, so an idle writer loop cannot churn identical epochs.  The
        superseded epoch is dropped immediately when unpinned, or parked in
        the retired set until its last reader releases.
        """
        with self._lock:
            cur = self._current
            if cur is not None and cur.mutation_count == int(mutation_count):
                return cur
            epoch = Epoch(self._next_id, mutation_count, snapshot)
            self._next_id += 1
            self._current = epoch
            self.n_published += 1
            if cur is not None:
                if cur.pins > 0:
                    self._retired[cur.id] = cur
                else:
                    self.n_retired += 1
                    METRICS.inc("service.epoch.retired")
            METRICS.inc("service.epoch.published")
            METRICS.set("service.epoch.current", float(epoch.id))
            METRICS.set("service.epoch.live", float(self._n_live_locked()))
            return epoch

    # ------------------------------------------------------------------ #
    # reader side
    # ------------------------------------------------------------------ #

    def pin(self) -> Epoch:
        """Pin and return the current epoch (raises before the first publish).

        The caller must pair every pin with exactly one :meth:`release`;
        prefer the :meth:`reading` context manager, which cannot leak.
        """
        with self._lock:
            if self._current is None:
                raise ServiceError("no epoch published yet — the service has not started")
            self._current.pins += 1
            METRICS.inc("service.epoch.pins")
            return self._current

    def release(self, epoch: Epoch) -> None:
        """Drop one reader pin; retire the epoch when it drains.

        An epoch is freed once it is no longer current *and* its reader
        count has reached zero — the no-leak invariant
        (:meth:`n_live` returns to 1 after all readers finish).
        """
        with self._lock:
            if epoch.pins <= 0:
                raise ServiceError(f"unbalanced release of epoch {epoch.id}")
            epoch.pins -= 1
            if epoch.pins == 0 and epoch is not self._current:
                if self._retired.pop(epoch.id, None) is not None:
                    self.n_retired += 1
                    METRICS.inc("service.epoch.retired")
                    METRICS.set("service.epoch.live", float(self._n_live_locked()))

    @contextmanager
    def reading(self) -> Iterator[Epoch]:
        """``with store.reading() as epoch:`` — pin for the block's duration."""
        epoch = self.pin()
        try:
            yield epoch
        finally:
            self.release(epoch)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def current(self) -> Optional[Epoch]:
        """The latest published epoch (None before the first publish)."""
        with self._lock:
            return self._current

    def _n_live_locked(self) -> int:
        return (1 if self._current is not None else 0) + len(self._retired)

    @property
    def n_live(self) -> int:
        """Epochs currently held in memory (current + pinned retired)."""
        with self._lock:
            return self._n_live_locked()

    def lag_of(self, mutation_count: int) -> int:
        """Mutations the live structure has run ahead of the current epoch."""
        with self._lock:
            if self._current is None:
                return int(mutation_count)
            return max(0, int(mutation_count) - self._current.mutation_count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            cur = self._current.id if self._current is not None else None
            return (f"EpochStore(current={cur}, live={self._n_live_locked()}, "
                    f"published={self.n_published})")
