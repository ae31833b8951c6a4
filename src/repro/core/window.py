"""Sliding-window graph maintenance.

The streaming pattern the paper's applications imply (communication traffic,
interaction monitoring): only the last W time units of interactions matter.
:class:`SlidingWindowGraph` packages it — each arriving batch of time-stamped
edges is inserted into a dynamic representation, and batches that age out of
the window are deleted, exactly the sustained insert+delete churn the
Hybrid-arr-treap structure exists for (sections 2.1.5, Figure 6).

Optionally maintains a :class:`~repro.core.connectivity.ConnectivityIndex`
so connectivity queries stay current without per-query rebuilds: each tick
is one update batch for :meth:`~repro.core.connectivity.ConnectivityIndex
.apply_batch`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.adjacency.base import AdjacencyRepresentation
from repro.adjacency.csr import CSRGraph
from repro.adjacency.registry import make_representation
from repro.core.connectivity import ConnectivityIndex
from repro.core.update_engine import apply_stream
from repro.errors import GraphError, StreamError
from repro.generators.streams import UpdateStream
from repro.util.validation import check_vertex_ids

__all__ = ["SlidingWindowGraph", "WindowBatch"]


@dataclass(frozen=True)
class WindowBatch:
    """One ingested batch, retained until it ages out."""

    tick: int
    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray

    @property
    def size(self) -> int:
        return int(self.src.size)


class SlidingWindowGraph:
    """A graph of the most recent ``window`` ticks of an edge stream.

    Parameters
    ----------
    n:
        Number of vertices.
    window:
        Number of ticks a batch stays live.
    representation:
        Adjacency structure (default ``hybrid`` — the sustained mixed
        workload is its design point).
    track_connectivity:
        Maintain an incremental connectivity index alongside the
        representation (costlier ingestion, O(depth) queries).
    """

    def __init__(
        self,
        n: int,
        window: int,
        *,
        representation: str | AdjacencyRepresentation = "hybrid",
        track_connectivity: bool = False,
        **rep_kwargs,
    ) -> None:
        if window < 1:
            raise GraphError(f"window must be >= 1, got {window}")
        self.n = int(n)
        self.window = int(window)
        self._batches: deque[WindowBatch] = deque()
        self._tick = -1
        if isinstance(representation, AdjacencyRepresentation):
            if representation.n != n:
                raise GraphError("representation vertex count mismatch")
            self.rep = representation
        else:
            self.rep = make_representation(representation, n, **rep_kwargs)
        self._conn = ConnectivityIndex.from_rep(self.rep) if track_connectivity else None

    # ------------------------------------------------------------------ #

    @property
    def tick(self) -> int:
        """The most recent tick ingested (-1 before the first batch)."""
        return self._tick

    @property
    def n_edges(self) -> int:
        """Live undirected edges (self-loops excluded on ingest)."""
        return sum(b.size for b in self._batches)

    def advance(self, src, dst, ts=None) -> int:
        """Ingest one tick's batch; returns the number of edges expired.

        Self-loops are dropped (they carry no connectivity information and
        would break the arc arithmetic).  ``ts`` defaults to the tick
        number, preserving temporal queries over the window.
        """
        src = check_vertex_ids(src, self.n, "src")
        dst = check_vertex_ids(dst, self.n, "dst")
        if src.size != dst.size:
            raise StreamError("src and dst must be equal length")
        self._tick += 1
        if ts is None:
            ts = np.full(src.size, self._tick, dtype=np.int64)
        else:
            ts = np.asarray(ts, dtype=np.int64)
            if ts.shape != src.shape:
                raise StreamError("ts must parallel src/dst")
        keep = src != dst
        batch = WindowBatch(self._tick, src[keep], dst[keep], ts[keep])
        self._batches.append(batch)
        expired = [self._batches.popleft() for _ in range(len(self._batches) - self.window)]

        # One update batch: this tick's inserts, then the expired deletes.
        parts = [batch, *expired]
        stream = UpdateStream(
            self.n,
            np.repeat(np.array([1] + [-1] * len(expired), dtype=np.int8),
                      [b.size for b in parts]),
            np.concatenate([b.src for b in parts]),
            np.concatenate([b.dst for b in parts]),
            np.concatenate([b.ts for b in parts]),
        )
        if self._conn is not None:
            self._conn.apply_batch(stream)
        else:
            apply_stream(self.rep, stream, reset_stats=False)
        return sum(b.size for b in expired)

    # ------------------------------------------------------------------ #

    def connected(self, u: int, v: int) -> bool:
        """Connectivity within the current window.

        O(depth) with ``track_connectivity``; otherwise falls back to a
        fresh spanning forest over the snapshot (O(n + m)).
        """
        if self._conn is not None:
            return self._conn.query(u, v)
        return ConnectivityIndex.from_csr(self.snapshot()).query(u, v)

    def n_components(self) -> int:
        if self._conn is not None:
            return self._conn.forest.n_trees()
        from repro.core.components import connected_components

        return connected_components(self.snapshot()).n_components

    def snapshot(self) -> CSRGraph:
        """CSR of the live window."""
        return self.rep.to_csr()

    def validate(self) -> None:
        """Invariants: arc count matches live batches; index consistent."""
        expected_arcs = 2 * self.n_edges
        if self.rep.n_arcs != expected_arcs:
            raise GraphError(
                f"window holds {self.n_edges} edges but the representation "
                f"has {self.rep.n_arcs} arcs (expected {expected_arcs})"
            )
        if self._conn is not None:
            self._conn.validate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlidingWindowGraph(n={self.n}, window={self.window}, "
            f"tick={self._tick}, edges={self.n_edges})"
        )
