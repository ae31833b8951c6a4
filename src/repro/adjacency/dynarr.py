"""Resizable dynamic adjacency arrays — ``Dyn-arr`` (paper section 2.1.1).

Each vertex owns a contiguous block in a shared :class:`IntPool`; insertion
appends at the block's tail (constant time, lock-free via an atomic counter
increment in the paper's C code), and the block doubles when full — the
paper's chosen growth heuristic for power-law graphs.  Deletion scans the
block and *marks the slot deleted* (tombstone) rather than compacting, which
is exactly why the paper reports deletions "may necessitate O(n) additional
work" on high-degree vertices and motivates the hybrid structure.

``Dyn-arr-nr`` — the no-resize upper-bound variant used in Figures 1–3,
where per-vertex capacities are known a priori — is the same class
constructed through :meth:`DynArrAdjacency.preallocated`.

A batch (``apply_arcs``, ``bulk_insert``) of any size takes the grouped
kernels of :mod:`repro.adjacency.bulkops`; ``insert`` / ``delete`` are the
per-op API, and their loop (``apply_arcs_scalar``) the reference every batch
equals.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency import bulkops
from repro.adjacency.base import AdjacencyRepresentation
from repro.adjacency.csr import CSRGraph, csr_offsets
from repro.adjacency.mempool import IntPool
from repro.errors import GraphError
from repro.util.validation import check_op_codes

__all__ = ["DynArrAdjacency"]

#: Tombstone marker for deleted slots.
TOMBSTONE = -1

_I32_MIN, _I32_MAX = int(np.iinfo(np.int32).min), int(np.iinfo(np.int32).max)

#: Paper: "We set the size of each adjacency array to km/n initially, and we
#: find that a value of k = 2 performs reasonably well".
DEFAULT_K = 2


class DynArrAdjacency(AdjacencyRepresentation):
    """Dynamic adjacency arrays with doubling growth and tombstone deletes.

    Parameters
    ----------
    n:
        Number of vertices.
    initial_capacity:
        Per-vertex starting block size: an int applied to all vertices, or
        an int array of per-vertex capacities.  Defaults to
        ``max(1, round(k * expected_m / n))`` when ``expected_m`` is given,
        else 2.
    expected_m:
        Expected number of arcs, used with ``k`` for the paper's ``km/n``
        initial-size rule.
    k:
        Multiplier in the ``km/n`` rule (paper default 2).
    resize:
        When False the structure refuses to grow past the initial
        capacities — the ``Dyn-arr-nr`` optimal case (no resizing overhead).
    growth_factor:
        Block growth multiplier on resize (paper: doubling).
    """

    kind = "dynarr"

    def __init__(
        self,
        n: int,
        *,
        initial_capacity: int | np.ndarray | None = None,
        expected_m: int | None = None,
        k: int = DEFAULT_K,
        resize: bool = True,
        growth_factor: int = 2,
        pool: IntPool | None = None,
    ) -> None:
        super().__init__(n)
        if growth_factor < 2:
            raise GraphError(f"growth factor must be >= 2, got {growth_factor}")
        self.resize_allowed = bool(resize)
        self.growth_factor = int(growth_factor)

        if initial_capacity is None:
            if expected_m is not None and n > 0:
                initial_capacity = max(1, int(round(k * expected_m / n)))
            else:
                initial_capacity = 2
        if np.isscalar(initial_capacity):
            cap0 = np.full(n, max(1, int(initial_capacity)), dtype=np.int64)
        else:
            cap0 = np.asarray(initial_capacity, dtype=np.int64).copy()
            if cap0.shape != (n,):
                raise GraphError(
                    f"per-vertex capacities must have shape ({n},), got {cap0.shape}"
                )
            np.maximum(cap0, 1, out=cap0)
        self._cap0 = cap0

        if pool is None:
            # One column for targets, one for time labels; sized so typical
            # construction needs no pool-level growth.
            pool = IntPool(max(64, int(cap0.sum()) or 64), columns=2)
        elif pool.columns != 2:
            raise GraphError("DynArrAdjacency needs a 2-column pool (adj, ts)")
        self.pool = pool
        # Vertex ids are stored in the pool: past int32, it starts wide.
        pool.fit(0, n - 1)
        self._data = None
        self._refresh_views()

        #: Block start offset per vertex (-1 = not yet allocated).
        self.off = np.full(n, -1, dtype=np.int64)
        #: Current block capacity per vertex.
        self.cap = np.zeros(n, dtype=np.int64)
        #: Slots used per vertex (live + tombstones).
        self.cnt = np.zeros(n, dtype=np.int64)
        #: Live (non-tombstone) arcs per vertex.
        self.live = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def preallocated(cls, n: int, degrees, *, slack: int = 0) -> "DynArrAdjacency":
        """``Dyn-arr-nr``: exact per-vertex capacities, resizing disabled.

        ``degrees`` are the out-degrees the structure will hold (arc-level);
        ``slack`` adds headroom per vertex for streams that overshoot.
        """
        deg = np.asarray(degrees, dtype=np.int64)
        obj = cls(n, initial_capacity=deg + slack, resize=False)
        obj.kind = "dynarr-nr"
        return obj

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _refresh_views(self) -> None:
        """Re-point the column views after the pool grew or widened."""
        if self._data is not self.pool.data:
            self._data = self.pool.data
            self._adj, self._ts = self._data

    def _fit_stamps(self, lo: int, hi: int) -> None:
        """Widen the pool (once) if a stamp in ``[lo, hi]`` needs int64."""
        self.pool.fit(lo, hi)
        self._refresh_views()

    def _alloc_block(self, u: int, capacity: int) -> int:
        off = self.pool.alloc(capacity)
        self._refresh_views()
        self.off[u] = off
        self.cap[u] = capacity
        return off

    def _grow(self, u: int) -> None:
        """Double vertex ``u``'s block, copying used slots (incl. tombstones)."""
        if not self.resize_allowed:
            raise GraphError(
                f"Dyn-arr-nr capacity exceeded for vertex {u} "
                f"(cap={int(self.cap[u])}); construct with larger capacities"
            )
        old_off = int(self.off[u])
        old_cap = int(self.cap[u])
        used = int(self.cnt[u])
        new_cap = max(1, old_cap * self.growth_factor)
        new_off = self.pool.alloc(new_cap)
        self._refresh_views()
        self._adj[new_off : new_off + used] = self._adj[old_off : old_off + used]
        self._ts[new_off : new_off + used] = self._ts[old_off : old_off + used]
        self.pool.free(old_off, old_cap)
        self.off[u] = new_off
        self.cap[u] = new_cap
        self.stats.resize_events += 1
        self.stats.resize_copied_words += used

    # ------------------------------------------------------------------ #
    # hot-path operations
    # ------------------------------------------------------------------ #

    def insert(self, u: int, v: int, ts: int = 0) -> None:
        self.check_vertex(u)
        self.check_vertex(v)
        if not _I32_MIN <= ts <= _I32_MAX:
            self._fit_stamps(ts, ts)
        used = int(self.cnt[u])
        if self.off[u] < 0:
            self._alloc_block(u, int(self._cap0[u]))
        elif used == self.cap[u]:
            self._grow(u)
        slot = int(self.off[u]) + used
        self._adj[slot] = v
        self._ts[slot] = ts
        self.cnt[u] = used + 1
        self.live[u] += 1
        self._n_arcs += 1
        self.stats.inserts += 1

    def delete(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        off = int(self.off[u])
        used = int(self.cnt[u])
        if off < 0 or used == 0:
            self.stats.delete_misses += 1
            return False
        block = self._adj[off : off + used]
        hits = np.nonzero(block == v)[0]
        if hits.size == 0:
            self.stats.probe_words += used
            self.stats.delete_misses += 1
            return False
        first = int(hits[0])
        self.stats.probe_words += first + 1
        block[first] = TOMBSTONE
        self.live[u] -= 1
        self._n_arcs -= 1
        self.stats.deletes += 1
        return True

    def degree(self, u: int) -> int:
        self.check_vertex(u)
        return int(self.live[u])

    def neighbors(self, u: int) -> np.ndarray:
        self.check_vertex(u)
        off = int(self.off[u])
        if off < 0:
            return np.empty(0, dtype=np.int64)
        block = self._adj[off : off + int(self.cnt[u])]
        return block[block != TOMBSTONE].astype(np.int64)

    def neighbors_with_ts(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        self.check_vertex(u)
        off = int(self.off[u])
        if off < 0:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy()
        used = int(self.cnt[u])
        block = self._adj[off : off + used]
        keep = block != TOMBSTONE
        return block[keep].astype(np.int64), self._ts[off : off + used][keep].astype(np.int64)

    def has_arc(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        self.stats.searches += 1
        off = int(self.off[u])
        if off < 0:
            return False
        used = int(self.cnt[u])
        block = self._adj[off : off + used]
        hits = np.nonzero(block == v)[0]
        self.stats.probe_words += int(hits[0]) + 1 if hits.size else used
        return hits.size > 0

    def apply_arcs(self, op, src, dst, ts=None) -> int:
        """Arc-stream application through the grouped kernels.

        All-insert streams (construction workloads, Figures 1–4) take
        :func:`repro.adjacency.bulkops.bulk_insert`, mixed streams the
        delete-matching kernel (:func:`repro.adjacency.bulkops.apply_mixed`).
        Both keep adjacency contents and :class:`UpdateStats` bit-identical
        to :meth:`apply_arcs_scalar` (the equivalence suite enforces this).
        """
        op = check_op_codes(op)
        src, dst, t = self._checked_batch(src, dst, ts, op)
        if not src.size:
            return 0
        if bool(np.all(op == 1)):
            bulkops.bulk_insert(self, src, dst, t)
            return 0
        return bulkops.apply_mixed(self, op, src, dst, t)

    # ------------------------------------------------------------------ #
    # bulk ingest (vectorised per-vertex groups, counter-equivalent)
    # ------------------------------------------------------------------ #

    def _account_bulk(self, uniq: np.ndarray, cnt0: np.ndarray, k_ins: np.ndarray) -> None:
        """Hook called by the bulkops kernels after a grouped append.

        ``uniq`` are the touched vertices, ``cnt0`` their occupancy before
        the batch, ``k_ins`` the inserts each received.  Subclasses with
        per-insert side accounting (epart's split-list counter) override
        this; the per-op path accounts inside :meth:`insert` instead, so
        implementations must not double-count.
        """

    def bulk_insert(self, src, dst, ts=None) -> None:
        """Grouped insertion with counters identical to the sequential path.

        Updates are stably grouped by source vertex; per vertex, the doubling
        schedule the sequential path would follow is replayed analytically
        for pool and counter accounting, then all new slots are written with
        one gathered store.  Final adjacency content and
        :class:`UpdateStats` match the sequential path exactly (tests
        enforce this); only the pool's internal block layout may differ.
        """
        src, dst, t = self._checked_batch(src, dst, ts)
        if src.size:
            bulkops.bulk_insert(self, src, dst, t)

    def _live_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(targets, ts)`` of the live arcs, ascending owner then slot, in
        the pool's dtype: one gather of the occupied slots (never past
        ``cnt``), filtered only when tombstones exist."""
        idx = bulkops.gather_index(self.off, self.cnt)
        targets, ts = self._adj[idx], self._ts[idx]
        if idx.size != int(self.live.sum()):
            keep = targets != TOMBSTONE
            targets, ts = targets[keep], ts[keep]
        return targets, ts

    def to_csr(self) -> CSRGraph:
        """Offsets from ``live``, arcs from :meth:`_live_arcs` as int64."""
        targets, ts = (a.astype(np.int64, copy=False) for a in self._live_arcs())
        return CSRGraph(self.n, csr_offsets(self.live), targets, ts, meta={"source": self.kind})

    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """The four header arrays and the pool's host array."""
        header = self.off.nbytes + self.cap.nbytes + self.cnt.nbytes + self.live.nbytes
        return int(header) + self.pool.memory_bytes()

    def model_bytes(self) -> int:
        """Four 8-byte header words per vertex and the pool's model
        capacity: the paper's layout, which never reuses a block."""
        return 4 * 8 * self.n + self.pool.model_bytes()
