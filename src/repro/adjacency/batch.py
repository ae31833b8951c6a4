"""Batched updates via semi-sorting (paper section 2.1.2).

When many tuples arrive together, the paper's batching strategy orders them
by vertex id and processes each vertex's updates at once — a clean fix for
the hot-vertex load-balancing problem, whose cost floor is the semi-sort
itself: *"The time taken to semi-sort updates by their vertex is a lower
bound for this strategy."*  Figure 3 plots exactly that bound against
Dyn-arr, Vpart and Epart.

This module provides both pieces:

* :func:`semisort_phase` — the machine-independent work profile of the
  parallel semi-sort alone (Figure 3's upper-bound series);
* :class:`BatchedAdjacency` — a working batched representation: updates are
  buffered, semi-sorted, and applied per vertex group onto an inner
  Dyn-arr, with the sort's work charged in the profile.

The host-side sort is :func:`repro.adjacency.bulkops.stable_order` (one
packed-key ``ndarray.sort``); :func:`semisort_phase` charges the *modelled*
radix passes and does not depend on how the host sorts.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.base import AdjacencyRepresentation, HotStats
from repro.adjacency.bulkops import stable_order
from repro.adjacency.csr import CSRGraph
from repro.adjacency.dynarr import DynArrAdjacency
from repro.errors import GraphError
from repro.machine.profile import Phase
from repro.util.validation import check_op_codes

__all__ = ["semisort_phase", "BatchedAdjacency", "apply_batched"]

#: Bytes per update record moved by the semi-sort: (op, src, dst, ts).
_RECORD_BYTES = 32.0
#: ALU ops per record per radix pass (digit extract, histogram, move).
_ALU_PER_RECORD = 8.0
#: Radix digit width: 8-bit digits are the standard choice (256 buckets fit
#: per-thread histograms in L1).
_RADIX_BITS = 8


def semisort_phase(n_updates: int, n_vertices: int, name: str = "semisort") -> Phase:
    """Work profile of semi-sorting ``n_updates`` records by vertex.

    Modelled as the standard parallel LSD radix sort over the vertex-id key:
    ``ceil(log2(n)/8)`` passes, each streaming every 32-byte record in and
    scattering it to its bucket position (one dependent random access per
    record per pass), with per-thread histograms and a barrier-separated
    prefix-sum between passes.  O(k) work for a batch of k updates — the
    paper's bound — but with the multi-pass constant that makes the measured
    bound fall *below* Dyn-arr's insertion rate in Figure 3.
    """
    if n_updates < 0:
        raise GraphError(f"update count must be >= 0, got {n_updates}")
    if n_vertices <= 0:
        raise GraphError(f"vertex count must be positive, got {n_vertices}")
    key_bits = max(1, int(np.ceil(np.log2(max(n_vertices, 2)))))
    passes = max(1.0, float(-(-key_bits // _RADIX_BITS)))
    return Phase(
        name=name,
        alu_ops=_ALU_PER_RECORD * passes * n_updates,
        # Each pass streams the records in and writes them back out.
        seq_bytes=2.0 * _RECORD_BYTES * passes * n_updates,
        # Scatter to the bucket position: one dependent access per record
        # per pass over the full output array.
        rand_accesses=passes * float(n_updates),
        footprint_bytes=2.0 * _RECORD_BYTES * n_updates + 8.0 * n_vertices,
        barriers=2.0 * passes,
    )


class BatchedAdjacency(AdjacencyRepresentation):
    """Batched semi-sorted application onto an inner Dyn-arr.

    Single-update calls are legal but forfeit the batching benefit; the
    intended entry point is :meth:`apply_arcs`, which semi-sorts the whole
    batch and applies each vertex's updates contiguously.
    """

    kind = "batched"

    def __init__(self, n: int, *, inner: AdjacencyRepresentation | None = None, **kwargs) -> None:
        super().__init__(n)
        self.inner = inner if inner is not None else DynArrAdjacency(n, **kwargs)
        if self.inner.n != n:
            raise GraphError("inner representation vertex count mismatch")
        #: Updates that went through the batched path (for the sort profile).
        self.batched_updates = 0
        self.batches = 0

    @property
    def vectorised_arc_ops(self) -> int:
        return self.inner.vectorised_arc_ops

    # Delegated single-op interface -------------------------------------- #

    def insert(self, u: int, v: int, ts: int = 0) -> None:
        self.inner.insert(u, v, ts)
        self._n_arcs += 1

    def delete(self, u: int, v: int) -> bool:
        found = self.inner.delete(u, v)
        if found:
            self._n_arcs -= 1
        return found

    def degree(self, u: int) -> int:
        return self.inner.degree(u)

    def neighbors(self, u: int) -> np.ndarray:
        return self.inner.neighbors(u)

    def neighbors_with_ts(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        return self.inner.neighbors_with_ts(u)

    def has_arc(self, u: int, v: int) -> bool:
        return self.inner.has_arc(u, v)

    def memory_bytes(self) -> int:
        return self.inner.memory_bytes()

    def bulk_insert(self, src, dst, ts=None) -> None:
        """Delegate to the inner structure's (vectorised) bulk ingest."""
        before = self.inner.n_arcs
        self.inner.bulk_insert(src, dst, ts)
        self._n_arcs += self.inner.n_arcs - before

    def to_csr(self) -> CSRGraph:
        """The inner structure's export, under this wrapper's name."""
        g = self.inner.to_csr()
        g.meta["source"] = self.kind
        return g

    # Batched path -------------------------------------------------------- #

    def apply_arcs(self, op, src, dst, ts=None) -> int:
        """Semi-sort the batch by source vertex, then apply per vertex.

        Within a vertex, original arrival order is preserved (the packed-key
        semisort :func:`~repro.adjacency.bulkops.stable_order` returns the
        stable order), so the final structure state matches in-order
        application whenever updates to distinct vertices commute — which
        they do, since each update touches exactly one source vertex's list.
        The inner structure receives a grouped stream, which its own
        grouping step recognises and does not sort again.
        """
        op = check_op_codes(op)
        src, dst, t = self._checked_batch(src, dst, ts, op)
        if src.size == 0:
            return 0
        order, grouped = stable_order(src, self.n)
        misses = self.inner.apply_arcs(op[order], grouped, dst[order], t[order])
        applied = int(src.size)
        self.batched_updates += applied
        self.batches += 1
        self._n_arcs = self.inner.n_arcs
        return misses

    # Profiles ------------------------------------------------------------ #

    def phase(self, name: str, hot: HotStats | None = None) -> Phase:
        """Inner-structure work plus the semi-sort passes.

        Batching removes hot-vertex *contention* (each vertex is owned by
        one thread within a batch) but not the load-imbalance cap (that
        vertex's updates still run on one thread) — so atomics lose their
        serial floor while ``max_unit_frac`` stays.
        """
        hot = hot or HotStats()
        inner = self.inner.phase(f"{name}/apply", HotStats(hot.total_ops, 0, hot.max_unit_frac))
        sort = semisort_phase(self.batched_updates, self.n, name=f"{name}/semisort")
        merged = sort.merged_with(inner)
        return Phase(
            name=name,
            alu_ops=merged.alu_ops,
            seq_bytes=merged.seq_bytes,
            rand_accesses=merged.rand_accesses,
            footprint_bytes=max(inner.footprint_bytes, sort.footprint_bytes),
            atomics=merged.atomics,
            atomic_max_addr=0.0,
            barriers=merged.barriers,
            max_unit_frac=hot.max_unit_frac,
        )

    def reset_stats(self) -> None:
        self.stats.reset()
        self.inner.reset_stats()
        self.batched_updates = 0
        self.batches = 0


def apply_batched(
    rep: AdjacencyRepresentation,
    op,
    src,
    dst,
    ts=None,
    *,
    batch_size: int,
) -> int:
    """Apply an arc stream to any representation in fixed-size batches.

    Convenience driver for experiments that sweep batch sizes; returns the
    total number of failed deletes.
    """
    if batch_size <= 0:
        raise GraphError(f"batch size must be positive, got {batch_size}")
    op = check_op_codes(op)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    t = np.zeros(src.size, dtype=np.int64) if ts is None else np.asarray(ts, dtype=np.int64)
    misses = 0
    for start in range(0, src.size, batch_size):
        sl = slice(start, min(start + batch_size, src.size))
        misses += rep.apply_arcs(op[sl], src[sl], dst[sl], t[sl])
    return misses
