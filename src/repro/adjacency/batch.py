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
* :class:`BatchedAdjacency` — a working batched representation: Dyn-arr
  storage, whose every batch is semi-sorted by vertex and applied one
  vertex group at a time, with the sort's work charged in the profile.

The host-side sort is :func:`repro.adjacency.bulkops.stable_order` (one
packed-key ``ndarray.sort``); :func:`semisort_phase` charges the *modelled*
radix passes and does not depend on how the host sorts.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.base import HotStats
from repro.adjacency.dynarr import DynArrAdjacency
from repro.errors import GraphError
from repro.machine.profile import Phase

__all__ = ["semisort_phase", "BatchedAdjacency"]

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


class BatchedAdjacency(DynArrAdjacency):
    """Dyn-arr storage with the semi-sort charged in the profile.

    Every Dyn-arr batch is already applied one vertex run at a time: its
    grouping step is the semi-sort (:func:`~repro.adjacency.bulkops.stable_order`),
    stable, so each vertex's updates keep their arrival order.  What this
    class adds is the cost model: the batches it applied and their updates,
    charged through :func:`semisort_phase`.  Single-update calls are legal
    but forfeit the batching benefit.
    """

    kind = "batched"

    def __init__(self, n: int, **kwargs) -> None:
        super().__init__(n, **kwargs)
        #: Updates that went through the batched path (for the sort profile).
        self.batched_updates = 0
        self.batches = 0

    def apply_arcs(self, op, src, dst, ts=None) -> int:
        """Dyn-arr's grouped application, counted as one batch when it
        carries any update."""
        misses = super().apply_arcs(op, src, dst, ts)
        k = int(np.size(src))
        if k:
            self.batched_updates += k
            self.batches += 1
        return misses

    def phase(self, name: str, hot: HotStats | None = None) -> Phase:
        """Dyn-arr work plus the semi-sort passes.

        Batching removes hot-vertex *contention* (each vertex is owned by
        one thread within a batch) but not the load-imbalance cap (that
        vertex's updates still run on one thread) — so atomics lose their
        serial floor while ``max_unit_frac`` stays.
        """
        hot = hot or HotStats()
        apply = super().phase(f"{name}/apply", HotStats(hot.total_ops, 0, hot.max_unit_frac))
        sort = semisort_phase(self.batched_updates, self.n, name=f"{name}/semisort")
        merged = sort.merged_with(apply)
        return Phase(
            name=name,
            alu_ops=merged.alu_ops,
            seq_bytes=merged.seq_bytes,
            rand_accesses=merged.rand_accesses,
            footprint_bytes=max(apply.footprint_bytes, sort.footprint_bytes),
            atomics=merged.atomics,
            atomic_max_addr=0.0,
            barriers=merged.barriers,
            max_unit_frac=hot.max_unit_frac,
        )

    def reset_stats(self) -> None:
        super().reset_stats()
        self.batched_updates = 0
        self.batches = 0
