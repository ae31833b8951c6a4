"""``Epart`` — edge-partitioned adjacency lists (paper section 2.1.3).

Vertices discovered to be high-degree during insertion get their adjacency
lists *split across threads*: each thread appends to its own sub-list, so
bursts of insertions to one hot vertex no longer contend on a single counter
or serialise on one block.  The paper's stated drawbacks, both modelled
here from measured quantities:

* the space overhead of the split sub-lists for high-degree vertices, and
* a subsequent merge step that reconstructs a single adjacency list
  (streaming every high-degree arc once more).

Storage is again :class:`~repro.adjacency.dynarr.DynArrAdjacency` (the merge
conceptually runs at the end of the update phase, so queries always see a
single list); the class tracks which arcs landed on high-degree vertices to
charge the merge traffic and the extra footprint, and removes the hot-vertex
serialisation from the synchronisation profile — that is the whole point of
the scheme.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.base import HotStats
from repro.adjacency.dynarr import DynArrAdjacency
from repro.errors import GraphError
from repro.machine.profile import Phase

__all__ = ["EPartAdjacency"]

#: Default occupancy past which a vertex counts as high-degree and its list
#: is split (same scale as the hybrid threshold).
DEFAULT_SPLIT_THRESH = 32

#: Sub-list slack: split lists are per-thread sized, so high-degree storage
#: roughly doubles (each sub-list carries its own doubling headroom).
_SPLIT_SPACE_FACTOR = 2.0


class EPartAdjacency(DynArrAdjacency):
    """Dyn-arr storage with split-list semantics for high-degree vertices."""

    kind = "epart"

    def __init__(self, n: int, *, split_thresh: int = DEFAULT_SPLIT_THRESH, **kwargs) -> None:
        super().__init__(n, **kwargs)
        if split_thresh < 1:
            raise GraphError(f"split_thresh must be >= 1, got {split_thresh}")
        self.split_thresh = int(split_thresh)
        #: Arcs appended while their vertex was past the split threshold.
        self.hi_arcs = 0

    def insert(self, u: int, v: int, ts: int = 0) -> None:
        super().insert(u, v, ts)
        if int(self.cnt[u]) > self.split_thresh:
            self.hi_arcs += 1

    def _account_bulk(self, uniq: np.ndarray, cnt0: np.ndarray, k_ins: np.ndarray) -> None:
        # Count arcs that landed past the threshold, vertex by vertex, with
        # the same semantics as the sequential path: an arc is "high" when
        # the occupancy *after* inserting it exceeds the threshold.  Only
        # inserts move the occupancy, so the count depends solely on the
        # pre-batch occupancy and the per-vertex insert totals — the per-op
        # path accounts inside :meth:`insert` instead.
        hi_after = np.maximum(cnt0 + k_ins - self.split_thresh, 0)
        hi_before = np.maximum(cnt0 - self.split_thresh, 0)
        self.hi_arcs += int((hi_after - hi_before).sum())

    def merged_arc_words(self) -> int:
        """Words the end-of-phase merge step streams (all split arcs)."""
        return self.hi_arcs

    def model_bytes(self) -> int:
        base = super().model_bytes()
        # Split sub-lists double the storage of the high-degree arcs.
        return int(base + (_SPLIT_SPACE_FACTOR - 1.0) * 16 * self.hi_arcs)

    def _sync_kwargs(self, hot: HotStats) -> dict:
        # Per-thread sub-lists: counters are thread-private, so the hottest
        # vertex no longer serialises; uncontended atomics remain for the
        # low-degree vertices.
        s = self.stats
        ops = float(s.inserts + s.deletes + s.delete_misses)
        return dict(atomics=max(0.0, ops - self.hi_arcs), atomic_max_addr=0.0)

    def phase(self, name: str, hot: HotStats | None = None) -> Phase:
        hot = hot or HotStats()
        # Splitting also spreads the hottest vertex's *insert work* across
        # threads, removing the load-imbalance cap for insertion phases.
        base = super().phase(name, HotStats(hot.total_ops, hot.max_addr_ops, 0.0))
        merge_bytes = 16.0 * self.merged_arc_words()  # read + write per word
        return Phase(
            name=base.name,
            alu_ops=base.alu_ops + 2.0 * self.merged_arc_words(),
            seq_bytes=base.seq_bytes + merge_bytes,
            rand_accesses=base.rand_accesses,
            footprint_bytes=float(self.model_bytes()),
            atomics=base.atomics,
            atomic_max_addr=base.atomic_max_addr,
            barriers=1.0,  # the merge step is a distinct synchronised phase
            max_unit_frac=0.0,
        )
