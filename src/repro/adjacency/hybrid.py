"""``Hybrid-arr-treap`` — the paper's main data-structure contribution
(section 2.1.5).

Low-degree vertices (the overwhelming majority under a power-law degree
distribution) keep their adjacencies in :class:`DynArrAdjacency` blocks:
insertions are constant-time appends and deletions scan only a short block.
When a vertex's occupancy crosses ``degree_thresh`` its adjacency migrates
into a :class:`TreapAdjacency`, where deletions cost O(log degree) instead
of a linear scan over a potentially huge block.

The paper finds ``degree_thresh = 32`` a reasonable insertion/deletion
trade-off for R-MAT small-world inputs on its platforms, and notes that the
threshold could be tuned at runtime from the observed insert:delete ratio
(swept by the ``degree_thresh`` ablation, ``python -m repro.experiments
--ablations``).

Batches are applied as an exact partition (:meth:`HybridAdjacency.
_apply_partitioned`): arcs whose owner is in array mode when they arrive
take the vectorised dyn-arr kernels, the rest the treap's fused
arrival-order run, with migrations at precomputed cut points — every
counter, model byte and export identical to per-op ``insert`` / ``delete``,
at every batch size.  A migrated block is its vertex's first treap nodes,
so the treap's hashed priorities (:mod:`repro.adjacency.treap`) for a whole
batch are dealt up front.
Construction (``bulk_insert``) builds the treap side instead
(:meth:`HybridAdjacency._build_treap_side`): every treap empty when the
batch starts, a crossing vertex's migrated block included, becomes one
Cartesian tree, with the same model bytes and export; only ``nodes_visited``
and ``rotations`` count the build's own work.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency import bulkops
from repro.adjacency.base import (
    ALU_PER_NODE,
    ALU_PER_ROTATION,
    RAND_PER_NODE,
    AdjacencyRepresentation,
    HotStats,
    UpdateStats,
)
from repro.adjacency.csr import CSRGraph, csr_offsets
from repro.adjacency.dynarr import TOMBSTONE, DynArrAdjacency
from repro.adjacency.patch import PatchedExport
from repro.adjacency.treap import TreapAdjacency
from repro.errors import GraphError
from repro.machine.profile import Phase
from repro.util.validation import check_op_codes

__all__ = ["HybridAdjacency", "DEFAULT_DEGREE_THRESH"]

#: The paper's recommended threshold (section 2.1.5).
DEFAULT_DEGREE_THRESH = 32

_MODE_ARRAY = 0
_MODE_TREAP = 1


class HybridAdjacency(PatchedExport, AdjacencyRepresentation):
    """Dyn-arr for low-degree vertices, treaps past ``degree_thresh``.

    Parameters
    ----------
    n:
        Number of vertices.
    degree_thresh:
        Occupancy (live + tombstoned slots) at which a vertex's adjacency
        migrates from the array to a treap.  Migration is one-way, as the
        paper describes it: a treap vertex stays a treap vertex.
    seed:
        Seed of the treap's priority hash.
    """

    kind = "hybrid"

    def __init__(
        self,
        n: int,
        *,
        degree_thresh: int = DEFAULT_DEGREE_THRESH,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(n)
        if degree_thresh < 1:
            raise GraphError(f"degree_thresh must be >= 1, got {degree_thresh}")
        self.degree_thresh = int(degree_thresh)
        self.arr = DynArrAdjacency(n)
        self.treap = TreapAdjacency(n, seed=seed)
        self.mode = bytearray(n)  # _MODE_ARRAY / _MODE_TREAP per vertex

    # ------------------------------------------------------------------ #
    # migration
    # ------------------------------------------------------------------ #

    def _vacate(self, us, words: int) -> None:
        """Move vertices ``us`` to the treap side, ``words`` live arcs in
        all: their array blocks are released and their counts dropped."""
        arr = self.arr
        held = arr.off[us] >= 0
        arr.pool.free_many(arr.off[us][held], arr.cap[us][held])
        arr._n_arcs -= words
        arr.off[us] = -1
        arr.cap[us] = arr.cnt[us] = arr.live[us] = 0
        np.frombuffer(self.mode, dtype=np.uint8)[us] = _MODE_TREAP
        self.stats.migrations += len(us)
        self.stats.migration_words += words

    def _migrate_up(self, u: int, prios=None) -> None:
        """Move vertex ``u``'s live adjacencies from the array to a treap
        (one fused run, in block order: the block is the vertex's first
        treap nodes; ``prios`` yields their priorities if the caller drew
        them)."""
        nbr, ts = self.arr.neighbors_with_ts(u)
        if prios is None:
            prios = self.treap._prios(np.full(nbr.size, u, dtype=np.int64)).tolist()
        self._vacate([u], int(nbr.size))
        nodes_before = self.treap.stats.nodes_visited
        rot_before = self.treap.stats.rotations
        self.treap._apply_run(None, [u] * int(nbr.size), nbr.tolist(), ts.tolist(), prios)
        # Re-inserting into the treap inflated its counters; that work is
        # real but belongs to the migration (done once, outside the
        # per-update lock), so reclassify it — otherwise the treap's
        # per-operation lock-hold estimate is wildly inflated for large
        # thresholds.
        self.treap.stats.inserts -= int(nbr.size)
        self.stats.nodes_visited += self.treap.stats.nodes_visited - nodes_before
        self.stats.rotations += self.treap.stats.rotations - rot_before
        self.treap.stats.nodes_visited = nodes_before
        self.treap.stats.rotations = rot_before

    # ------------------------------------------------------------------ #
    # hot-path operations
    # ------------------------------------------------------------------ #

    def insert(self, u: int, v: int, ts: int = 0) -> None:
        self.check_vertex(u)
        self.check_vertex(v)
        if self.mode[u] == _MODE_ARRAY:
            if int(self.arr.cnt[u]) + 1 > self.degree_thresh:
                self._migrate_up(u)
                self.treap.insert(u, v, ts)
            else:
                self.arr.insert(u, v, ts)
        else:
            self.treap.insert(u, v, ts)
        self._n_arcs += 1

    def delete(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        if self.mode[u] == _MODE_ARRAY:
            found = self.arr.delete(u, v)
        else:
            found = self.treap.delete(u, v)
        if found:
            self._n_arcs -= 1
        return found

    def degree(self, u: int) -> int:
        self.check_vertex(u)
        if self.mode[u] == _MODE_ARRAY:
            return self.arr.degree(u)
        return self.treap.degree(u)

    def neighbors(self, u: int) -> np.ndarray:
        self.check_vertex(u)
        if self.mode[u] == _MODE_ARRAY:
            return self.arr.neighbors(u)
        return self.treap.neighbors(u)

    def neighbors_with_ts(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        self.check_vertex(u)
        if self.mode[u] == _MODE_ARRAY:
            return self.arr.neighbors_with_ts(u)
        return self.treap.neighbors_with_ts(u)

    def _targets_unordered(self, u: int) -> np.ndarray:
        self.check_vertex(u)
        if self.mode[u] == _MODE_ARRAY:
            return self.arr.neighbors(u)
        return self.treap._targets_unordered(u)

    def has_arc(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        if self.mode[u] == _MODE_ARRAY:
            return self.arr.has_arc(u, v)
        return self.treap.has_arc(u, v)

    def multiplicity(self, u: int, v: int) -> int:
        self.check_vertex(u)
        self.check_vertex(v)
        if self.mode[u] == _MODE_ARRAY:
            return self.arr.multiplicity(u, v)
        return self.treap.multiplicity(u, v)

    # ------------------------------------------------------------------ #
    # bulk paths
    # ------------------------------------------------------------------ #

    def _apply_partitioned(self, op, src, dst, t) -> int:
        """Apply a validated batch (``op`` None: all inserts) as two halves.

        ``arr.cnt`` only grows on insert and deletes never migrate, so when
        an array-mode vertex crosses ``degree_thresh`` is a function of its
        occupancy ``cnt0`` and the rank of each insert among its own: the
        insert of rank ``degree_thresh - cnt0`` migrates it.  Every arc that
        arrives while its owner is in array mode — all arcs of vertices that
        never cross, and a crossing vertex's arcs before its migration point
        — goes through the vectorised dyn-arr kernels in one call: the two
        sides touch disjoint per-vertex state and a treap's priorities
        depend only on its own vertex's inserts, so hoisting them commutes
        with the sequential interleaving.  The rest replays through the
        treap's fused run in arrival order (:meth:`_run_treap_side`), cut
        only at the migration points, where :meth:`_migrate_up` finds the
        array block exactly as the per-op path would.  Counters, model bytes
        and exports stay bit-identical.
        An all-insert batch builds its treap side instead
        (:meth:`_build_treap_side`): the same model bytes and exports, the
        build's own ``nodes_visited`` / ``rotations``.
        """
        k = int(src.size)
        ins_at = np.arange(k) if op is None else np.flatnonzero(op == 1)
        ins_src = src[ins_at]
        mode = np.frombuffer(self.mode, dtype=np.uint8)
        room = np.maximum(self.degree_thresh - self.arr.cnt, 0)
        crosses = (mode == _MODE_ARRAY) & (np.bincount(ins_src, minlength=self.n) > room)
        # Per vertex, the arrival index from which its arcs are treap-side:
        # a crossing vertex's is its insert of rank ``room`` (stable sort by
        # owner keeps arrival order within each owner's run).
        treap_from = np.where(mode == _MODE_TREAP, 0, k)
        theirs = crosses[ins_src]
        ins_at, ins_src = ins_at[theirs], ins_src[theirs]
        order, grouped = bulkops.stable_order(ins_src, self.n)
        owners, starts, _ = bulkops.group_runs(grouped)
        cut_at = treap_from[owners] = ins_at[order[starts + room[owners]]]
        on_treap = np.arange(k) >= treap_from[src]
        misses = 0
        idx = np.flatnonzero(~on_treap)
        if idx.size and op is None:
            self.arr.bulk_insert(src[idx], dst[idx], t[idx])
        elif idx.size:
            misses = self.arr.apply_arcs(op[idx], src[idx], dst[idx], t[idx])
        idx = np.flatnonzero(on_treap)
        # Crossing vertices in the order they migrate, with the treap-side
        # position of each one's migrating insert.
        by_arrival = np.argsort(cut_at)
        movers, hits = owners[by_arrival], np.searchsorted(idx, cut_at[by_arrival])
        if idx.size and op is None:
            self._build_treap_side(src, dst, t, idx, movers, hits)
        elif idx.size:
            misses += self._run_treap_side(op, src, dst, t, idx, movers, hits)
        self._n_arcs = self.arr.n_arcs + self.treap.n_arcs
        return misses

    def _run_treap_side(self, op, src, dst, t, idx, movers, hits) -> int:
        """The treap side of a mixed batch through the fused run, cut at
        each crossing vertex ``movers[i]``'s migrating insert ``idx[hits[i]]``
        for :meth:`_migrate_up`; returns the failed deletes.  The array side
        is applied, so a mover's live block is the one it migrates, its
        vertex's first treap nodes: one :meth:`TreapAdjacency._prios` deals
        the batch's priorities in the order the run and the migrations take
        them, each block just before its migrating insert."""
        ins = np.flatnonzero(op[idx] == 1)
        sizes = self.arr.live[movers]
        at = np.repeat(np.searchsorted(ins, hits), sizes)
        owners = np.insert(src[idx[ins]], at, np.repeat(movers, sizes))
        prios = iter(self.treap._prios(owners).tolist())
        ops, us, vs, tss = (a.tolist() for a in (op[idx], src[idx], dst[idx], t[idx]))

        def run(lo: int, hi: int) -> int:
            return self.treap._apply_run(ops[lo:hi], us[lo:hi], vs[lo:hi], tss[lo:hi], prios)

        misses = lo = 0
        for hi, u in zip(hits.tolist(), movers.tolist()):
            misses += run(lo, hi)
            self._migrate_up(u, prios)
            lo = hi
        return misses + run(lo, idx.size)

    def _build_treap_side(self, src, dst, t, idx, movers, hits) -> None:
        """The treap side of an all-insert batch, migrations included, as one
        :meth:`TreapAdjacency._build_run`.

        The run holds the treap nodes in the order the per-op path creates
        them: the arcs at ``idx`` in arrival order, with each crossing
        vertex ``movers[i]``'s live array block (slot order, as
        :meth:`_migrate_up` reads it) just before the arc at ``idx[hits[i]]``,
        its migrating insert.  A crossing vertex's treap is empty until
        then, so it is built whole.  Its block's node visits are
        reclassified to the migration, as :meth:`_migrate_up` does with the
        fused run's.
        """
        arr = self.arr
        slots = bulkops.gather_index(arr.off[movers], arr.cnt[movers])
        slots = slots[arr._adj[slots] != TOMBSTONE]
        sizes = arr.live[movers]
        # An arc's place in the run: its rank on the treap side, shifted
        # past every block that goes in at or before it.
        shift = np.zeros(idx.size, dtype=np.int64)
        shift[hits] = sizes
        shift = np.cumsum(shift)
        at_arc = np.arange(idx.size) + shift
        at_block = bulkops.gather_index(hits + shift[hits] - sizes, sizes)
        words = int(slots.size)
        us, vs, tss = (np.empty(idx.size + words, dtype=np.int64) for _ in range(3))
        us[at_arc], vs[at_arc], tss[at_arc] = src[idx], dst[idx], t[idx]
        us[at_block] = np.repeat(movers, sizes)
        vs[at_block], tss[at_block] = arr._adj[slots], arr._ts[slots]
        del slots, shift, at_arc, at_block
        self.treap._build_run(us, vs, tss)
        self._vacate(movers, words)
        self.treap.stats.inserts -= words
        self.treap.stats.nodes_visited -= words
        self.stats.nodes_visited += words

    def apply_arcs(self, op, src, dst, ts=None) -> int:
        """Partitioned stream application (see :meth:`_apply_partitioned`),
        logged for the next export's patch."""
        op = check_op_codes(op)
        src, dst, t = self._checked_batch(src, dst, ts, op)
        return self._logged(op, src, dst, t, lambda: self._apply_partitioned(op, src, dst, t))

    def bulk_insert(self, src, dst, ts=None) -> None:
        """Partitioned bulk ingest, the treap side built
        (:meth:`_build_treap_side`).  Logged for the next export's patch."""
        src, dst, t = self._checked_batch(src, dst, ts)
        self._logged(None, src, dst, t, lambda: self._apply_partitioned(None, src, dst, t))

    def _live_degrees(self) -> np.ndarray:
        return self.arr.live + np.frombuffer(self.treap._live_deg, dtype=np.int64)

    def _sorted_runs(self) -> np.ndarray:
        """Treap-side vertices, whose runs are sorted by key."""
        return np.frombuffer(self.mode, dtype=np.uint8) == _MODE_TREAP

    def _walk_csr(self) -> CSRGraph:
        """The full export (``to_csr`` patches it when it can).  A vertex's
        arcs sit on one side (a migration empties the array block it
        leaves): offsets from the live degrees, then the array side's arcs
        and the treap's in-order runs are written from their vertex's
        offset."""
        arr = self.arr
        offsets = csr_offsets(self._live_degrees())
        targets = np.empty(int(offsets[-1]), dtype=np.int64)
        ts = np.empty_like(targets)
        at = bulkops.gather_index(offsets[:-1], arr.live)
        targets[at], ts[at] = arr._live_arcs()
        self.treap._scatter_inorder(offsets, targets, ts)
        return CSRGraph(self.n, offsets, targets, ts, meta={"source": self.kind})

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    @property
    def n_arcs(self) -> int:
        return self._n_arcs

    def n_treap_vertices(self) -> int:
        """Vertices currently represented by treaps (reporting)."""
        return sum(self.mode)

    def memory_bytes(self) -> int:
        return self.arr.memory_bytes() + self.treap.memory_bytes() + len(self.mode)

    def model_bytes(self) -> int:
        return self.arr.model_bytes() + self.treap.model_bytes() + len(self.mode)

    def combined_stats(self) -> UpdateStats:
        """All counters across the array part, treap part and migrations."""
        return self.stats.merged(self.arr.stats).merged(self.treap.stats)

    def reset_stats(self) -> None:
        self.stats.reset()
        self.arr.reset_stats()
        self.treap.reset_stats()

    def phase(self, name: str, hot: HotStats | None = None) -> Phase:
        """Work profile combining both substructures plus migration traffic.

        Hot-vertex contention is attributed to the treap side: by
        construction the hottest (highest-update) vertices cross the degree
        threshold early and live in treaps, so their serialisation shows up
        as lock contention, not atomic contention.
        """
        hot = hot or HotStats()
        treap_ops = (
            self.treap.stats.inserts
            + self.treap.stats.deletes
            + self.treap.stats.delete_misses
        )
        hot_arr = HotStats(hot.total_ops, 0, 0.0)
        hot_treap = hot if treap_ops > 0 else HotStats()
        pa = self.arr.phase(f"{name}/arr", hot_arr)
        pt = self.treap.phase(f"{name}/treap", hot_treap)
        merged = pa.merged_with(pt)
        mig_bytes = 16.0 * self.stats.migration_words  # read + write per word
        # Migration re-insertion work (treap descents done once per vertex,
        # outside the per-update locks).
        mig_alu = (
            ALU_PER_NODE * self.stats.nodes_visited
            + ALU_PER_ROTATION * self.stats.rotations
        )
        mig_rand = RAND_PER_NODE * self.stats.nodes_visited
        return Phase(
            name=name,
            alu_ops=merged.alu_ops + mig_alu,
            seq_bytes=merged.seq_bytes + mig_bytes,
            rand_accesses=merged.rand_accesses + mig_rand,
            footprint_bytes=float(self.model_bytes()),
            atomics=merged.atomics,
            atomic_max_addr=merged.atomic_max_addr,
            locks=merged.locks,
            lock_hold_cycles=merged.lock_hold_cycles,
            lock_hold_max_cycles=merged.lock_hold_max_cycles,
            lock_max_addr=merged.lock_max_addr,
            max_unit_frac=hot.max_unit_frac,
        )
