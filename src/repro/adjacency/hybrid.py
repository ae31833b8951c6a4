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
counter, pool byte and export identical to per-op ``insert`` / ``delete``,
which batches below ``bulkops.MIN_BULK_SIZE`` arcs take instead.
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
from repro.adjacency.dynarr import DynArrAdjacency
from repro.adjacency.treap import TreapAdjacency
from repro.errors import GraphError
from repro.machine.profile import Phase
from repro.util.validation import check_op_codes

__all__ = ["HybridAdjacency", "DEFAULT_DEGREE_THRESH", "recommend_degree_thresh"]

#: The paper's recommended threshold (section 2.1.5).
DEFAULT_DEGREE_THRESH = 32

_MODE_ARRAY = 0
_MODE_TREAP = 1


def recommend_degree_thresh(
    insert_frac: float,
    *,
    reference: int = DEFAULT_DEGREE_THRESH,
    lo: int = 4,
    hi: int = 512,
) -> int:
    """Runtime threshold heuristic (paper section 2.1.5).

    *"Given the graph update rate and the insertion to deletion ratio for an
    application, it may be possible to develop runtime heuristics for a
    reasonable threshold."*  The cost balance: an array delete scans half
    the block (≈ thresh/2 words) while a treap insert pays a lock plus a
    logarithmic descent.  Equating expected per-update overheads gives a
    threshold proportional to the insert:delete ratio, anchored at the
    paper's calibration point — 32 for an equal mix:

        thresh ≈ reference * (insert_frac / (1 - insert_frac))

    clipped to [lo, hi].  Insert-only streams return ``hi`` (stay in arrays
    as long as possible); delete-heavy streams migrate early.
    """
    if not 0.0 <= insert_frac <= 1.0:
        raise GraphError(f"insert_frac must be in [0, 1], got {insert_frac}")
    if insert_frac >= 1.0:
        return hi
    if insert_frac <= 0.0:
        return lo
    ratio = insert_frac / (1.0 - insert_frac)
    return int(np.clip(round(reference * ratio), lo, hi))


class HybridAdjacency(AdjacencyRepresentation):
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
        Treap priority seed.
    array_kwargs:
        Extra keyword arguments for the underlying :class:`DynArrAdjacency`.
    """

    kind = "hybrid"

    def __init__(
        self,
        n: int,
        *,
        degree_thresh: int = DEFAULT_DEGREE_THRESH,
        seed: int | np.random.Generator | None = None,
        array_kwargs: dict | None = None,
    ) -> None:
        super().__init__(n)
        if degree_thresh < 1:
            raise GraphError(f"degree_thresh must be >= 1, got {degree_thresh}")
        self.degree_thresh = int(degree_thresh)
        self.arr = DynArrAdjacency(n, **(array_kwargs or {}))
        self.treap = TreapAdjacency(n, seed=seed)
        self.mode = bytearray(n)  # _MODE_ARRAY / _MODE_TREAP per vertex

    @property
    def vectorised_arc_ops(self) -> int:
        return self.arr.vectorised_arc_ops

    # ------------------------------------------------------------------ #
    # migration
    # ------------------------------------------------------------------ #

    def _migrate_up(self, u: int) -> None:
        """Move vertex ``u``'s live adjacencies from the array to a treap
        (one fused run, in block order: the priorities per-op inserts draw)."""
        nbr, ts = self.arr.neighbors_with_ts(u)
        # Clear the array block: drop counts, abandon the block.
        off = int(self.arr.off[u])
        if off >= 0:
            self.arr.pool.abandon(int(self.arr.cap[u]))
        self.arr._n_arcs -= int(nbr.size)
        self.arr.off[u] = -1
        self.arr.cap[u] = 0
        self.arr.cnt[u] = 0
        self.arr.live[u] = 0
        nodes_before = self.treap.stats.nodes_visited
        rot_before = self.treap.stats.rotations
        self.treap._apply_run(None, [u] * int(nbr.size), nbr.tolist(), ts.tolist())
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
        self.mode[u] = _MODE_TREAP
        self.stats.migrations += 1
        self.stats.migration_words += int(nbr.size)

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

    def has_arc(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        if self.mode[u] == _MODE_ARRAY:
            return self.arr.has_arc(u, v)
        return self.treap.has_arc(u, v)

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
        — goes through the vectorised dyn-arr kernels in one call: those
        arcs consume no treap priorities and the two sides touch disjoint
        per-vertex state, so hoisting them commutes with the sequential
        interleaving.  The rest replays through the treap's fused run in
        arrival order, cut only at the migration points, where
        :meth:`_migrate_up` finds the array block exactly as the per-op
        path would.  Counters, pool bytes and exports stay bit-identical.
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
        if idx.size:
            ops = None if op is None else op[idx].tolist()
            us, vs, tss = src[idx].tolist(), dst[idx].tolist(), t[idx].tolist()

            def run(lo: int, hi: int) -> int:
                return self.treap._apply_run(
                    None if ops is None else ops[lo:hi], us[lo:hi], vs[lo:hi], tss[lo:hi]
                )

            by_arrival = np.argsort(cut_at)
            lo = 0
            for hi, u in zip(
                np.searchsorted(idx, cut_at[by_arrival]).tolist(),
                owners[by_arrival].tolist(),
            ):
                misses += run(lo, hi)
                self._migrate_up(u)
                lo = hi
            misses += run(lo, idx.size)
        self._n_arcs = self.arr.n_arcs + self.treap.n_arcs
        return misses

    def apply_arcs(self, op, src, dst, ts=None) -> int:
        """Partitioned stream application (see :meth:`_apply_partitioned`);
        small batches take the strict per-op loop."""
        op = check_op_codes(op)
        if not bulkops.enabled(self, op.size):
            return super().apply_arcs(op, src, dst, ts)
        src, dst, t = self._checked_batch(src, dst, ts, op)
        return self._apply_partitioned(op, src, dst, t)

    def bulk_insert(self, src, dst, ts=None) -> None:
        """Partitioned bulk ingest."""
        src, dst, t = self._checked_batch(src, dst, ts)
        if bulkops.enabled(self, src.size):
            self._apply_partitioned(None, src, dst, t)
        else:
            self.bulk_insert_scalar(src, dst, t)

    def to_csr(self) -> CSRGraph:
        """A vertex's arcs sit on one side (a migration empties the array
        block it leaves): offsets from ``arr.live`` plus the treap degrees,
        then the array side's arcs and the treap's in-order runs are written
        from their vertex's offset."""
        arr = self.arr
        offsets = csr_offsets(arr.live + np.frombuffer(self.treap._live_deg, dtype=np.int64))
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
            footprint_bytes=float(self.memory_bytes()),
            atomics=merged.atomics,
            atomic_max_addr=merged.atomic_max_addr,
            locks=merged.locks,
            lock_hold_cycles=merged.lock_hold_cycles,
            lock_hold_max_cycles=merged.lock_hold_max_cycles,
            lock_max_addr=merged.lock_max_addr,
            max_unit_frac=hot.max_unit_frac,
        )
