"""Snapshot export as a patch of the last one (treap and hybrid).

A treap-backed structure's full export walks its whole forest
(:meth:`~repro.adjacency.treap.TreapAdjacency._scatter_inorder`), yet a
batch of updates moves only a few arcs of it.  :class:`PatchedExport` keeps
the last export and a log of the batches applied since, and builds the next
export from the previous one: the work is a few passes over the arc arrays
plus work proportional to the batches, not a descent through every treap.

The patch is exact because every side of these structures follows one rule
for copies of an arc ``(u, v)``: they sit in arrival order and a delete
removes the oldest live one (dyn-arr tombstones the first match in slot
order; a treap keeps equal keys in arrival order and deletes the leftmost).
So per ``(u, v)`` the deletes of a stream consume, first in first out, the
copies in the last export (in run order) and then the stream's own inserts
(:func:`patch_runs`), with misses by dyn-arr's demand formula
(:func:`repro.adjacency.bulkops.apply_mixed`).  A surviving insert goes
after the last old arc with key ``<= v`` of a sorted (treap) run, at the end
of an array run; a vertex whose run turned from array to treap since the
last export (a hybrid migration) has its old run taken out and re-inserted
with its survivors, sorted by key.

The previous export is never written: epochs pin it.  The structure walks
instead of patching after a per-op mutation outside a batch (the
``mutation_count`` chain of the log breaks), when the log holds more arcs
than the last export, and when the patched run lengths differ from the
live degrees, an O(n) self-check that ticks
``adjacency.export_patch_mismatches``.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency import bulkops
from repro.adjacency.csr import CSRGraph, csr_offsets
from repro.obs import METRICS

__all__ = ["PatchedExport", "patch_runs"]


def patch_runs(old: CSRGraph, op, src, dst, ts, sorted_old=None, sorted_new=None):
    """``(offsets, targets, ts)`` of ``old`` after the arc stream ``(op, src,
    dst, ts)`` (int8 codes, int64 arrays, arrival order), or None when a run
    would turn from sorted to unsorted.

    ``sorted_old`` / ``sorted_new`` flag the vertices whose run is sorted by
    key in ``old`` / after the stream (None: every run, before and after).
    """
    n, off, tgt, stamp = old.n, old.offsets, old.targets, old.ts
    deg = np.diff(off)
    moved = np.empty(0, dtype=np.int64)
    if sorted_old is not None:
        if (sorted_old & ~sorted_new).any():
            return None
        # A run that turned sorted leaves the old export whole and comes
        # back as inserts ahead of the stream.
        owners = np.flatnonzero(sorted_new > sorted_old)
        moved = bulkops.gather_index(off[owners], deg[owners])
        if moved.size:
            op = np.concatenate((np.ones(moved.size, dtype=np.int8), op))
            src = np.concatenate((np.repeat(owners, deg[owners]), src))
            dst = np.concatenate((tgt[moved], dst))
            ts = np.concatenate((stamp[moved], ts))
    # Per (u, v), in arrival order: the key's copies in ``old`` (run order)
    # are the head of the queue, the stream's inserts its tail.
    order, key_s = bulkops.stable_order(src * n + dst, n * n)
    kuniq, kstarts, kcounts = bulkops.group_runs(key_s)
    ku, kv = kuniq // n, kuniq % n
    ins = (op[order] == 1).astype(np.int64)
    dl = 1 - ins
    n_del = np.add.reduceat(dl, kstarts) if dl.size else dl
    # Sorted runs: a key's old copies end where its inserts go.
    sorted_k = np.ones(ku.size, dtype=bool) if sorted_old is None else sorted_old[ku]
    at = off[ku + 1]
    idx = np.flatnonzero(sorted_k)
    okey = np.repeat(np.arange(0, n * n, n, dtype=np.int64), deg)
    okey += tgt
    at[idx] = np.searchsorted(okey, kuniq[idx], side="right")
    first = at.copy()
    idx = idx[n_del[idx] > 0]
    first[idx] = np.searchsorted(okey, kuniq[idx], side="left")
    del okey
    supply = at - first
    # Array runs that lose arcs: their keys, sorted, point back into the run.
    arr = np.flatnonzero(~sorted_k & (n_del > 0))
    arr = arr[sorted_new[ku[arr]] == sorted_old[ku[arr]]] if arr.size else arr
    owners = bulkops.group_runs(ku[arr])[0]
    slots = bulkops.gather_index(off[owners], deg[owners])
    by_key, keys = bulkops.stable_order(np.repeat(owners, deg[owners]) * n + tgt[slots], n * n)
    slots = slots[by_key]
    first[arr] = np.searchsorted(keys, kuniq[arr], side="left")
    supply[arr] = np.searchsorted(keys, kuniq[arr], side="right") - first[arr]
    before = bulkops._segment_prefix(ins, kstarts, kcounts)
    demand = bulkops._segment_prefix(dl, kstarts, kcounts) + dl - before
    demand *= dl
    misses = np.maximum(np.maximum.reduceat(demand, kstarts) - supply, 0) if dl.size else dl
    consumed = n_del - misses
    from_old = np.minimum(consumed, supply)
    keep = ins.astype(bool)
    keep &= before >= np.repeat(consumed - from_old, kcounts)
    si = order[keep]
    gone = np.concatenate((
        moved,
        bulkops.gather_index(first[idx], from_old[idx]),
        slots[bulkops.gather_index(first[arr], from_old[arr])],
    ))
    gone.sort()
    at = np.repeat(at, kcounts)[keep]
    if sorted_old is not None:
        # Array runs keep arrival order: regroup by (owner, key or 0, arrival).
        su = src[si]
        by_arrival = np.argsort(si)
        group = su * n + np.where(sorted_new[su], dst[si], 0)
        perm = by_arrival[bulkops.stable_order(group[by_arrival], n * n)[0]]
        si, at = si[perm], at[perm]
    su, sv = src[si], dst[si]
    # Each insert's output slot; the old arcs that stay fill the others in
    # order.
    k = int(si.size)
    slot = at - np.searchsorted(gone, at, side="left") + np.arange(k, dtype=np.int64)
    stay = np.ones(tgt.size, dtype=bool)
    stay[gone] = False
    fill = np.ones(tgt.size - gone.size + k, dtype=bool)
    fill[slot] = False
    targets, times = np.empty(fill.size, dtype=np.int64), np.empty(fill.size, dtype=np.int64)
    targets[fill], times[fill] = tgt[stay], stamp[stay]
    targets[slot], times[slot] = sv, ts[si]
    owner_gone = np.searchsorted(off, gone, side="right") - 1
    deg -= np.bincount(owner_gone, minlength=n)
    deg += np.bincount(su, minlength=n)
    return csr_offsets(deg), targets, times


class PatchedExport:
    """``to_csr`` as the last export patched by the batches logged since.

    Mixed in ahead of :class:`~repro.adjacency.base.AdjacencyRepresentation`
    by structures that provide ``_walk_csr`` (the full export),
    ``_live_degrees`` and ``_sorted_runs`` (None when every run is sorted),
    and that pass each batch entry point through :meth:`_logged`.
    """

    #: ``(export, mutation_count, sorted runs)`` of the last export.
    _last: tuple | None = None

    def _logged(self, op, src, dst, ts, apply):
        """Run ``apply()`` for the validated batch ``(op, src, dst, ts)``
        (``op`` None: all inserts) and log a copy of it while an export
        exists; returns what ``apply`` returns.  An empty batch runs
        nothing and returns 0."""
        if not src.size:
            return 0
        before = self._mutations
        out = apply()
        if self._last is not None:
            op = np.ones(src.size, dtype=np.int8) if op is None else op.copy()
            self._log.append((before, self._mutations, op, src.copy(), dst.copy(), ts.copy()))
            self._log_arcs += int(src.size)
            if self._log_arcs > self._last[0].n_arcs:
                self._last = self._log = None  # the walk is cheaper
        return out

    def _patched(self) -> CSRGraph | None:
        """The last export patched by the log, or None when the log does not
        account for every mutation since or the patch fails its check."""
        if self._last is None:
            return None
        old, key, sorted_old = self._last
        for before, after, *_ in self._log:
            if before != key:
                return None
            key = after
        if key != self._mutations or not old.n_arcs:
            return None
        stream = [np.concatenate(col) for col in zip(*(b[2:] for b in self._log))] or [
            np.empty(0, dtype=dt) for dt in (np.int8, np.int64, np.int64, np.int64)
        ]
        runs = patch_runs(old, *stream, sorted_old, self._sorted_runs())
        if runs is None or not np.array_equal(np.diff(runs[0]), self._live_degrees()):
            METRICS.inc("adjacency.export_patch_mismatches")
            return None
        METRICS.inc("adjacency.export_patches")
        return CSRGraph(self.n, *runs, meta={"source": self.kind})

    def to_csr(self) -> CSRGraph:
        """The last export patched by the batches since (:func:`patch_runs`),
        else the full walk; either becomes the export the next one patches."""
        g = self._patched() or self._walk_csr()
        self._last = (g, self._mutations, self._sorted_runs())
        self._log, self._log_arcs = [], 0
        return g
