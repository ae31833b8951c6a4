"""Vectorised bulk-update kernels shared by the adjacency representations.

The paper's headline metric is sustained update throughput (MUPS) on streams
of millions of structural updates; a Python reproduction that dispatches one
interpreter-level call per arc cannot come near the memory-bound regime the
machine model reasons about.  This module supplies the batch-sorted
group-by-owner kernels (the strategy ConnectIt and GBBS use for batched
updates) that the :class:`~repro.adjacency.dynarr.DynArrAdjacency` family
plugs into ``apply_arcs`` / ``bulk_insert`` / ``to_csr``:

* **Grouping** — one packed-key semisort by owning vertex
  (:func:`stable_order`: the arrival index rides in the low bits of a unique
  key, so one in-place ``ndarray.sort`` returns the stable order *and* the
  sorted owners) turns the stream into contiguous per-vertex runs
  (:func:`group_runs`), after which every append is a single fancy-indexed
  store (:func:`gather_index`).
* **Capacity replay** — :func:`ensure_capacity` replays the sequential
  doubling schedule in closed form: per vertex, the blocks the one-at-a-time
  path would have allocated, copied and abandoned are summed analytically,
  so ``resize_events`` / ``resize_copied_words`` and the pool's
  ``used`` / ``abandoned`` totals are *bit-identical* to the scalar path
  (only block placement differs, the documented freedom of
  ``DynArrAdjacency.bulk_insert``).
* **Delete matching** — :func:`apply_mixed` resolves interleaved
  insert/delete streams without a Python loop.  Per (vertex, target) key the
  scalar semantics are a FIFO queue of live occurrences ordered by slot
  (tombstone the *first* match); the vectorised form computes, for the j-th
  delete of a key, the demand ``w_j = deletes_through_j - inserts_before_j``
  and marks it a miss iff ``w_j`` exceeds both the pre-existing supply ``e``
  and every earlier delete's demand (a segmented running maximum) — the
  ballot-style identity ``misses_through_j = max(0, max_k<=j (w_k - e))``.
  Survivors consume the ``r``-th queue element (``r = deletes_through_j -
  misses_through_j``): a pre-existing slot when ``r <= e``, else the
  ``(r - e)``-th same-key batch insert.  Probe-word charges fall out of the
  consumed slot positions exactly as the scalar scan would pay them.

Counter equivalence is not best-effort: ``tests/adjacency/test_equivalence``
asserts bit-identical ``UpdateStats``, adjacency contents, miss counts and
pool footprints against the scalar reference on randomized and adversarial
streams.  Representations whose semantics are order-sensitive beyond
per-vertex grouping (treap rotations consume a shared priority stream) use
none of these kernels: their bulk path is one fused arrival-order loop
(:meth:`repro.adjacency.treap.TreapAdjacency._apply_run`) behind the same
:func:`enabled` switch.

The batch picks its path from its own size (:func:`enabled`): batches
below :data:`MIN_BULK_SIZE` arcs take the per-op loop (the fixed per-call
cost of the grouping and gather passes outweighs the win there), as do
graphs too large to pack an arc into one key.  The per-op loops
(``apply_arcs_scalar``, ``bulk_insert_scalar``) are that small-batch path
and, called by name, the equivalence suite's oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

__all__ = [
    "MIN_BULK_SIZE",
    "MAX_KEY_N",
    "enabled",
    "stable_order",
    "group_runs",
    "segment_ranks",
    "gather_index",
    "ensure_capacity",
    "bulk_insert",
    "apply_mixed",
]

#: Insert op code in update streams (deletes are -1).
INSERT = 1
#: Deleted-slot marker; must match ``repro.adjacency.dynarr.TOMBSTONE``.
TOMBSTONE = -1

#: Below this many arcs the per-op loop wins (the fixed cost of a dozen
#: numpy calls per batch).
MIN_BULK_SIZE = 48

#: Largest vertex count for which an arc (u, v) packs into one int64 key
#: (u * n + v < 2**63); the mixed kernel falls back to scalar beyond it.
MAX_KEY_N = int(np.sqrt(np.iinfo(np.int64).max)) - 1

#: Widest packed sort key in bits (key above arrival index, see
#: :func:`stable_order`): a non-negative int64 with a bit to spare.
PACK_BITS = 62


def enabled(rep, size: int) -> bool:
    """Should ``rep`` take the vectorised path for a batch of ``size`` arcs?"""
    return size >= MIN_BULK_SIZE and rep.n <= MAX_KEY_N


# --------------------------------------------------------------------- #
# segmentation primitives
# --------------------------------------------------------------------- #


def segment_ranks(counts: np.ndarray) -> np.ndarray:
    """``[0..c0), [0..c1), ...`` concatenated, for segment sizes ``counts``."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def stable_order(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` where ``order`` is the stable argsort of ``keys``.

    The group-by-owner step of every batched update (paper section 2.1.2:
    semi-sort the updates by vertex, then apply), for validated int64 ``keys``
    in ``[0, bound)``.  Each key is packed above its arrival index —
    ``keys << bits | arange(m)`` with ``bits = (m - 1).bit_length()`` — and
    the packed array is sorted in place: the packed keys are unique, so any
    correct sort (numpy's introsort, the SIMD sort where it is dispatched)
    puts equal ``keys`` in arrival order, which is what a stable sort of
    ``keys`` alone would do, at a fraction of the cost of the timsort numpy
    runs when asked for a stable sort of 64-bit integers.  The low bits of the
    result are the permutation and the high bits the sorted keys, so callers
    need no ``keys[order]`` gather.

    What it does depends only on the input: keys already non-decreasing (a
    stream :class:`~repro.adjacency.batch.BatchedAdjacency` grouped, the
    reference export's ``src``) return the identity and ``keys`` itself, not a
    copy; a key too wide to pack (``bound`` and arrival index together past
    :data:`PACK_BITS`, reachable only for (owner, target) pair keys on graphs
    beyond about 2**24 vertices) takes the comparison sort.
    """
    m = int(keys.size)
    if m < 2 or (keys[1:] >= keys[:-1]).all():
        return np.arange(m, dtype=np.int64), keys
    bits = (m - 1).bit_length()
    if (bound - 1).bit_length() + bits > PACK_BITS:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = keys << bits
    packed |= np.arange(m, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    return order, packed


def group_runs(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values, starts, counts)`` of the runs in an ascending-sorted array."""
    k = int(sorted_keys.size)
    if k == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1]
    )
    counts = np.diff(np.append(starts, k))
    return sorted_keys[starts], starts, counts


def gather_index(offsets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat pool indices of the blocks ``[off, off+count)`` concatenated:
    one repeat of ``off - start`` (``start``: the block's output position)
    plus each element's output position."""
    starts = np.cumsum(counts) - counts
    idx = np.repeat(offsets - starts, counts)
    idx += np.arange(idx.size, dtype=np.int64)
    return idx


def _segment_prefix(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per element: sum of ``values`` strictly before it within its segment."""
    c = np.cumsum(values)
    return c - values - np.repeat(c[starts] - values[starts], counts)


# --------------------------------------------------------------------- #
# capacity replay (dynarr family)
# --------------------------------------------------------------------- #


def ensure_capacity(rep, uniq: np.ndarray, k_new: np.ndarray) -> None:
    """Allocate/grow blocks so each ``uniq[i]`` can absorb ``k_new[i]`` appends.

    Replays the sequential schedule analytically: the scalar path allocates a
    vertex's first block lazily (``_cap0`` slots) and doubles whenever the
    occupancy hits the capacity, copying a full block each time.  Deletes
    never shrink the occupancy, so for a batch the growth trajectory depends
    only on the starting occupancy and the number of inserts — summing the
    geometric ladder per vertex gives the exact scalar ``resize_events``,
    ``resize_copied_words`` and pool ``used``/``abandoned`` totals.
    """
    off, cap, cnt = rep.off, rep.cap, rep.cnt
    fresh = off[uniq] < 0
    if fresh.any():
        fv = uniq[fresh]
        sizes = rep._cap0[fv]
        off[fv] = rep.pool.alloc_many(sizes)
        cap[fv] = sizes
    capu = cap[uniq]
    final = cnt[uniq] + k_new
    need = final > capu
    if need.any():
        if not rep.resize_allowed:
            i = int(np.flatnonzero(need)[0])
            raise GraphError(
                f"Dyn-arr-nr capacity exceeded for vertex {int(uniq[i])} "
                f"(cap={int(capu[i])}, need {int(final[i])})"
            )
        g = rep.growth_factor
        gv = uniq[need]
        newcap = cap[gv].copy()
        fin = final[need]
        events = 0
        copied = 0
        alloced = 0
        while True:
            m = newcap < fin
            still = int(m.sum())
            if not still:
                break
            events += still
            copied += int(newcap[m].sum())
            newcap[m] *= g
            alloced += int(newcap[m].sum())
        # The scalar path abandons each outgrown block and allocates every
        # intermediate size; charge the same totals, then place the final
        # blocks for real.
        rep.pool.abandon(copied)
        dead = alloced - int(newcap.sum())
        if dead:
            rep.pool.alloc(dead)
        new_off = rep.pool.alloc_many(newcap)
        rep._refresh_views()
        used = cnt[gv]
        to, frm = gather_index(new_off, used), gather_index(off[gv], used)
        rep._adj[to] = rep._adj[frm]
        rep._ts[to] = rep._ts[frm]
        off[gv] = new_off
        cap[gv] = newcap
        rep.stats.resize_events += events
        rep.stats.resize_copied_words += copied
    rep._refresh_views()


# --------------------------------------------------------------------- #
# kernels (dynarr family; inputs pre-validated int64 arrays)
# --------------------------------------------------------------------- #


def bulk_insert(rep, src: np.ndarray, dst: np.ndarray, ts: np.ndarray) -> None:
    """Grouped vectorised append; counters identical to the scalar loop."""
    order, s = stable_order(src, rep.n)
    uniq, _, counts = group_runs(s)
    cnt0 = rep.cnt[uniq]
    ensure_capacity(rep, uniq, counts)
    slots = gather_index(rep.off[uniq] + cnt0, counts)
    rep._adj[slots] = dst[order]
    rep._ts[slots] = ts[order]
    rep.cnt[uniq] = cnt0 + counts
    rep.live[uniq] += counts
    rep.stats.inserts += int(s.size)
    rep._n_arcs += int(s.size)
    rep.vectorised_arc_ops += int(s.size)
    rep._account_bulk(uniq, cnt0, counts)


def apply_mixed(rep, op: np.ndarray, src: np.ndarray, dst: np.ndarray, ts: np.ndarray) -> int:
    """Vectorised interleaved insert/delete application (dynarr family).

    Returns the number of failed deletes.  See the module docstring for the
    matching math; the scalar path this must mirror is
    ``AdjacencyRepresentation.apply_arcs_scalar``.
    """
    n = rep.n
    order, s = stable_order(src, n)
    o = op[order]
    d = dst[order]
    t = ts[order]
    ins = o == INSERT
    ins64 = ins.astype(np.int64)

    uniq, starts, counts = group_runs(s)
    k_ins = np.add.reduceat(ins64, starts) if s.size else np.empty(0, dtype=np.int64)
    cnt0 = rep.cnt[uniq]
    # Batch inserts to the same vertex strictly before each op: determines
    # the append slot of every insert and the occupancy a miss scans.
    vins_before = _segment_prefix(ins64, starts, counts)

    has_ins = k_ins > 0
    if has_ins.any():
        ensure_capacity(rep, uniq[has_ins], k_ins[has_ins])

    off_op = np.repeat(rep.off[uniq], counts)
    cnt0_op = np.repeat(cnt0, counts)

    # Write every insert up front (slots >= cnt0 never collide with the
    # pre-batch prefix the delete matching reads below).
    ins_slots = off_op[ins] + cnt0_op[ins] + vins_before[ins]
    rep._adj[ins_slots] = d[ins]
    rep._ts[ins_slots] = t[ins]

    n_ins_total = int(ins64.sum())
    n_miss = 0
    n_succ = 0
    probe_words = 0
    dec = np.zeros(uniq.size, dtype=np.int64)

    if n_ins_total < o.size:
        # --- pre-existing live occurrences, keyed by (owner, target) ----- #
        gidx = gather_index(rep.off[uniq], cnt0)
        gvals = rep._adj[gidx]
        live_mask = gvals != TOMBSTONE
        gkey = np.repeat(uniq, cnt0)[live_mask] * n + gvals[live_mask]
        gslot = segment_ranks(cnt0)[live_mask]
        g_order, gkey_s = stable_order(gkey, n * n)  # slots ascending per key
        gslot_s = gslot[g_order]

        # --- ops in (owner, target) key order --------------------------- #
        okey = s * n + d
        k_order, key_s = stable_order(okey, n * n)
        ins2 = ins64[k_order]
        kuniq, kstarts, kcounts = group_runs(key_s)

        lo = np.searchsorted(gkey_s, kuniq, side="left")
        e_grp = np.searchsorted(gkey_s, kuniq, side="right") - lo

        grp = np.repeat(np.arange(kuniq.size, dtype=np.int64), kcounts)

        a = _segment_prefix(ins2, kstarts, kcounts)  # same-key inserts before
        del2 = 1 - ins2
        b = _segment_prefix(del2, kstarts, kcounts) + del2  # deletes through j

        e_op = e_grp[grp]

        # Miss iff demand w exceeds both the supply e and every earlier
        # demand in the key group (segmented running max via a per-group
        # shift large enough that groups never interfere).
        w = b - a
        shift = np.int64(2 * o.size + 2)
        shifted = w + grp * shift
        cmax = np.maximum.accumulate(shifted)
        first_or_higher = np.empty(o.size, dtype=bool)
        first_or_higher[0] = True
        first_or_higher[1:] = shifted[1:] > cmax[:-1]
        miss = (del2 == 1) & (w > e_op) & first_or_higher
        miss64 = miss.astype(np.int64)
        n_miss = int(miss64.sum())

        vins2 = vins_before[k_order]
        cnt0_2 = cnt0_op[k_order]
        off_2 = off_op[k_order]

        # A missing delete scans the whole occupied block at its moment:
        # cnt0 pre-batch slots plus the batch inserts already appended.
        # (Unallocated/empty blocks contribute zero, matching the scalar
        # early-out that charges no probe words.)
        probe_words += int((cnt0_2[miss] + vins2[miss]).sum())

        succ = (del2 == 1) & ~miss
        succ_idx = np.flatnonzero(succ)
        n_succ = int(succ_idx.size)
        if n_succ:
            m_incl = _segment_prefix(miss64, kstarts, kcounts) + miss64
            r = (b - m_incl)[succ_idx]  # 1-based rank in the key's FIFO queue
            e_s = e_op[succ_idx]
            g_s = grp[succ_idx]
            from_exist = r <= e_s
            ex = np.flatnonzero(from_exist)
            bx = np.flatnonzero(~from_exist)
            slots_exist = gslot_s[lo[g_s[ex]] + r[ex] - 1]
            # (r - e)-th same-key batch insert, located via the compacted
            # insert positions in key order.
            ins_pos = np.flatnonzero(ins2)
            ins_before_grp = np.cumsum(ins2)[kstarts] - ins2[kstarts]
            pos = ins_pos[ins_before_grp[g_s[bx]] + (r[bx] - e_s[bx]) - 1]
            slots_batch = cnt0_2[pos] + vins2[pos]
            tomb = np.concatenate(
                [off_2[succ_idx[ex]] + slots_exist, off_2[succ_idx[bx]] + slots_batch]
            )
            rep._adj[tomb] = TOMBSTONE
            # Successful scan stops at the consumed slot (slot index + 1).
            probe_words += int(slots_exist.sum()) + ex.size + int(slots_batch.sum()) + bx.size
            owners = kuniq[g_s] // n
            dec = np.bincount(
                np.searchsorted(uniq, owners), minlength=uniq.size
            ).astype(np.int64)

    rep.cnt[uniq] = cnt0 + k_ins
    rep.live[uniq] += k_ins - dec
    rep.stats.inserts += n_ins_total
    rep.stats.deletes += n_succ
    rep.stats.delete_misses += n_miss
    rep.stats.probe_words += probe_words
    rep._n_arcs += n_ins_total - n_succ
    rep.vectorised_arc_ops += n_ins_total + n_succ + n_miss
    rep._account_bulk(uniq, cnt0, k_ins)
    return n_miss
