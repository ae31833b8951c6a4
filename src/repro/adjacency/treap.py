"""Adjacency treaps (paper section 2.1.4; Seidel & Aragon 1996).

Each vertex's adjacency list is a treap — a binary search tree keyed by the
neighbour id with a heap priority per node — giving average-case
O(log degree) insertion, deletion and search.  This is the paper's answer to
Dyn-arr's expensive deletions: a treap *actually removes* the node, and the
cost is logarithmic in the degree rather than linear.

The trade-offs the paper reports are reproduced structurally here:

* insertions are slower than Dyn-arr (multiple scattered node accesses and
  rebalancing instead of one tail append);
* the size counter cannot be atomically incremented because the treap may
  rebalance at every step, so updates serialise behind a per-vertex lock
  with coarse hold times (modelled via ``lock_hold_cycles``);
* the memory footprint is larger (five words per arc versus an amortised
  ~two for Dyn-arr) — the paper reports 2–4x.

Set queries (union / intersection / difference of two neighbour sets) are
read-only numpy set routines over the in-order runs.

Implementation notes: nodes live in parallel ``array('q')`` buffers (an
index-based pool — no per-node objects — that numpy reads in place); deleted
nodes go on a free list for reuse.  The ``s``-th node ever created for
vertex ``u`` gets the priority :func:`_priority` ``(word, u, s)``, a hash
(Blelloch & Reid-Miller 1998), so no two nodes of one treap tie and a
treap's shape, its export and each update's node visits and rotations
depend only on that vertex's own updates.  An insert (a descent, then a
split) and a delete (a descent, then a merge) are loops over the one
root-to-leaf path the textbook recursion follows and count every node they
touch into :class:`~repro.adjacency.base.UpdateStats`.  Copies of one arc keep arrival
order (an insert goes after every equal key) and a delete removes the
oldest, the leftmost in order — dyn-arr's rule, so both arcs of an edge lose
the same copy, and copies form a treap as shallow as distinct keys would.
Update batches (``apply_arcs``, the hybrid's treap side and its migrations)
run those same loop bodies fused into :meth:`TreapAdjacency._apply_run` at
every batch size, bit-identical to the per-op methods, which remain the
public API and the oracle.
Construction (``bulk_insert``, on the hybrid too) builds every treap that is
empty when the batch starts as one Cartesian tree
(:meth:`TreapAdjacency._build_run`; Shun & Blelloch 2014): same pool bytes
and export, its own node-visit count.  The first whole-structure export is
one level-synchronous numpy pass over the forest (:meth:`TreapAdjacency.
_scatter_inorder`); each later one patches the last by the batches logged
since (:mod:`repro.adjacency.patch`).  ``neighbors_with_ts`` walks a single
vertex's treap.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.adjacency import bulkops
from repro.adjacency.base import AdjacencyRepresentation, HotStats
from repro.adjacency.base import LOCK_HOLD_PER_NODE
from repro.adjacency.csr import CSRGraph, csr_offsets
from repro.adjacency.patch import PatchedExport
from repro.util.seeding import make_rng
from repro.util.validation import check_op_codes

__all__ = ["TreapAdjacency"]

_NIL = -1

#: Arcs per fused-run call of a build: bounds the run's list scratch.
_RUN_SLICE = 1 << 14

_MASK = (1 << 64) - 1
#: The vertex term's multiplier (2**64 / golden ratio) and splitmix64's two
#: finalizer multipliers.
_U_MIX = 0x9E3779B97F4A7C15
_F1, _F2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _priority(word: int, u: int, s: int) -> int:
    """Priority of the ``s``-th node ever created for vertex ``u``:
    splitmix64's finalizer (a bijection) of ``word ^ u * _U_MIX ^ s`` mod
    2**64, read as int64.  Distinct ``s`` give distinct priorities, so the
    nodes of one treap never tie."""
    z = word ^ (u * _U_MIX & _MASK) ^ s
    z = (z ^ z >> 30) * _F1 & _MASK
    z = (z ^ z >> 27) * _F2 & _MASK
    z ^= z >> 31
    return z - (z >> 63 << 64)


def _priorities(word: int, us: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """:func:`_priority` over int64 arrays of owners and sequence numbers."""
    z = us.astype(np.uint64)
    z *= np.uint64(_U_MIX)
    z ^= np.uint64(word)
    z ^= ss.view(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_F1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_F2)
    z ^= z >> np.uint64(31)
    return z.view(np.int64)


def _cartesian(us, vs, prios, built, n):
    """The shape of the treaps holding the ``built`` run positions (owner
    ``us``, key ``vs``, priority ``prios``), one Cartesian tree per owner:
    ``(order, up, as_right, owners, counts)``.

    ``order`` sorts those positions by (owner, key, arrival): equal keys in
    arrival order, as the per-op insert leaves them.
    Each sorted position hangs under the lower of its nearest higher-priority
    positions before and after it within its owner's segment
    (:func:`_nearest_higher`; priorities within a segment are distinct):
    ``up`` is that position (``_NIL`` at a root), ``as_right`` says it is
    the one before, so the node is its right child.  ``owners`` /
    ``counts`` are the segments.
    """
    sel = np.flatnonzero(built)
    keys = us[sel]
    keys *= n
    keys += vs[sel]
    order, keys = bulkops.stable_order(keys, n * n)
    order = sel[order]
    del sel
    keys //= n
    owners, starts, counts = bulkops.group_runs(keys)
    del keys
    prio = prios[order]
    lo = np.arange(-1, order.size - 1, dtype=np.int64)
    lo[starts] = _NIL
    _nearest_higher(prio, lo)
    hi = np.arange(1, order.size + 1, dtype=np.int64)
    hi[starts + counts - 1] = _NIL
    _nearest_higher(prio, hi)
    as_right = prio[lo] < prio[hi]
    del prio
    as_right |= hi == _NIL
    as_right &= lo != _NIL
    return order, np.where(as_right, lo, hi), as_right, owners, counts


def _nearest_higher(prio: np.ndarray, near: np.ndarray) -> None:
    """Move each ``near[i]`` (a neighbour of ``i`` on one side, ``_NIL`` for
    none) on to ``i``'s nearest position on that side with a higher
    ``prio``, by pointer jumping: a candidate ``c`` with lower priority is
    replaced by ``near[c]``, which skips only positions below ``prio[c]``.
    Each round is a few gathers over the positions still moving, so the
    scratch stays O(positions)."""
    todo = np.flatnonzero(near != _NIL)
    while todo.size:
        todo = todo[prio[near[todo]] < prio[todo]]
        near[todo] = near[near[todo]]
        todo = todo[near[todo] != _NIL]


class TreapAdjacency(PatchedExport, AdjacencyRepresentation):
    """Per-vertex adjacency treaps over a shared index-based node pool.

    Parameters
    ----------
    n:
        Number of vertices.
    seed:
        Seed of the priority hash's word (determinism in tests and
        experiments).
    """

    kind = "treap"

    def __init__(self, n: int, *, seed: int | np.random.Generator | None = None) -> None:
        super().__init__(n)
        self._word = int(make_rng(seed).integers(0, 1 << 64, dtype=np.uint64))
        self.root = array("q", [_NIL]) * n
        # Node pool: parallel int64 buffers indexed by node id.
        self._key = array("q")
        self._prio = array("q")
        self._left = array("q")
        self._right = array("q")
        self._ts = array("q")
        self._free: list[int] = []
        self._live_deg = array("q", [0]) * n
        # Nodes ever created per vertex: the next one's sequence number.
        self._seq = array("q", [0]) * n

    # ------------------------------------------------------------------ #
    # node pool
    # ------------------------------------------------------------------ #

    def _prios(self, us: np.ndarray) -> np.ndarray:
        """Priorities of new nodes for the owners ``us`` (int64, creation
        order); each owner's sequence number advances past them."""
        order, owners = bulkops.stable_order(us, self.n)
        owners, starts, counts = bulkops.group_runs(owners)
        seq = np.frombuffer(self._seq, dtype=np.int64)
        ranks = np.repeat(seq[owners] - starts, counts)
        ranks += np.arange(us.size, dtype=np.int64)
        seq[owners] += counts
        ss = np.empty_like(us)
        ss[order] = ranks
        del order, ranks
        return _priorities(self._word, us, ss)

    def _new_node(self, u: int, v: int, ts: int) -> int:
        s = self._seq[u]
        self._seq[u] = s + 1
        prio = _priority(self._word, u, s)
        if self._free:
            nd = self._free.pop()
            self._key[nd] = v
            self._prio[nd] = prio
            self._left[nd] = _NIL
            self._right[nd] = _NIL
            self._ts[nd] = ts
            return nd
        self._key.append(v)
        self._prio.append(prio)
        self._left.append(_NIL)
        self._right.append(_NIL)
        self._ts.append(ts)
        return len(self._key) - 1

    @property
    def n_nodes(self) -> int:
        """Pool size including free-listed nodes."""
        return len(self._key)

    # ------------------------------------------------------------------ #
    # core treap algorithms (one loop per descent; every visited node is counted)
    # ------------------------------------------------------------------ #

    # Each descent carries a *hole* ``col[at]``: the child cell (or, before
    # the first step, a one-off result cell) that receives the next subtree.

    def _insert_node(self, t: int, nd: int) -> int:
        """Insert node ``nd`` into subtree ``t``: descend while ``nd``'s
        priority is the lower, then split the rest by key straight into
        ``nd``'s child cells, equal keys to the left (before ``nd``).
        Counts the descent's node visits and the split's rotations."""
        key, prio, left, right = self._key, self._prio, self._left, self._right
        k, p = key[nd], prio[nd]
        out = array("q", (t,))
        col, at = out, 0
        while t != _NIL:
            self.stats.nodes_visited += 1
            if p > prio[t]:
                break
            col = left if k < key[t] else right
            at, t = t, col[t]
        col[at] = nd
        lo_col, lo_at, hi_col, hi_at = left, nd, right, nd
        while t != _NIL:
            self.stats.rotations += 1
            if key[t] <= k:
                lo_col[lo_at] = t
                lo_col, lo_at, t = right, t, right[t]
            else:
                hi_col[hi_at] = t
                hi_col, hi_at, t = left, t, left[t]
        lo_col[lo_at] = hi_col[hi_at] = _NIL
        return out[0]

    def _delete_key(self, t: int, v: int) -> tuple[int, bool]:
        """Remove the oldest copy of ``v``, the leftmost in-order: the
        descent goes left at every key ``>= v`` down to a leaf, and the
        last equal key it passed is the one removed.  Its two subtrees are
        merged into the hole it leaves, a rotation per merge step."""
        key, prio, left, right = self._key, self._prio, self._left, self._right
        out = array("q", (t,))
        col, at = out, 0
        hit = None
        while t != _NIL:
            self.stats.nodes_visited += 1
            if v <= key[t]:
                if v == key[t]:
                    hit = col, at, t
                col = left
            else:
                col = right
            at, t = t, col[t]
        if hit is None:
            return out[0], False
        col, at, t = hit
        self._free.append(t)
        a, b = left[t], right[t]
        while a != _NIL and b != _NIL:
            self.stats.rotations += 1
            if prio[a] > prio[b]:
                col[at] = a
                col, at, a = right, a, right[a]
            else:
                col[at] = b
                col, at, b = left, b, left[b]
        col[at] = b if a == _NIL else a
        return out[0], True

    def _find(self, t: int, v: int) -> int:
        while t != _NIL:
            self.stats.nodes_visited += 1
            if v == self._key[t]:
                return t
            t = self._left[t] if v < self._key[t] else self._right[t]
        return _NIL

    # ------------------------------------------------------------------ #
    # hot-path operations
    # ------------------------------------------------------------------ #

    def insert(self, u: int, v: int, ts: int = 0) -> None:
        self.check_vertex(u)
        self.check_vertex(v)
        nd = self._new_node(u, v, ts)
        self.root[u] = self._insert_node(self.root[u], nd)
        self._live_deg[u] += 1
        self._n_arcs += 1
        self.stats.inserts += 1

    def delete(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        self.root[u], found = self._delete_key(self.root[u], v)
        if found:
            self._live_deg[u] -= 1
            self._n_arcs -= 1
            self.stats.deletes += 1
        else:
            self.stats.delete_misses += 1
        return found

    def degree(self, u: int) -> int:
        self.check_vertex(u)
        return self._live_deg[u]

    def neighbors(self, u: int) -> np.ndarray:
        return self.neighbors_with_ts(u)[0]

    def neighbors_with_ts(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        self.check_vertex(u)
        keys: list[int] = []
        tss: list[int] = []
        stack: list[int] = []
        t = self.root[u]
        while stack or t != _NIL:
            while t != _NIL:
                stack.append(t)
                t = self._left[t]
            t = stack.pop()
            keys.append(self._key[t])
            tss.append(self._ts[t])
            t = self._right[t]
        return np.asarray(keys, dtype=np.int64), np.asarray(tss, dtype=np.int64)

    def _targets_unordered(self, u: int) -> np.ndarray:
        """``u``'s keys level by level, top-down: one numpy step per level of
        its treap where :meth:`neighbors`' in-order walk takes a Python step
        per node (about 1 µs each).  The pool views die with this frame."""
        self.check_vertex(u)
        key = np.frombuffer(self._key, dtype=np.int64)
        left = np.frombuffer(self._left, dtype=np.int64)
        right = np.frombuffer(self._right, dtype=np.int64)
        root = self.root[u]
        nodes = np.array([root] if root != _NIL else [], dtype=np.int64)
        levels = [np.empty(0, dtype=np.int64)]
        while nodes.size:
            levels.append(key[nodes])
            kids = np.concatenate((left[nodes], right[nodes]))
            nodes = kids[kids != _NIL]
        return np.concatenate(levels)

    def has_arc(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        self.stats.searches += 1
        return self._find(self.root[u], v) != _NIL

    def multiplicity(self, u: int, v: int) -> int:
        """Copies of arc u→v in O(depth + copies), not O(degree).

        Equal keys are adjacent in key order, so every node holding ``v``
        lies where a search for ``v`` goes: on into both subtrees of a node
        holding ``v``, into one subtree of any other node.
        """
        self.check_vertex(u)
        self.check_vertex(v)
        self.stats.searches += 1
        key, left, right = self._key, self._left, self._right
        copies = 0
        stack = [self.root[u]]
        while stack:
            t = stack.pop()
            if t == _NIL:
                continue
            self.stats.nodes_visited += 1
            if key[t] == v:
                copies += 1
                stack += (left[t], right[t])
            else:
                stack.append(left[t] if v < key[t] else right[t])
        return copies

    # ------------------------------------------------------------------ #
    # bulk paths
    # ------------------------------------------------------------------ #

    def _apply_run(self, ops, us, vs, tss, prios) -> int:
        """Apply one run of arcs in arrival order; returns the failed deletes.

        The one batch loop over treap nodes: plain lists in (``ops`` holds
        +1 / -1 codes, None meaning all inserts; ids already range-checked;
        ``prios`` yields the inserts' priorities in turn, from
        :meth:`_prios`: an iterator shared by several calls carries on
        where the last one stopped), pool buffers, roots and free list bound
        to locals, :meth:`_new_node` / :meth:`_insert_node` inlined for an
        insert and :meth:`_delete_key` for a delete, counters kept in local
        ints and written back once.  Each descent carries the same hole as
        the per-op methods, starting at ``root[u]`` itself.  It reuses free
        nodes in the order the per-op replay would, so pool bytes, roots,
        free list and every counter come out bit-identical.  An owner-stable
        regrouping of the run would keep the shapes, the export and the
        counters, not the node ids; ``apply_arcs`` feeds the figures in
        arrival order.
        """
        key, prio, left, right, stamp = self._key, self._prio, self._left, self._right, self._ts
        root, deg, free = self.root, self._live_deg, self._free
        prios = iter(prios)
        visited = rotations = inserts = deletes = misses = 0
        for o, u, v, lbl in zip(repeat(1) if ops is None else ops, us, vs, tss):
            t = root[u]
            col, at = root, u
            if o == 1:
                p = next(prios)
                if free:
                    nd = free.pop()
                    key[nd] = v
                    prio[nd] = p
                    left[nd] = right[nd] = _NIL
                    stamp[nd] = lbl
                else:
                    nd = len(key)
                    key.append(v)
                    prio.append(p)
                    left.append(_NIL)
                    right.append(_NIL)
                    stamp.append(lbl)
                while t != _NIL:
                    visited += 1
                    if p > prio[t]:
                        # Split t by v straight into nd's two child cells.
                        lo_col, lo_at, hi_col, hi_at = left, nd, right, nd
                        while t != _NIL:
                            rotations += 1
                            if key[t] <= v:
                                lo_col[lo_at] = t
                                lo_col, lo_at, t = right, t, right[t]
                            else:
                                hi_col[hi_at] = t
                                hi_col, hi_at, t = left, t, left[t]
                        lo_col[lo_at] = hi_col[hi_at] = _NIL
                        break
                    col = left if v < key[t] else right
                    at, t = t, col[t]
                col[at] = nd
                deg[u] += 1
                inserts += 1
                continue
            hit = _NIL
            while t != _NIL:
                visited += 1
                k = key[t]
                if v <= k:
                    if v == k:
                        hit, hit_col, hit_at = t, col, at
                    col = left
                else:
                    col = right
                at, t = t, col[t]
            if hit == _NIL:
                misses += 1
                continue
            # Merge the oldest copy's children into the hole it leaves.
            col, at, a, b = hit_col, hit_at, left[hit], right[hit]
            while a != _NIL and b != _NIL:
                rotations += 1
                if prio[a] > prio[b]:
                    col[at] = a
                    col, at, a = right, a, right[a]
                else:
                    col[at] = b
                    col, at, b = left, b, left[b]
            col[at] = b if a == _NIL else a
            free.append(hit)
            deg[u] -= 1
            deletes += 1
        stats = self.stats
        stats.nodes_visited += visited
        stats.rotations += rotations
        stats.inserts += inserts
        stats.deletes += deletes
        stats.delete_misses += misses
        self._n_arcs += inserts - deletes
        return misses

    def _build_run(self, us: np.ndarray, vs: np.ndarray, tss: np.ndarray) -> None:
        """Insert an all-insert run (int64 arrays in creation order, ids
        range-checked), building every treap empty at its start in one
        piece.

        Node ``i`` gets the id and priority the fused run would give it: ids
        popped off the free list, then appended; priorities from its owner's
        sequence numbers (:meth:`_prios`).  A treap is the one Cartesian
        tree of its nodes in (key ascending, equal keys in arrival order)
        order, so the nodes of the empty treaps are sorted that way and each
        hangs under the lower of its nearest higher-priority neighbours
        within its owner's run (:func:`_cartesian`).  Pool bytes, roots and
        free list come out as the per-op replay leaves them; the build
        counts one node visit per node and no rotation.  Nodes of treaps
        that already hold keys take :meth:`_apply_run`, fed their
        pre-assigned ids through its own free list.
        """
        k = int(us.size)
        free = self._free
        reused = min(len(free), k)
        base = len(self._key)
        # The pool grows before any scratch exists, so it sits below the
        # scratch in the heap, which can then give that memory back; each
        # scratch array is dropped once used.  Both keep peak RSS at the
        # fused run's.
        pool = (self._key, self._prio, self._left, self._right, self._ts)
        if k > reused:
            pad = bytes(8 * (k - reused))
            for buf in pool:
                buf.frombytes(pad)
            del pad
        prios = self._prios(us)
        built = np.frombuffer(self.root, dtype=np.int64)[us] == _NIL
        order, *shape = _cartesian(us, vs, prios, built, self.n)
        ids = np.concatenate((
            np.array(free[len(free) - reused :][::-1], dtype=np.int64),
            np.arange(base, base + k - reused, dtype=np.int64),
        ))
        del free[len(free) - reused :]
        fused = np.flatnonzero(~built)
        del built
        fused_ids, fused_prios = ids[fused], prios[fused]
        # Every node goes in childless; the fused run rewrites its own.
        key, pri, left, right, stamp = (np.frombuffer(buf, dtype=np.int64) for buf in pool)
        key[ids], pri[ids], stamp[ids] = vs, prios, tss
        left[ids] = right[ids] = _NIL
        del key, pri, left, right, stamp, prios
        node = ids[order]
        del ids, order
        self._link(node, *shape)
        del node, shape
        for at in range(0, fused.size, _RUN_SLICE):
            part = slice(at, at + _RUN_SLICE)
            self._free = fused_ids[part][::-1].tolist()
            run = fused[part]
            self._apply_run(
                None, us[run].tolist(), vs[run].tolist(), tss[run].tolist(),
                fused_prios[part].tolist(),
            )
        self._free = free

    def _link(self, node, up, as_right, owners, counts) -> None:
        """Hang the built nodes (in :func:`_cartesian` order): each is the
        right child of ``node[up]`` where ``as_right``, else its left child,
        and its owner's root where ``up`` is ``_NIL``."""
        left, right = (np.frombuffer(buf, dtype=np.int64) for buf in (self._left, self._right))
        top = up == _NIL
        right[node[up[as_right]]] = node[as_right]
        as_right |= top
        left[node[up[~as_right]]] = node[~as_right]
        np.frombuffer(self.root, dtype=np.int64)[owners] = node[top]
        np.frombuffer(self._live_deg, dtype=np.int64)[owners] = counts
        self.stats.nodes_visited += int(node.size)
        self.stats.inserts += int(node.size)
        self._n_arcs += int(node.size)

    def bulk_insert(self, src, dst, ts=None) -> None:
        """Batch ingest: one validation, then :meth:`_build_run`, logged
        for the next export's patch.

        Construction is the one path that regroups arcs: a treap empty when
        the batch starts is built whole from its sorted keys, so its shape,
        pool bytes and export equal the per-op replay's, but
        ``nodes_visited`` / ``rotations`` count the build's own work (one
        visit per node, no rotation).  ``apply_arcs`` keeps arrival order.
        """
        src, dst, t = self._checked_batch(src, dst, ts)
        self._logged(None, src, dst, t, lambda: self._build_run(src, dst, t))

    def apply_arcs(self, op, src, dst, ts=None) -> int:
        """Mixed stream in arrival order through the fused run, logged for
        the next export's patch."""
        op = check_op_codes(op)
        src, dst, t = self._checked_batch(src, dst, ts, op)
        return self._logged(op, src, dst, t, lambda: self._apply_run(
            op.tolist(), src.tolist(), dst.tolist(), t.tolist(),
            self._prios(src[op == 1]).tolist(),
        ))

    def _scatter_inorder(self, offsets: np.ndarray, targets: np.ndarray, ts: np.ndarray) -> None:
        """Write every vertex's in-order ``(key, stamp)`` run at ``offsets[u]``.

        One level-synchronous pass over the whole forest: levels are
        discovered top-down from all roots at once, subtree sizes taken
        bottom-up, and every node gets its in-order slot top-down (``slot =
        first + size of left subtree``, with ``first = offsets[u]`` at u's
        root), where its key and stamp are stored — so positions come from
        tree structure and equal keys keep their order.  Cost is O(nodes +
        depth x per-level numpy overhead).  The pool views die with this
        frame, so the pool can grow again afterwards.
        """
        key = np.frombuffer(self._key, dtype=np.int64)
        stamp = np.frombuffer(self._ts, dtype=np.int64)
        left = np.frombuffer(self._left, dtype=np.int64)
        right = np.frombuffer(self._right, dtype=np.int64)
        roots = np.frombuffer(self.root, dtype=np.int64)
        live = np.flatnonzero(roots != _NIL)
        nodes = roots[live]
        levels = []
        while nodes.size:
            kids = np.concatenate((left[nodes], right[nodes]))
            has = np.flatnonzero(kids != _NIL)
            levels.append((nodes, has))
            nodes = kids[has]
        # The next level is this level's existing children, lefts then
        # rights, so per-child values travel between consecutive levels by
        # position: ``has`` scatters them up and gathers them down.
        below = np.empty(0, dtype=np.int64)
        left_sizes = []
        for nodes, has in reversed(levels):
            ks = np.zeros(2 * nodes.size, dtype=np.int64)
            ks[has] = below
            left_size, right_size = ks[: nodes.size], ks[nodes.size :]
            left_sizes.append(left_size)
            below = 1 + left_size + right_size
        first = offsets[live]
        for (nodes, has), left_size in zip(levels, reversed(left_sizes)):
            slot = first + left_size
            targets[slot] = key[nodes]
            ts[slot] = stamp[nodes]
            first = np.concatenate((first, slot + 1))[has]

    def _live_degrees(self) -> np.ndarray:
        return np.frombuffer(self._live_deg, dtype=np.int64)

    def _sorted_runs(self) -> None:
        """Every run is sorted by key (None)."""
        return None

    def _walk_csr(self) -> CSRGraph:
        """The full export: offsets from the live degrees, arcs from
        :meth:`_scatter_inorder` (``to_csr`` patches this when it can)."""
        offsets = csr_offsets(self._live_degrees())
        targets = np.empty(int(offsets[-1]), dtype=np.int64)
        ts = np.empty_like(targets)
        self._scatter_inorder(offsets, targets, ts)
        return CSRGraph(self.n, offsets, targets, ts, meta={"source": self.kind})

    # ------------------------------------------------------------------ #
    # set queries (read-only: sorted, unique keys of the in-order runs)
    # ------------------------------------------------------------------ #

    def union_neighbors(self, u: int, w: int) -> np.ndarray:
        """Sorted union of the two vertices' neighbour *sets*."""
        return np.union1d(self.neighbors(u), self.neighbors(w))

    def intersect_neighbors(self, u: int, w: int) -> np.ndarray:
        """Sorted intersection of the two vertices' neighbour sets."""
        return np.intersect1d(self.neighbors(u), self.neighbors(w))

    def difference_neighbors(self, u: int, w: int) -> np.ndarray:
        """Sorted set difference N(u) - N(w)."""
        return np.setdiff1d(self.neighbors(u), self.neighbors(w))

    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Modelled footprint: five 8-byte words per pool node + roots.

        This is the footprint of the equivalent C structure (key, priority,
        left, right, time-stamp), which is what the cache model should see —
        not CPython's boxed-integer overhead.
        """
        return (len(self._key) * 5 + self.n) * 8

    def _sync_kwargs(self, hot: HotStats) -> dict:
        """Treaps serialise updates behind per-vertex locks (section 2.1.4).

        The hold time is the work done inside the lock — proportional to the
        nodes visited per operation.
        """
        s = self.stats
        ops = s.inserts + s.deletes + s.delete_misses
        if ops == 0:
            return {}
        per_op_nodes = s.nodes_visited / ops
        # The hottest vertex's treap is the deepest; its per-op hold is the
        # expected treap depth for a tree of roughly max_addr_ops entries
        # (1.4 log2 n for random priorities), not the structure-wide mean.
        hot_depth = 1.4 * np.log2(max(2.0, float(hot.max_addr_ops) + 1.0))
        return dict(
            locks=float(ops),
            lock_hold_cycles=LOCK_HOLD_PER_NODE * max(1.0, per_op_nodes),
            lock_hold_max_cycles=LOCK_HOLD_PER_NODE * max(1.0, hot_depth),
            lock_max_addr=min(float(hot.max_addr_ops), float(ops)),
        )
