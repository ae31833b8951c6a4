"""Adjacency treaps (paper section 2.1.4; Seidel & Aragon 1996).

Each vertex's adjacency list is a treap — a binary search tree keyed by the
neighbour id with a random heap priority per node — giving average-case
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

Set operations (union / intersection / difference) on adjacency sets are
provided as well; the paper notes they are the building blocks for batched
updates, traversal and induced subgraphs.

Implementation notes: nodes live in parallel ``array('q')`` buffers (an
index-based pool — no per-node objects — that numpy reads in place); deleted
nodes go on a free list for reuse.  Insert, delete, split and merge are loops
over the one root-to-leaf path the textbook recursion follows (equal keys form
a right spine as deep as their multiplicity, so depth is not logarithmic) and
count every node they touch into :class:`~repro.adjacency.base.UpdateStats`.
Batches (``bulk_insert``, ``apply_arcs``, the hybrid's treap side and its
migrations) run those same loop bodies fused into :meth:`TreapAdjacency.
_apply_run`, bit-identical to the per-op methods, which remain the public
API, the path of batches below ``bulkops.MIN_BULK_SIZE`` arcs and the
oracle.  The whole-structure export is one level-synchronous numpy pass
over the forest; ``_inorder`` walks a single vertex's treap.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.adjacency import bulkops
from repro.adjacency.base import AdjacencyRepresentation, HotStats
from repro.adjacency.base import LOCK_HOLD_PER_NODE
from repro.adjacency.csr import CSRGraph, csr_offsets
from repro.util.seeding import make_rng
from repro.util.validation import check_op_codes

__all__ = ["TreapAdjacency"]

_NIL = -1


class TreapAdjacency(AdjacencyRepresentation):
    """Per-vertex adjacency treaps over a shared index-based node pool.

    Parameters
    ----------
    n:
        Number of vertices.
    seed:
        Seed for node priorities (determinism in tests and experiments).
    """

    kind = "treap"

    def __init__(self, n: int, *, seed: int | np.random.Generator | None = None) -> None:
        super().__init__(n)
        self._rng = make_rng(seed)
        self.root = array("q", [_NIL]) * n
        # Node pool: parallel int64 buffers indexed by node id.
        self._key = array("q")
        self._prio = array("q")
        self._left = array("q")
        self._right = array("q")
        self._ts = array("q")
        self._free: list[int] = []
        self._live_deg = array("q", [0]) * n
        # Pre-drawn priorities, refilled in blocks (drawing one random int64
        # per insert through numpy is slow).
        self._prio_block: list[int] = []

    # ------------------------------------------------------------------ #
    # node pool
    # ------------------------------------------------------------------ #

    def _refill_prios(self) -> list[int]:
        """Draw the next block of priorities (the old one is used up)."""
        self._prio_block = self._rng.integers(
            0, np.iinfo(np.int64).max, size=4096, dtype=np.int64
        ).tolist()
        return self._prio_block

    def _new_node(self, v: int, ts: int) -> int:
        prio = (self._prio_block or self._refill_prios()).pop()
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

    def _split(self, t: int, k: int) -> tuple[int, int]:
        """Split subtree ``t`` into (< k, >= k) by key.  Counts rotations."""
        key, left, right = self._key, self._left, self._right
        out = array("q", (_NIL, _NIL))
        lo_col, lo_at, hi_col, hi_at = out, 0, out, 1
        while t != _NIL:
            self.stats.rotations += 1
            if key[t] < k:
                lo_col[lo_at] = t
                lo_col, lo_at, t = right, t, right[t]
            else:
                hi_col[hi_at] = t
                hi_col, hi_at, t = left, t, left[t]
        lo_col[lo_at] = hi_col[hi_at] = _NIL
        return out[0], out[1]

    def _merge(self, a: int, b: int) -> int:
        """Merge treaps with all keys in ``a`` <= all keys in ``b``."""
        prio, left, right = self._prio, self._left, self._right
        out = array("q", (_NIL,))
        col, at = out, 0
        while a != _NIL and b != _NIL:
            self.stats.rotations += 1
            if prio[a] > prio[b]:
                col[at] = a
                col, at, a = right, a, right[a]
            else:
                col[at] = b
                col, at, b = left, b, left[b]
        col[at] = b if a == _NIL else a
        return out[0]

    def _insert_node(self, t: int, nd: int) -> int:
        key, prio = self._key, self._prio
        k, p = key[nd], prio[nd]
        out = array("q", (t,))
        col, at = out, 0
        while t != _NIL:
            self.stats.nodes_visited += 1
            if p > prio[t]:
                self._left[nd], self._right[nd] = self._split(t, k)
                break
            col = self._left if k < key[t] else self._right
            at, t = t, col[t]
        col[at] = nd
        return out[0]

    def _delete_key(self, t: int, v: int) -> tuple[int, bool]:
        key = self._key
        out = array("q", (t,))
        col, at = out, 0
        while t != _NIL:
            self.stats.nodes_visited += 1
            if v == key[t]:
                col[at] = self._merge(self._left[t], self._right[t])
                self._free.append(t)
                return out[0], True
            col = self._left if v < key[t] else self._right
            at, t = t, col[t]
        return out[0], False

    def _find(self, t: int, v: int) -> int:
        while t != _NIL:
            self.stats.nodes_visited += 1
            if v == self._key[t]:
                return t
            t = self._left[t] if v < self._key[t] else self._right[t]
        return _NIL

    def _inorder(self, t: int, out_keys: list[int], out_ts: list[int]) -> None:
        stack: list[int] = []
        while stack or t != _NIL:
            while t != _NIL:
                stack.append(t)
                t = self._left[t]
            t = stack.pop()
            out_keys.append(self._key[t])
            out_ts.append(self._ts[t])
            t = self._right[t]

    # ------------------------------------------------------------------ #
    # hot-path operations
    # ------------------------------------------------------------------ #

    def insert(self, u: int, v: int, ts: int = 0) -> None:
        self.check_vertex(u)
        self.check_vertex(v)
        nd = self._new_node(v, ts)
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
        self.check_vertex(u)
        keys: list[int] = []
        tss: list[int] = []
        self._inorder(self.root[u], keys, tss)
        return np.asarray(keys, dtype=np.int64)

    def neighbors_with_ts(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        self.check_vertex(u)
        keys: list[int] = []
        tss: list[int] = []
        self._inorder(self.root[u], keys, tss)
        return np.asarray(keys, dtype=np.int64), np.asarray(tss, dtype=np.int64)

    def has_arc(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        self.stats.searches += 1
        return self._find(self.root[u], v) != _NIL

    # ------------------------------------------------------------------ #
    # bulk paths
    # ------------------------------------------------------------------ #

    def _apply_run(self, ops, us, vs, tss) -> int:
        """Apply one run of arcs in arrival order; returns the failed deletes.

        The one batch loop over treap nodes: plain lists in (``ops`` holds
        +1 / -1 codes, None meaning all inserts; ids already range-checked),
        pool buffers, roots, free list and priority block bound to locals,
        :meth:`_new_node` / :meth:`_insert_node` / :meth:`_split` inlined for
        an insert and :meth:`_delete_key` / :meth:`_merge` for a delete,
        counters kept in local ints and written back once.  Each descent
        carries the same hole as the per-op methods, starting at
        ``root[u]`` itself.  It draws priorities and reuses free nodes in
        the order the per-op replay would, so pool bytes, roots, free list,
        unconsumed priorities and every counter come out bit-identical —
        which is also why it may not regroup the run (see
        ``docs/PERFORMANCE.md``).
        """
        key, prio, left, right, stamp = self._key, self._prio, self._left, self._right, self._ts
        root, deg, free, block = self.root, self._live_deg, self._free, self._prio_block
        visited = rotations = inserts = deletes = misses = 0
        for o, u, v, lbl in zip(repeat(1) if ops is None else ops, us, vs, tss):
            t = root[u]
            col, at = root, u
            if o == 1:
                if not block:
                    block = self._refill_prios()
                p = block.pop()
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
                            if key[t] < v:
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
            while t != _NIL:
                visited += 1
                k = key[t]
                if v == k:
                    # Merge t's children into the hole t leaves.
                    a, b = left[t], right[t]
                    while a != _NIL and b != _NIL:
                        rotations += 1
                        if prio[a] > prio[b]:
                            col[at] = a
                            col, at, a = right, a, right[a]
                        else:
                            col[at] = b
                            col, at, b = left, b, left[b]
                    col[at] = b if a == _NIL else a
                    free.append(t)
                    deg[u] -= 1
                    deletes += 1
                    break
                col = left if v < k else right
                at, t = t, col[t]
            else:
                misses += 1
        stats = self.stats
        stats.nodes_visited += visited
        stats.rotations += rotations
        stats.inserts += inserts
        stats.deletes += deletes
        stats.delete_misses += misses
        self._n_arcs += inserts - deletes
        return misses

    def bulk_insert(self, src, dst, ts=None) -> None:
        """Batch ingest: one validation, then the fused run.

        Treap structure depends on the order nodes consume the shared
        pre-drawn priority stream, so arcs cannot be regrouped — rotations
        and node-visit counters would diverge from the sequential path.
        Small batches keep the per-op :meth:`insert` loop.
        """
        src, dst, t = self._checked_batch(src, dst, ts)
        if bulkops.enabled(self, src.size):
            self._apply_run(None, src.tolist(), dst.tolist(), t.tolist())
        else:
            self.bulk_insert_scalar(src, dst, t)

    def apply_arcs(self, op, src, dst, ts=None) -> int:
        """Mixed stream in arrival order through the fused run (small
        batches: the per-op :meth:`insert` / :meth:`delete` loop)."""
        op = check_op_codes(op)
        src, dst, t = self._checked_batch(src, dst, ts, op)
        if bulkops.enabled(self, op.size):
            return self._apply_run(op.tolist(), src.tolist(), dst.tolist(), t.tolist())
        return self.apply_arcs_scalar(op, src, dst, t)

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

    def to_csr(self) -> CSRGraph:
        """Offsets from the live degrees, arcs from :meth:`_scatter_inorder`."""
        offsets = csr_offsets(np.frombuffer(self._live_deg, dtype=np.int64))
        targets = np.empty(int(offsets[-1]), dtype=np.int64)
        ts = np.empty_like(targets)
        self._scatter_inorder(offsets, targets, ts)
        return CSRGraph(self.n, offsets, targets, ts, meta={"source": self.kind})

    # ------------------------------------------------------------------ #
    # set operations (paper: union / intersection / difference on treaps)
    # ------------------------------------------------------------------ #

    def _copy_subtree(self, t: int) -> int:
        """Pre-order copy of subtree ``t``; a stack, not recursion, because
        the input is a multiset whose equal-key spines are arbitrarily deep."""
        out = array("q", (_NIL,))
        stack = [(t, out, 0)]
        while stack:
            t, col, at = stack.pop()
            if t == _NIL:
                continue
            nd = col[at] = self._new_node(self._key[t], self._ts[t])
            self._prio[nd] = self._prio[t]
            self.stats.nodes_visited += 1
            stack.append((self._right[t], self._right, nd))
            stack.append((self._left[t], self._left, nd))
        return out[0]

    def _union(self, a: int, b: int) -> int:
        """Destructive set union of two subtrees (duplicates collapse)."""
        if a == _NIL:
            return b
        if b == _NIL:
            return a
        self.stats.rotations += 1
        if self._prio[a] < self._prio[b]:
            a, b = b, a
        l, r = self._split(b, self._key[a])
        # Drop one copy of a duplicated key from the right part.
        r, dup = self._delete_key(r, self._key[a])
        if dup:
            pass  # node already free-listed by _delete_key
        self._left[a] = self._union(self._left[a], l)
        self._right[a] = self._union(self._right[a], r)
        return a

    def _intersect(self, a: int, b: int) -> int:
        """Destructive set intersection; nodes not in the result are freed."""
        if a == _NIL or b == _NIL:
            self._free_subtree(a)
            self._free_subtree(b)
            return _NIL
        self.stats.rotations += 1
        l, r = self._split(b, self._key[a])
        r, dup = self._delete_key(r, self._key[a])
        li = self._intersect(self._left[a], l)
        ri = self._intersect(self._right[a], r)
        if dup:
            self._left[a] = li
            self._right[a] = ri
            return a
        self._free.append(a)
        return self._merge(li, ri)

    def _difference(self, a: int, b: int) -> int:
        """Destructive set difference a - b; consumed b-nodes are freed."""
        if a == _NIL:
            self._free_subtree(b)
            return _NIL
        if b == _NIL:
            return a
        self.stats.rotations += 1
        l, r = self._split(b, self._key[a])
        r, dup = self._delete_key(r, self._key[a])
        ld = self._difference(self._left[a], l)
        rd = self._difference(self._right[a], r)
        if dup:
            self._free.append(a)
            return self._merge(ld, rd)
        self._left[a] = ld
        self._right[a] = rd
        return a

    def _free_subtree(self, t: int) -> None:
        """Free-list subtree ``t`` in post-order (node, right, left walked
        off a stack, then reversed — same reason as :meth:`_copy_subtree`)."""
        order = []
        stack = [t]
        while stack:
            t = stack.pop()
            if t != _NIL:
                order.append(t)
                stack.append(self._left[t])
                stack.append(self._right[t])
        self._free.extend(reversed(order))

    def _set_op_arrays(self, u: int, w: int, op: str) -> np.ndarray:
        self.check_vertex(u)
        self.check_vertex(w)
        a = self._copy_subtree(self.root[u])
        b = self._copy_subtree(self.root[w])
        # Collapse duplicate keys within each copy first (multiset -> set).
        a = self._dedup(a)
        b = self._dedup(b)
        fn = {"union": self._union, "intersect": self._intersect, "difference": self._difference}[op]
        res = fn(a, b)
        keys: list[int] = []
        tss: list[int] = []
        self._inorder(res, keys, tss)
        self._free_subtree(res)
        return np.asarray(sorted(set(keys)), dtype=np.int64)

    def _dedup(self, t: int) -> int:
        keys: list[int] = []
        tss: list[int] = []
        self._inorder(t, keys, tss)
        self._free_subtree(t)
        out = _NIL
        prev: int | None = None
        for k_, ts_ in zip(keys, tss):
            if k_ != prev:
                nd = self._new_node(k_, ts_)
                out = self._insert_node(out, nd)
                prev = k_
        return out

    def union_neighbors(self, u: int, w: int) -> np.ndarray:
        """Sorted union of the two vertices' neighbour *sets*."""
        return self._set_op_arrays(u, w, "union")

    def intersect_neighbors(self, u: int, w: int) -> np.ndarray:
        """Sorted intersection of the two vertices' neighbour sets."""
        return self._set_op_arrays(u, w, "intersect")

    def difference_neighbors(self, u: int, w: int) -> np.ndarray:
        """Sorted set difference N(u) - N(w)."""
        return self._set_op_arrays(u, w, "difference")

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
