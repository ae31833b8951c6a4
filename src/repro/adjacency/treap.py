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
The whole-structure export is one level-synchronous numpy pass over the
forest; ``_inorder`` walks a single vertex's treap.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.adjacency.base import AdjacencyRepresentation, HotStats
from repro.adjacency.base import LOCK_HOLD_PER_NODE
from repro.util.seeding import make_rng
from repro.util.validation import check_vertex_ids

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

    def _new_node(self, v: int, ts: int) -> int:
        if not self._prio_block:
            self._prio_block = self._rng.integers(
                0, np.iinfo(np.int64).max, size=4096, dtype=np.int64
            ).tolist()
        prio = self._prio_block.pop()
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

    def bulk_insert(self, src, dst, ts=None) -> None:
        """Batch ingest: upfront validation, then a tight descent loop.

        Treap structure depends on the order nodes consume the shared
        pre-drawn priority stream, so arcs cannot be regrouped — rotations
        and node-visit counters would diverge from the sequential path.
        This override only hoists the per-arc validation and attribute
        lookups out of the loop; structure and counters stay bit-identical.
        """
        src = check_vertex_ids(src, self.n, "src")
        dst = check_vertex_ids(dst, self.n, "dst")
        t = np.zeros(src.size, dtype=np.int64) if ts is None else np.asarray(ts, dtype=np.int64)
        root = self.root
        deg = self._live_deg
        new_node = self._new_node
        insert_node = self._insert_node
        for u, v, lbl in zip(src.tolist(), dst.tolist(), t.tolist()):
            root[u] = insert_node(root[u], new_node(v, lbl))
            deg[u] += 1
        self._n_arcs += int(src.size)
        self.stats.inserts += int(src.size)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live-arc export: one level-synchronous pass over the whole forest.

        Emits exactly what the scalar per-vertex export does (ascending
        source, in-order targets).  Levels are discovered top-down from all
        roots at once, subtree sizes taken bottom-up, and every node gets
        its in-order slot top-down (``slot = start + size[left]``), so
        positions come from tree structure and equal keys keep their order.
        Cost is O(nodes + depth x per-level numpy overhead).  The results
        are fresh arrays; the pool views die with this frame, so the pool
        can grow again afterwards.
        """
        left = np.frombuffer(self._left, dtype=np.int64)
        right = np.frombuffer(self._right, dtype=np.int64)
        deg = np.frombuffer(self._live_deg, dtype=np.int64)
        src = np.repeat(np.arange(self.n, dtype=np.int64), deg)
        roots = np.frombuffer(self.root, dtype=np.int64)
        live = np.flatnonzero(roots != _NIL)
        nodes = tops = roots[live]
        levels = []
        while nodes.size:
            lc, rc = left[nodes], right[nodes]
            levels.append((nodes, lc, rc))
            kids = np.concatenate((lc, rc))
            nodes = kids[kids != _NIL]
        # One spare trailing entry: child id _NIL (-1) reads size 0 there.
        size = np.zeros(left.size + 1, dtype=np.int64)
        for nodes, lc, rc in reversed(levels):
            size[nodes] = 1 + size[lc] + size[rc]
        start = np.empty(left.size + 1, dtype=np.int64)
        start[tops] = (np.cumsum(deg) - deg)[live]
        slots = []
        for nodes, lc, rc in levels:
            first = start[nodes]
            slot = first + size[lc]
            start[lc] = first
            start[rc] = slot + 1
            slots.append(slot)
        order = np.empty(src.size, dtype=np.int64)
        if levels:
            order[np.concatenate(slots)] = np.concatenate([nodes for nodes, _, _ in levels])
        return (
            src,
            np.frombuffer(self._key, dtype=np.int64)[order],
            np.frombuffer(self._ts, dtype=np.int64)[order],
        )

    # ------------------------------------------------------------------ #
    # set operations (paper: union / intersection / difference on treaps)
    # ------------------------------------------------------------------ #

    def _copy_subtree(self, t: int) -> int:
        if t == _NIL:
            return _NIL
        nd = self._new_node(self._key[t], self._ts[t])
        self._prio[nd] = self._prio[t]
        self.stats.nodes_visited += 1
        self._left[nd] = self._copy_subtree(self._left[t])
        self._right[nd] = self._copy_subtree(self._right[t])
        return nd

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
        if t == _NIL:
            return
        self._free_subtree(self._left[t])
        self._free_subtree(self._right[t])
        self._free.append(t)

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
