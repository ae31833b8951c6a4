"""Pluggable union-find substrate (the ConnectIt design space).

ConnectIt (Dhulipala, Hong & Shun 2020) showed that parallel connectivity
algorithms decompose into independently chosen *union rules* and *path
compaction rules*, composed with an optional *sampling phase* — and that the
composition, not any single algorithm, determines the work profile.  This
module provides the substrate: one :class:`UnionFind` whose behaviour is
assembled from

* a **union rule** — ``rank`` (union by rank), ``size`` (union by size), or
  ``rem`` (Rem's algorithm, where the union walk itself splices paths and
  no separate find is needed);
* a **compaction rule** applied by :meth:`UnionFind.find` — ``full``
  (two-pass path compression), ``splitting`` (each node re-pointed to its
  grandparent), ``halving`` (every other node re-pointed), or ``none``.

Every operation ticks a :class:`WorkCounters` record — finds, union
attempts, hooks (successful merges), pointer chases, compaction writes —
the measured quantities :mod:`repro.connectit.framework` turns into
:class:`~repro.machine.profile.WorkProfile` phases.  All rules are
deterministic, so a variant's counters are reproducible run to run.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields

import numpy as np

from repro import kernels
from repro.errors import GraphError
from repro.kernels import loops
from repro.util.validation import check_same_length, check_vertex_ids

__all__ = ["UNION_RULES", "COMPACTION_RULES", "WorkCounters", "UnionFind"]

#: Supported union rules (how two roots are hooked together).
UNION_RULES = ("rank", "size", "rem")

#: Supported path-compaction rules (what :meth:`UnionFind.find` does to the
#: path it walks).  ``rem`` performs its own splicing during the union walk,
#: so under Rem's algorithm the compaction rule only affects explicit finds.
COMPACTION_RULES = ("full", "splitting", "halving", "none")

#: Words per piece when the parent buffer is filled with the identity.
_FILL_WORDS = 8192

#: Arcs per settled-arc mask in :meth:`UnionFind.union_arcs`.
_BLOCK = 4096


@dataclass
class WorkCounters:
    """Measured work of a union-find run (the ConnectIt cost axes).

    ``unions`` counts *attempts* (edges examined); ``hooks`` counts the
    attempts that actually merged two trees (parent writes that change the
    partition).  ``pointer_chases`` are dependent parent-array loads — the
    latency-bound quantity — and ``compaction_writes`` are the parent
    rewrites performed by the compaction rule (or Rem's splices).
    """

    finds: int = 0
    unions: int = 0
    hooks: int = 0
    pointer_chases: int = 0
    compaction_writes: int = 0

    @property
    def atomics(self) -> int:
        """CAS-equivalent parent writes: hooks plus compaction rewrites."""
        return self.hooks + self.compaction_writes

    def snapshot(self) -> "WorkCounters":
        """A frozen copy (for phase boundaries)."""
        return WorkCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def since(self, earlier: "WorkCounters") -> "WorkCounters":
        """Counter deltas accumulated after ``earlier`` was snapshotted."""
        return WorkCounters(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def add(self, other: "WorkCounters") -> None:
        """Fold another run's counters into this record (process merge)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        """Plain-int dict (JSON-safe; used in profile meta and worker IPC)."""
        d = {f.name: int(getattr(self, f.name)) for f in fields(self)}
        d["atomics"] = self.atomics
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "WorkCounters":
        """Inverse of :meth:`to_dict` (``atomics`` is derived, not stored)."""
        return cls(**{f.name: int(d.get(f.name, 0)) for f in fields(cls)})


class UnionFind:
    """Array-based union-find with pluggable union and compaction rules.

    Parameters
    ----------
    n:
        Universe size; elements are the integers ``0..n-1``.
    union_rule:
        One of :data:`UNION_RULES`.
    compaction:
        One of :data:`COMPACTION_RULES`.

    Union-find is a dependent pointer-chasing workload, which is exactly
    what the counters must measure, so the algorithm is a loop of scalar
    loads and stores.  The store is therefore three ``array`` buffers
    (``'q'`` parent, ``'b'`` rank, ``'q'`` size; allocated once, never
    resized) whose items the interpreter reads as plain ints: the per-op
    methods and the interpreted :meth:`union_arcs` index them directly.
    :attr:`parent`, :attr:`rank` and :attr:`size` are zero-copy ndarray views
    of the same memory, for the vectorised users (:meth:`bulk_hook`, the
    label extraction) and for callers that write a forest in directly; a
    write through either side is seen by the other.
    The label *extraction* (:meth:`components`, :meth:`flat_roots`) is
    vectorised and counter-free — it is a read-only epilogue, not part of
    the algorithm's work.
    """

    def __init__(self, n: int, union_rule: str = "rank", compaction: str = "halving") -> None:
        if union_rule not in UNION_RULES:
            raise GraphError(f"unknown union rule {union_rule!r}; available: {UNION_RULES}")
        if compaction not in COMPACTION_RULES:
            raise GraphError(
                f"unknown compaction rule {compaction!r}; available: {COMPACTION_RULES}"
            )
        if n < 0:
            raise GraphError(f"universe size must be >= 0, got {n}")
        self.n = int(n)
        self.union_rule = union_rule
        self.compaction = compaction
        self._parent = array("q", [0]) * self.n
        parent = self.parent
        # The identity, a cache-sized piece at a time: one whole-array arange
        # is a second n-word block, and freeing it makes the allocator trim
        # and re-fault the heap on every construction (apply_batch builds
        # one structure per batch).
        for lo in range(0, self.n, _FILL_WORDS):
            hi = min(lo + _FILL_WORDS, self.n)
            parent[lo:hi] = np.arange(lo, hi, dtype=np.int64)
        self._rank = array("b", [0]) * self.n if union_rule == "rank" else None
        self._size = array("q", [1]) * self.n if union_rule == "size" else None
        self.counters = WorkCounters()
        #: Arcs :meth:`union_arcs` counted as settled without running them,
        #: and the masks it rebuilt after a watched root was hooked.
        self.settled = 0
        self.restarts = 0

    @property
    def parent(self) -> np.ndarray:
        """The parent buffer as a writable int64 view."""
        return np.frombuffer(self._parent, dtype=np.int64)

    @property
    def rank(self) -> np.ndarray | None:
        """The rank buffer as a writable int8 view (None unless union by rank)."""
        return None if self._rank is None else np.frombuffer(self._rank, dtype=np.int8)

    @property
    def size(self) -> np.ndarray | None:
        """The size buffer as a writable int64 view (None unless union by size)."""
        return None if self._size is None else np.frombuffer(self._size, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #

    def find(self, x: int) -> int:
        """Root of ``x``'s tree, applying the configured compaction rule."""
        parent = self._parent
        c = self.counters
        c.finds += 1
        comp = self.compaction
        x = int(x)
        if comp == "none":
            while True:
                p = parent[x]
                if p == x:
                    return x
                c.pointer_chases += 1
                x = p
        if comp == "halving":
            while True:
                p = parent[x]
                if p == x:
                    return x
                g = parent[p]
                c.pointer_chases += 2
                parent[x] = g
                c.compaction_writes += 1
                x = g
            # unreachable
        if comp == "splitting":
            while True:
                p = parent[x]
                if p == x:
                    return x
                g = parent[p]
                c.pointer_chases += 2
                parent[x] = g
                c.compaction_writes += 1
                x = p
        # full: walk to the root, then re-point the whole path at it.
        root = x
        while True:
            p = parent[root]
            if p == root:
                break
            c.pointer_chases += 1
            root = p
        while x != root:
            p = parent[x]
            parent[x] = root
            c.pointer_chases += 1
            c.compaction_writes += 1
            x = p
        return root

    def union(self, u: int, v: int) -> bool:
        """Merge the trees of ``u`` and ``v``; True if they were distinct."""
        self.counters.unions += 1
        if self.union_rule == "rem":
            return self._union_rem(int(u), int(v))
        ru = self.find(u)
        rv = self.find(v)
        if ru == rv:
            return False
        c = self.counters
        if self._rank is not None:
            rank = self._rank
            if rank[ru] < rank[rv]:
                ru, rv = rv, ru
            elif rank[ru] == rank[rv]:
                rank[ru] += 1
            self._parent[rv] = ru
        else:
            size = self._size
            assert size is not None
            if size[ru] < size[rv] or (size[ru] == size[rv] and rv < ru):
                ru, rv = rv, ru
            size[ru] += size[rv]
            self._parent[rv] = ru
        c.hooks += 1
        return True

    def _union_rem(self, u: int, v: int) -> bool:
        """Rem's algorithm: the union walk splices as it goes (no finds)."""
        parent = self._parent
        c = self.counters
        while True:
            pu = parent[u]
            pv = parent[v]
            c.pointer_chases += 2
            if pu == pv:
                return False
            if pu > pv:
                if u == pu:  # u is a root: hook it below the lower parent
                    parent[u] = pv
                    c.hooks += 1
                    return True
                parent[u] = pv  # splice: re-point u, continue from its old parent
                c.compaction_writes += 1
                u = pu
            else:
                if v == pv:
                    parent[v] = pu
                    c.hooks += 1
                    return True
                parent[v] = pu
                c.compaction_writes += 1
                v = pv

    def union_arcs(
        self, src: np.ndarray, dst: np.ndarray, pre_resolved: bool = False
    ) -> np.ndarray:
        """Union every ``(src[i], dst[i])`` pair in order; returns the linked mask.

        ``linked[i]`` is True exactly when pair ``i`` merged two distinct
        trees (what :meth:`union` returns per call).  The one bulk entry
        point, for sampling, finish, the finish workers and
        :meth:`repro.core.connectivity.ConnectivityIndex.apply_batch`.
        With ``pre_resolved`` True, equal endpoints count one union attempt
        and nothing else (``apply_batch``'s findroot pass resolved them).

        The one body, :func:`repro.kernels.loops.union_arcs`, runs
        interpreted over the buffers themselves (endpoints as lists, a
        ``bytearray`` mask, a list of counters — containers whose
        items are plain ints, so a pointer chase boxes nothing).  Same rules,
        bit-identical :class:`WorkCounters`; :meth:`union` is the per-pair
        reference and its ticks are the counter convention: the body keeps
        them in locals, and for an arc already settled under one root (both
        endpoints the root or its children) it skips the finds — they would
        store only values already there — and adds their ticks in closed
        form.

        Under the rank and size rules the settled arcs are also taken out
        before the loop, ``_BLOCK`` arcs at a time: three gathers
        (``parent[src]``, ``parent[dst]``, ``parent`` of the first) mark
        them, their ticks are added in closed form, and only the rest are
        turned into lists for the body.  A settled arc writes nothing under
        any compaction rule and stays settled until its root is hooked; the
        body is handed those roots as ``watch`` and stops right after it
        hooks one, and the block is masked again from the next arc.  So
        parents, ranks, sizes, the mask and the counters are those of the
        loop over every arc.  A block whose mask would take out no more
        than half its arcs runs whole and unwatched instead: there the
        body's own settled check costs less than converting the rest again
        after every watched hook.  Rem's splices re-point children of
        roots, so that rule runs the body over every arc.  :attr:`settled`
        and :attr:`restarts` count the arcs taken out and the re-masks; the
        unsampled finish at scale 16 takes out 979 050 of 1 045 098 arcs
        (the settled-arc mask entry of ``CHANGES.md``).

        Endpoints are validated once per call: an id outside ``[0, n)``
        raises :class:`~repro.errors.VertexError`, unequal lengths
        :class:`~repro.errors.GraphError`.
        """
        src = check_vertex_ids(src, self.n, "src")
        dst = check_vertex_ids(dst, self.n, "dst")
        check_same_length([("src", src), ("dst", dst)])
        linked = bytearray(src.size)
        c = [0] * 5  # slots in WorkCounters field order
        rule = kernels.RULE_CODES[self.union_rule]
        comp = kernels.COMP_CODES[self.compaction]
        if self.union_rule == "rem":  # its splices move children of roots: no mask
            loops.union_arcs(
                self._parent, None, None, src.tolist(), dst.tolist(),
                rule, comp, linked, pre_resolved, None, c,
            )
        else:
            self._union_blocks(src, dst, rule, comp, linked, pre_resolved, c)
        self.counters.add(WorkCounters(*c))
        return np.frombuffer(linked, dtype=np.bool_)

    def _union_blocks(
        self, src: np.ndarray, dst: np.ndarray, rule: int, comp: int,
        linked: bytearray, pre_resolved: bool, c: list,
    ) -> None:
        """:meth:`union_arcs` under rank or size: settled arcs masked out a
        block at a time where they are most of it, the rest through the
        body (ticks into ``c``)."""
        parent = self.parent
        mask = np.frombuffer(linked, dtype=np.bool_)
        watch = bytearray(self.n)
        watched = np.frombuffer(watch, dtype=np.bool_)
        lo, m = 0, src.size
        while lo < m:
            s, d = src[lo:lo + _BLOCK], dst[lo:lo + _BLOCK]
            pu, pv = parent[s], parent[d]
            settled = pu == pv  # every settled or equal pair has this
            if settled.any():
                settled &= parent[pu] == pu
            # The mask pays only when it takes out most of the block: else the
            # body's own settled check is cheaper than converting the rest
            # again after each watched hook, so the block runs whole, unwatched.
            if 2 * int(np.count_nonzero(settled)) <= s.size:
                part = bytearray(s.size)
                loops.union_arcs(
                    self._parent, self._rank, self._size, s.tolist(), d.tolist(),
                    rule, comp, part, pre_resolved, None, c,
                )
                linked[lo:lo + s.size] = part
                lo += s.size
                continue
            skip = settled
            if pre_resolved:  # equal endpoints: an attempt, nothing else
                same = s == d
                settled = settled & ~same
                skip = settled | same
            run = np.flatnonzero(~skip)
            roots = pu[settled]
            watched[roots] = True
            part = bytearray(run.size)
            stop = loops.union_arcs(
                self._parent, self._rank, self._size, s[run].tolist(), d[run].tolist(),
                rule, comp, part, pre_resolved, watch if roots.size else None, c,
            )
            watched[roots] = False
            mask[lo + run] = np.frombuffer(part, dtype=np.bool_)
            cut, ran = s.size, run.size
            if stop >= 0:  # a watched root went under: re-mask after that arc
                cut, ran = int(run[stop]) + 1, stop + 1
                self.restarts += 1
                settled = settled[:cut]
            k = int(np.count_nonzero(settled))
            deep = int(np.count_nonzero(settled & (s[:cut] != pu[:cut])))
            deep += int(np.count_nonzero(settled & (d[:cut] != pv[:cut])))
            c[0] += 2 * k
            c[1] += cut - ran  # the arcs taken out: one attempt each
            if comp == 0:  # per non-root endpoint: one chase
                c[3] += deep
            else:  # two chases and a write of the value already there
                c[3] += 2 * deep
                c[4] += deep
            self.settled += k
            lo += cut

    def bulk_hook(self, vertices: np.ndarray, root: int) -> int:
        """Hook singleton ``vertices`` directly under ``root`` (one write each).

        The BFS sampling phase's bulk operation: the traversal already
        proved the vertices belong to ``root``'s component, so each needs
        exactly one parent write, not a full union.  Only valid when every
        vertex in ``vertices`` is the root of a singleton tree (the
        sampling strategies run on a fresh structure, which guarantees it).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = int(vertices.size)
        if k == 0:
            return 0
        self.parent[vertices] = int(root)
        if self.size is not None:
            self.size[int(root)] += k
        if self.rank is not None and self.rank[int(root)] == 0:
            self.rank[int(root)] = 1
        self.counters.unions += k
        self.counters.hooks += k
        return k

    # ------------------------------------------------------------------ #
    # label extraction (vectorised, counter-free)
    # ------------------------------------------------------------------ #

    def flat_roots(self) -> np.ndarray:
        """Every element's root, by vectorised pointer jumping (no counters)."""
        roots = self.parent.copy()
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                return roots
            roots = jumped

    def components(self) -> np.ndarray:
        """Canonical component labels: each element tagged with the minimum id.

        Matches the labelling convention of
        :func:`repro.core.components.connected_components`, so results are
        directly comparable (and bit-identical for identical partitions).
        """
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        roots = self.flat_roots()
        mins = np.full(self.n, self.n, dtype=np.int64)
        np.minimum.at(mins, roots, np.arange(self.n, dtype=np.int64))
        return mins[roots]

    def n_components(self) -> int:
        """Number of distinct trees."""
        return int(np.count_nonzero(self.parent == np.arange(self.n, dtype=np.int64)))

    def memory_bytes(self) -> int:
        """Bytes held by the parent and auxiliary arrays."""
        total = self.parent.nbytes
        if self.rank is not None:
            total += self.rank.nbytes
        if self.size is not None:
            total += self.size.nbytes
        return int(total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UnionFind(n={self.n}, union_rule={self.union_rule!r}, "
            f"compaction={self.compaction!r})"
        )
