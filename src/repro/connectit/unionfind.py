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

from dataclasses import dataclass, fields

import numpy as np

from repro import kernels
from repro.errors import GraphError

__all__ = ["UNION_RULES", "COMPACTION_RULES", "WorkCounters", "UnionFind"]

#: Supported union rules (how two roots are hooked together).
UNION_RULES = ("rank", "size", "rem")

#: Supported path-compaction rules (what :meth:`UnionFind.find` does to the
#: path it walks).  ``rem`` performs its own splicing during the union walk,
#: so under Rem's algorithm the compaction rule only affects explicit finds.
COMPACTION_RULES = ("full", "splitting", "halving", "none")


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

    The structure is deliberately scalar (Python loops over a numpy parent
    array): union-find is a dependent pointer-chasing workload, which is
    exactly what the counters must measure.  The label *extraction*
    (:meth:`components`, :meth:`flat_roots`) is vectorised and counter-free —
    it is a read-only epilogue, not part of the algorithm's work.
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
        self.parent = np.arange(self.n, dtype=np.int64)
        self.rank = np.zeros(self.n, dtype=np.int8) if union_rule == "rank" else None
        self.size = np.ones(self.n, dtype=np.int64) if union_rule == "size" else None
        self.counters = WorkCounters()
        #: Kernel-tier request for :meth:`union_arcs` (:mod:`repro.kernels`).
        self.kernel_tier: str | None = None

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #

    def find(self, x: int) -> int:
        """Root of ``x``'s tree, applying the configured compaction rule."""
        parent = self.parent
        c = self.counters
        c.finds += 1
        comp = self.compaction
        x = int(x)
        if comp == "none":
            while True:
                p = int(parent[x])
                if p == x:
                    return x
                c.pointer_chases += 1
                x = p
        if comp == "halving":
            while True:
                p = int(parent[x])
                if p == x:
                    return x
                g = int(parent[p])
                c.pointer_chases += 2
                parent[x] = g
                c.compaction_writes += 1
                x = g
            # unreachable
        if comp == "splitting":
            while True:
                p = int(parent[x])
                if p == x:
                    return x
                g = int(parent[p])
                c.pointer_chases += 2
                parent[x] = g
                c.compaction_writes += 1
                x = p
        # full: walk to the root, then re-point the whole path at it.
        root = x
        while True:
            p = int(parent[root])
            if p == root:
                break
            c.pointer_chases += 1
            root = p
        while x != root:
            p = int(parent[x])
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
        if self.rank is not None:
            rank = self.rank
            if rank[ru] < rank[rv]:
                ru, rv = rv, ru
            elif rank[ru] == rank[rv]:
                rank[ru] += 1
            self.parent[rv] = ru
        else:
            size = self.size
            assert size is not None
            if size[ru] < size[rv] or (size[ru] == size[rv] and rv < ru):
                ru, rv = rv, ru
            size[ru] += size[rv]
            self.parent[rv] = ru
        c.hooks += 1
        return True

    def _union_rem(self, u: int, v: int) -> bool:
        """Rem's algorithm: the union walk splices as it goes (no finds)."""
        parent = self.parent
        c = self.counters
        while True:
            pu = int(parent[u])
            pv = int(parent[v])
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
        :meth:`repro.core.connectivity.ConnectivityIndex.insert_batch`.
        With ``pre_resolved`` True, equal endpoints count one union attempt
        and nothing else (``insert_batch``'s findroot pass resolved them).
        Tier ``compiled`` runs the fused
        :func:`repro.kernels.loops.union_arcs`; every other tier loops
        :meth:`union` — same rules, bit-identical :class:`WorkCounters`.
        """
        if kernels.resolve_tier(self) != "compiled":
            pairs = zip(src.tolist(), dst.tolist())
            union = self.union
            if pre_resolved:
                self.counters.unions += int(np.count_nonzero(src == dst))
                linked = [u != v and union(u, v) for u, v in pairs]
            else:
                linked = [union(u, v) for u, v in pairs]
            return np.array(linked, dtype=np.bool_)
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        linked = np.zeros(src.size, dtype=np.bool_)
        rank = self.rank if self.rank is not None else np.zeros(0, dtype=np.int8)
        size = self.size if self.size is not None else np.zeros(0, dtype=np.int64)
        c = np.zeros(5, dtype=np.int64)  # slots in WorkCounters field order
        kernels.get("union_arcs")(
            self.parent,
            rank,
            size,
            src,
            dst,
            kernels.RULE_CODES[self.union_rule],
            kernels.COMP_CODES[self.compaction],
            linked,
            pre_resolved,
            c,
        )
        self.counters.add(WorkCounters(*map(int, c)))
        return linked

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
        return int(np.unique(self.flat_roots()).size)

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
