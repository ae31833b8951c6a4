"""Abstract interface and shared accounting for adjacency representations.

Every representation in this subpackage stores *directed arcs*: an
undirected edge (u, v) is ingested as the two arcs u→v and v→u by the update
engine (:mod:`repro.core.update_engine`).  The interface is deliberately
small — the paper's update workloads only need insert / delete / iterate —
and every hot-path operation additionally maintains cheap integer counters
(:class:`UpdateStats`) from which :meth:`AdjacencyRepresentation.phase`
derives the machine-independent work profile the simulator consumes.

Per-operation cost constants
----------------------------
The counters measure *data-dependent* work exactly (probe lengths, treap
depths, rotations, resize copies).  Constant per-operation overheads
(pointer arithmetic, bounds checks, branch logic) are modelled by the
``ALU_*`` / ``RAND_*`` constants below — one audited table, shared by all
representations, mirroring what the paper's C implementations execute per
update.  They were fixed once against the paper's headline MUPS rates (see
``tests/machine/test_calibration.py``) and are never tuned per experiment.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields

import numpy as np

from repro.adjacency.csr import CSRGraph, csr_from_arrays
from repro.errors import VertexError
from repro.machine.profile import Phase
from repro.util.validation import check_op_codes, check_same_length, check_vertex_ids

__all__ = ["UpdateStats", "HotStats", "AdjacencyRepresentation"]

# --------------------------------------------------------------------- #
# per-operation cost constants (see module docstring)
# --------------------------------------------------------------------- #

#: ALU ops for an array append: offset load, capacity check, store, counts.
ALU_PER_INSERT = 14.0
#: ALU ops for delete bookkeeping besides the scan itself.
ALU_PER_DELETE = 12.0
#: ALU ops per word examined during a linear probe (load, compare, branch).
ALU_PER_PROBE_WORD = 2.0
#: ALU ops per treap node visited (key compare, priority compare, child load).
ALU_PER_NODE = 10.0
#: ALU ops per rotation / split-merge step.
ALU_PER_ROTATION = 8.0
#: Dependent random accesses per array operation: header line read, tail
#: data-slot touch, counter/flag update and the TLB/page walk traffic the
#: paper's large-page tuning (-xpagesize=4M) only partially removes.
RAND_PER_ARRAY_OP = 4.0
#: Dependent random accesses per treap node visited.  Less than one because
#: the pool allocator clusters a vertex's nodes: a descent's first hop
#: misses, but most subsequent hops stay within the vertex's already-cached
#: allocation region.  Calibrated against the paper's Figure 4 ratio
#: (Dyn-arr 1.4x Hybrid for insertions).
RAND_PER_NODE = 0.25
#: Cycles of work performed under a treap's per-vertex lock, per node
#: visited — the paper's "granularity of work inside a lock is significantly
#: higher" for treaps (section 2.1.4).  Includes the (mostly cached, see
#: RAND_PER_NODE) node accesses made while the lock is held.
LOCK_HOLD_PER_NODE = 40.0


@dataclass
class UpdateStats:
    """Raw work counters accumulated by a representation's hot paths."""

    inserts: int = 0
    deletes: int = 0
    delete_misses: int = 0
    searches: int = 0
    #: Words examined by linear probes (array deletions/searches).
    probe_words: int = 0
    resize_events: int = 0
    #: Words copied by adjacency-array resizes (reads + writes counted once).
    resize_copied_words: int = 0
    #: Treap nodes touched across all operations.
    nodes_visited: int = 0
    #: Treap rotations / split-merge steps.
    rotations: int = 0
    #: Hybrid array→treap migrations.
    migrations: int = 0
    #: Words moved by hybrid migrations.
    migration_words: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def merged(self, other: "UpdateStats") -> "UpdateStats":
        out = UpdateStats()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out

    @property
    def total_ops(self) -> int:
        return self.inserts + self.deletes + self.searches


@dataclass(frozen=True)
class HotStats:
    """Stream-level contention statistics (from :mod:`repro.machine.contention`).

    ``max_addr_ops`` — operations hitting the hottest single vertex;
    ``max_unit_frac`` — that vertex's fraction of all operations (the load-
    imbalance cap when work is partitioned by vertex).
    """

    total_ops: int = 0
    max_addr_ops: int = 0
    max_unit_frac: float = 0.0

    @staticmethod
    def from_keys(keys: np.ndarray, n: int) -> "HotStats":
        """Statistics of a stream of vertex ids already validated against ``n``.

        One counting pass over ids in ``[0, n)``; equal to
        :func:`repro.machine.contention.hot_spot_stats`, which sorts because
        it takes arbitrary keys.
        """
        if not keys.size:
            return HotStats()
        mx = int(np.bincount(keys, minlength=n).max())
        return HotStats(int(keys.size), mx, mx / keys.size)


class AdjacencyRepresentation(abc.ABC):
    """Common behaviour for all dynamic adjacency structures.

    Subclasses implement the arc-level mutators and queries; this base class
    provides input validation, bulk ingest, the reference snapshot export
    and work-profile construction.
    """

    #: Short registry name, set by subclasses ("dynarr", "treap", ...).
    kind: str = "abstract"

    #: Arc operations the :mod:`repro.adjacency.bulkops` kernels applied
    #: (which path ran; not a work counter).
    vectorised_arc_ops: int = 0

    def __init__(self, n: int) -> None:
        if n < 0:
            raise VertexError(f"vertex count must be >= 0, got {n}")
        self.n = int(n)
        self.stats = UpdateStats()
        self._arcs_live = 0
        self._mutations = 0

    # ------------------------------------------------------------------ #
    # abstract hot-path operations
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def insert(self, u: int, v: int, ts: int = 0) -> None:
        """Append arc u→v with time label ``ts``.  Duplicates allowed."""

    @abc.abstractmethod
    def delete(self, u: int, v: int) -> bool:
        """Remove one arc u→v; returns False when no such arc exists."""

    @abc.abstractmethod
    def degree(self, u: int) -> int:
        """Number of live arcs out of ``u``."""

    @abc.abstractmethod
    def neighbors(self, u: int) -> np.ndarray:
        """Targets of live arcs out of ``u`` (int64; order unspecified)."""

    @abc.abstractmethod
    def neighbors_with_ts(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(targets, time labels) of live arcs out of ``u``."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Bytes held by the structure (its footprint for the cache model)."""

    # ------------------------------------------------------------------ #
    # derived operations (overridable for speed)
    # ------------------------------------------------------------------ #

    def has_arc(self, u: int, v: int) -> bool:
        """Membership test (counts as a search in the statistics)."""
        self.stats.searches += 1
        return bool(np.any(self.neighbors(u) == v))

    @property
    def n_arcs(self) -> int:
        """Live arcs currently stored."""
        return self._n_arcs

    @property
    def _n_arcs(self) -> int:
        return self._arcs_live

    @_n_arcs.setter
    def _n_arcs(self, value: int) -> None:
        # Every hot-path mutator funnels through this assignment, so the
        # monotonic mutation counter needs no per-structure wiring.  A
        # same-value store (balanced insert+delete batch) still bumps it —
        # the structure *did* change, which is exactly what snapshot caches
        # must observe (the arc count alone cannot).
        self._arcs_live = int(value)
        self._mutations += 1

    @property
    def mutation_count(self) -> int:
        """Monotonic counter bumped by every structural mutation.

        Cache key for snapshot consumers (:meth:`repro.api.DynamicGraph
        .snapshot`): unlike the live arc count it cannot alias across a
        balanced insert+delete mix.  Spurious bumps (a mutator storing an
        unchanged arc count) are allowed — they cost a rebuild, never a
        stale read.
        """
        return self._mutations

    def bulk_insert_scalar(self, src, dst, ts=None) -> None:
        """Reference bulk ingest: a strict loop over :meth:`insert`.

        Kept callable on every representation so the equivalence suite (and
        any caller wanting the exact sequential semantics) can bypass
        vectorised overrides.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        t = np.zeros(src.size, dtype=np.int64) if ts is None else np.asarray(ts, dtype=np.int64)
        check_same_length((("src", src), ("dst", dst), ("ts", t)))
        ins = self.insert
        for u, v, lbl in zip(src.tolist(), dst.tolist(), t.tolist()):
            ins(u, v, lbl)

    def bulk_insert(self, src, dst, ts=None) -> None:
        """Insert many arcs; the default delegates to the scalar loop.

        Subclasses may vectorise, but must keep counter semantics identical
        to the sequential path (tests enforce this).
        """
        self.bulk_insert_scalar(src, dst, ts)

    def apply_arcs_scalar(self, op, src, dst, ts=None) -> int:
        """Reference stream application: strict arrival order, one op at a
        time.  Returns the number of failed deletes."""
        op = check_op_codes(op)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        t = np.zeros(src.size, dtype=np.int64) if ts is None else np.asarray(ts, dtype=np.int64)
        check_same_length((("op", op), ("src", src), ("dst", dst), ("ts", t)))
        misses = 0
        ins = self.insert
        dele = self.delete
        for o, u, v, lbl in zip(op.tolist(), src.tolist(), dst.tolist(), t.tolist()):
            if o == 1:
                ins(u, v, lbl)
            elif not dele(u, v):
                misses += 1
        return misses

    def apply_arcs(self, op, src, dst, ts=None) -> int:
        """Apply a mixed arc stream; returns the number of failed deletes.

        ``op`` holds +1 (insert) / -1 (delete) codes.  All-insert streams
        (construction workloads) route through :meth:`bulk_insert`; mixed
        streams process strictly in arrival order unless a subclass provides
        an equivalence-preserving vectorised override.
        """
        op = check_op_codes(op)
        if op.size and bool(np.all(op == 1)):
            check_same_length((("op", op), ("src", src)))
            self.bulk_insert(src, dst, ts)
            return 0
        return self.apply_arcs_scalar(op, src, dst, ts)

    def to_arrays_scalar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reference live-arc export: per-vertex :meth:`neighbors_with_ts`."""
        srcs, dsts, tss = [], [], []
        for u in range(self.n):
            nbr, lbl = self.neighbors_with_ts(u)
            if nbr.size:
                srcs.append(np.full(nbr.size, u, dtype=np.int64))
                dsts.append(nbr)
                tss.append(lbl)
        if not srcs:
            e = np.empty(0, dtype=np.int64)
            return e, e.copy(), e.copy()
        return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(tss)

    def to_csr(self) -> CSRGraph:
        """CSR snapshot of the live arcs (``meta["source"]``: the kind), each
        vertex's in storage order.  This reference walk is the base class's;
        structures override it to take offsets from the live degrees they
        keep and write each arc straight into place.
        """
        src, dst, ts = self.to_arrays_scalar()
        return csr_from_arrays(self.n, src, dst, ts, meta={"source": self.kind})

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live arcs of :meth:`to_csr` as ``(src, dst, ts)`` arrays
        (ascending source, per-vertex storage order)."""
        g = self.to_csr()
        return np.repeat(np.arange(self.n, dtype=np.int64), g.degrees()), g.targets, g.ts

    def degrees(self) -> np.ndarray:
        """All live out-degrees (int64 array of length n)."""
        return np.fromiter(
            (self.degree(u) for u in range(self.n)), dtype=np.int64, count=self.n
        )

    def _checked_batch(self, src, dst, ts, op=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Range-checked int64 ``(src, dst, ts)`` of one length (``op``'s too).

        The once-per-call validation of the bulk paths: nothing has been
        applied when it raises.
        """
        src = check_vertex_ids(src, self.n, "src")
        dst = check_vertex_ids(dst, self.n, "dst")
        t = np.zeros(src.size, dtype=np.int64) if ts is None else np.asarray(ts, dtype=np.int64)
        named = [("src", src), ("dst", dst), ("ts", t)]
        check_same_length(named if op is None else [("op", op), *named])
        return src, dst, t

    def check_vertex(self, u: int) -> None:
        """Raise :class:`~repro.errors.VertexError` for an out-of-range id."""
        if not 0 <= u < self.n:
            raise VertexError(f"vertex id {u} out of range [0, {self.n})")

    def reset_stats(self) -> None:
        """Zero the work counters (e.g. after construction, before deletes)."""
        self.stats.reset()

    # ------------------------------------------------------------------ #
    # work-profile construction
    # ------------------------------------------------------------------ #

    def phase(self, name: str, hot: HotStats | None = None) -> Phase:
        """Convert the accumulated counters into a machine-independent phase.

        ``hot`` carries the update stream's contention statistics; when
        omitted the phase assumes a perfectly spread stream (no hot vertex).
        Subclasses with different synchronisation (treap locks) override
        :meth:`_sync_kwargs`.
        """
        s = self.stats
        hot = hot or HotStats()
        alu = (
            ALU_PER_INSERT * s.inserts
            + ALU_PER_DELETE * (s.deletes + s.delete_misses)
            + ALU_PER_PROBE_WORD * s.probe_words
            + ALU_PER_NODE * s.nodes_visited
            + ALU_PER_ROTATION * s.rotations
        )
        array_ops = s.inserts + s.deletes + s.delete_misses + s.searches
        rand = RAND_PER_ARRAY_OP * array_ops + RAND_PER_NODE * s.nodes_visited
        # Probe scans stream through contiguous adjacency blocks; resize and
        # migration copies stream a block out and back in.
        seq = 8.0 * (s.probe_words + 2.0 * s.resize_copied_words + 2.0 * s.migration_words)
        kwargs = dict(
            alu_ops=alu,
            rand_accesses=rand,
            seq_bytes=seq,
            footprint_bytes=float(self.memory_bytes()),
            max_unit_frac=hot.max_unit_frac,
        )
        kwargs.update(self._sync_kwargs(hot))
        return Phase(name=name, **kwargs)

    def _sync_kwargs(self, hot: HotStats) -> dict:
        """Synchronisation cost fields; default = lock-free atomic counters.

        The paper's Dyn-arr insertions are "lock-free, non-blocking" via an
        atomic increment per update; the hottest vertex's counter serialises.
        """
        s = self.stats
        ops = s.inserts + s.deletes + s.delete_misses
        max_addr = min(float(hot.max_addr_ops), float(ops))
        return dict(atomics=float(ops), atomic_max_addr=max_addr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, arcs={self.n_arcs})"
