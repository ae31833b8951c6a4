"""Connectivity-query processing over a link-cut forest (paper section 3.1).

*"Each connectivity query involves two findroot operations, each of which
would take O(d) time (where d is the diameter of the network). The queries
can be processed in parallel, as they only involve memory reads."*

:class:`ConnectivityIndex` bundles a graph snapshot, its spanning
:class:`~repro.core.linkcut.LinkCutForest`, and batched query execution that
measures the actual pointer-hop counts into a work profile — the basis for
Figure 8 (1M queries) and the paper's 7.3M-queries/second headline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.adjacency.csr import CSRGraph
from repro.core.linkcut import ConstructionRecord, LinkCutForest
from repro.errors import GraphError
from repro.machine.profile import Phase, WorkProfile
from repro.obs import METRICS, manifest_meta, span
from repro.util.seeding import make_rng

__all__ = ["ConnectivityIndex", "QueryResult", "BatchInsertResult"]

#: ALU ops per pointer hop (load, NIL test, loop branch).
_ALU_PER_HOP = 4.0
#: ALU ops per query besides the chases (operand fetch, result store).
_ALU_PER_QUERY = 8.0


@dataclass(frozen=True)
class QueryResult:
    """Results and measured work of one query batch."""

    connected: np.ndarray
    n_queries: int
    total_hops: int
    profile: WorkProfile
    meta: dict = field(default_factory=dict)

    @property
    def hops_per_query(self) -> float:
        return self.total_hops / self.n_queries if self.n_queries else 0.0


@dataclass(frozen=True)
class BatchInsertResult:
    """Outcome and measured work of one batched edge insertion.

    ``linked[i]`` is True when edge i became a spanning-tree link (it
    connected two previously separate components); the rest were redundant
    for connectivity and were never pushed into the forest.
    """

    linked: np.ndarray
    n_links: int
    n_skipped: int
    total_hops: int
    profile: WorkProfile
    meta: dict = field(default_factory=dict)


class ConnectivityIndex:
    """Spanning-forest connectivity oracle with batched queries.

    Build with :meth:`from_csr`; query with :meth:`query_batch` (pairs) or
    :meth:`query` (single pair).  :meth:`insert_edge` / :meth:`delete_edge`
    maintain the forest under updates (the delete path searches for a
    replacement edge in the supplied adjacency source — see
    :meth:`LinkCutForest.cut_with_replacement`).
    """

    def __init__(self, forest: LinkCutForest, record: ConstructionRecord | None = None) -> None:
        self.forest = forest
        self.record = record

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "ConnectivityIndex":
        with span("connectivity.from_csr", n=graph.n, arcs=graph.n_arcs) as sp:
            forest, record = LinkCutForest.from_csr(graph)
            sp.set(trees=forest.n_trees())
        METRICS.inc("connectivity.forests_built")
        return cls(forest, record)

    @property
    def construction_profile(self) -> WorkProfile:
        if self.record is None:
            raise GraphError("index was not built from a graph; no construction record")
        return self.record.profile

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def query(self, u: int, v: int) -> bool:
        """Single s–t connectivity query (two findroots)."""
        return self.forest.connected(u, v)

    def query_batch(
        self,
        us,
        vs,
        *,
        name: str = "connectivity-queries",
        backend: str | object = "serial",
        workers: int | None = None,
    ) -> QueryResult:
        """Answer many queries and profile the measured pointer work.

        The phase is read-only (no synchronisation), perfectly divisible
        (queries are independent), and entirely dependent random accesses —
        the linked-list-traversal behaviour the paper calls out as having
        poor serial performance but excellent parallel scaling.
        ``backend="process"`` chases the pointers from a worker pool over
        the shared parent array (docs/PARALLEL.md); answers and hop counts
        are identical to the serial batch.
        """
        from repro.parallel.backend import resolve_backend

        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise GraphError("query endpoint arrays must be 1-D and equal length")
        be, owned = resolve_backend(backend, workers=workers)
        try:
            with span(
                "connectivity.query_batch", n_queries=int(us.size), backend=be.name
            ) as sp:
                answers, hops = be.query_batch(self.forest, us, vs)
                sp.set(hops=int(hops))
        finally:
            if owned:
                be.close()
        METRICS.inc("connectivity.queries", int(us.size))
        METRICS.inc("connectivity.hops", int(hops))
        footprint = float(self.forest.memory_bytes())
        phase = Phase(
            name="findroot",
            alu_ops=_ALU_PER_HOP * hops + _ALU_PER_QUERY * us.size,
            rand_accesses=float(hops + 2 * us.size),
            footprint_bytes=footprint,
        )
        profile = WorkProfile(
            name,
            (phase,),
            meta={
                "n_queries": int(us.size),
                "hops": int(hops),
                "n": self.forest.n,
                "backend": be.name,
                "workers": int(getattr(be, "workers", 1)),
                "kernel_tier": kernels.resolve_tier(self.forest),
                **manifest_meta(),
            },
        )
        return QueryResult(
            connected=answers,
            n_queries=int(us.size),
            total_hops=int(hops),
            profile=profile,
        )

    def random_query_batch(
        self,
        k: int,
        seed: int | np.random.Generator | None = None,
        *,
        name: str = "connectivity-queries",
        backend: str | object = "serial",
        workers: int | None = None,
    ) -> QueryResult:
        """``k`` uniform random vertex-pair queries (Figure 8's workload)."""
        if k < 0:
            raise GraphError(f"query count must be >= 0, got {k}")
        rng = make_rng(seed)
        us = rng.integers(0, self.forest.n, size=k, dtype=np.int64)
        vs = rng.integers(0, self.forest.n, size=k, dtype=np.int64)
        return self.query_batch(us, vs, name=name, backend=backend, workers=workers)

    # ------------------------------------------------------------------ #
    # maintenance under updates
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int) -> bool:
        """Inform the index of a new graph edge; True if the forest changed."""
        return self.forest.add_edge(u, v)

    def insert_batch(
        self,
        us,
        vs,
        *,
        union_rule: str = "rank",
        compaction: str = "halving",
        name: str = "connectivity-insert-batch",
    ) -> BatchInsertResult:
        """Apply many edge insertions with a union-find fast path.

        Looping :meth:`insert_edge` pays two findroots per edge even when
        the edge is redundant for connectivity.  This path resolves all
        endpoints once with :meth:`~repro.core.linkcut.LinkCutForest
        .findroot_batch`, then replays the batch through a
        :class:`repro.connectit.unionfind.UnionFind` over those roots —
        a union succeeds exactly when the edge joins two components that
        are still separate *at its position in the batch*, which is
        precisely when sequential :meth:`insert_edge` would have linked
        the forest.  Only those edges touch the forest; the resulting
        spanning forest and connectivity are identical to the sequential
        loop, at a fraction of the pointer chases on dense batches.

        ``union_rule`` / ``compaction`` pick the union-find variant
        (:mod:`repro.connectit`); the measured forest hops and union-find
        counters land in the returned profile.
        """
        from repro.connectit.unionfind import UnionFind

        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise GraphError("insert endpoint arrays must be 1-D and equal length")
        forest = self.forest
        hops_before = forest.hops
        with span(
            "connectivity.insert_batch", n_edges=int(us.size), variant=f"{union_rule}/{compaction}"
        ) as sp:
            roots_u = forest.findroot_batch(us)
            roots_v = forest.findroot_batch(vs)
            uf = UnionFind(forest.n, union_rule=union_rule, compaction=compaction)
            # The replay is independent of the forest: resolve the whole
            # batch, then link the winning edges in batch order.
            linked = uf.union_arcs(roots_u, roots_v, pre_resolved=True)
            for i in np.flatnonzero(linked).tolist():
                forest.add_edge(int(us[i]), int(vs[i]))
            sp.set(links=int(linked.sum()), trees=forest.n_trees())
        hops = int(forest.hops - hops_before)
        n_links = int(linked.sum())
        METRICS.inc("connectivity.batch_inserts", int(us.size))
        METRICS.inc("connectivity.batch_links", n_links)
        c = uf.counters
        phase = Phase(
            name="insert-batch",
            alu_ops=_ALU_PER_HOP * hops + _ALU_PER_QUERY * us.size + 2.0 * c.pointer_chases,
            rand_accesses=float(hops + c.pointer_chases + c.atomics),
            atomics=float(n_links),
            footprint_bytes=float(self.forest.memory_bytes() + uf.memory_bytes()),
        )
        profile = WorkProfile(
            name,
            (phase,),
            meta={
                "n_edges": int(us.size),
                "n_links": n_links,
                "hops": hops,
                "union_rule": union_rule,
                "compaction": compaction,
                "counters": c.to_dict(),
                "kernel_tier": kernels.resolve_tier(forest),
                **manifest_meta(),
            },
        )
        return BatchInsertResult(
            linked=linked,
            n_links=n_links,
            n_skipped=int(us.size) - n_links,
            total_hops=hops,
            profile=profile,
        )

    def delete_edge(self, u: int, v: int, rep) -> bool:
        """Inform the index a graph edge was removed.

        ``rep`` supplies the surviving graph adjacency (``neighbors``),
        consulted for a replacement when a tree edge is cut.  Returns True
        when the deleted edge was a tree edge.
        """
        f = self.forest
        if f.parent_of(u) == v:
            child = u
        elif f.parent_of(v) == u:
            child = v
        else:
            return False  # non-tree edge: connectivity unaffected
        f.cut_with_replacement(child, rep)
        return True
