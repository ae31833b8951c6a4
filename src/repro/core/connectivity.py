"""Connectivity over a link-cut forest (paper section 3.1).

*"Each connectivity query involves two findroot operations, each of which
would take O(d) time (where d is the diameter of the network). The queries
can be processed in parallel, as they only involve memory reads."*

:class:`ConnectivityIndex` bundles a spanning
:class:`~repro.core.linkcut.LinkCutForest` with batched query execution that
measures the actual pointer-hop counts into a work profile — the basis for
Figure 8 (1M queries) and the paper's 7.3M-queries/second headline.  An
index that owns the graph's adjacency representation (:meth:`ConnectivityIndex
.from_rep`) also keeps the forest spanning that graph under update batches
(:meth:`ConnectivityIndex.apply_batch`), apply first and repair after: the
inserts joining two trees link them, the adjacency takes the batch, and each
forest edge whose last copy the batch deleted is cut and replaced from the
smaller side of the cut when the graph still connects the two sides.  This
is the O(smaller side) replacement search, not poly-log
Holm–de Lichtenberg–Thorup, matching the paper's stance that small-world
diameters make simple structures fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.base import AdjacencyRepresentation
from repro.adjacency.csr import CSRGraph
from repro.core.linkcut import ConstructionRecord, LinkCutForest
from repro.core.update_engine import UpdateResult, apply_stream
from repro.errors import GraphError
from repro.generators.streams import UpdateStream
from repro.machine.profile import Phase, WorkProfile
from repro.obs import METRICS, manifest_meta, span
from repro.util.seeding import make_rng

__all__ = ["ConnectivityIndex", "QueryResult", "MaintenanceStats"]

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


@dataclass
class MaintenanceStats:
    """Work counters of :meth:`ConnectivityIndex.apply_batch`, cumulative.

    Edge updates, not arcs: ``deletes`` counts deletes that found the edge,
    ``delete_misses`` the rest.  Per batch, ``tree_links`` counts the
    inserts that joined two pre-batch trees, ``tree_cuts`` the forest edges
    the batch deleted to the last copy, ``replacements_found`` the cuts
    that relinked, and ``parallel_edge_keeps`` the deleted forest edges
    whose copies survive the batch.  ``replacement_scan_arcs`` counts the
    adjacency arcs the smaller-side searches read
    (:attr:`LinkCutForest.scan_arcs`).
    """

    inserts: int = 0
    deletes: int = 0
    delete_misses: int = 0
    tree_links: int = 0
    tree_cuts: int = 0
    replacements_found: int = 0
    replacement_scan_arcs: int = 0
    parallel_edge_keeps: int = 0


class ConnectivityIndex:
    """Spanning-forest connectivity oracle with batched queries and updates.

    Build with :meth:`from_csr` to query a snapshot, or with :meth:`from_rep`
    to also maintain the forest as :meth:`apply_batch` updates the graph.
    Query with :meth:`query_batch` (pairs) or :meth:`query` (single pair).
    """

    def __init__(self, forest: LinkCutForest, record: ConstructionRecord | None = None) -> None:
        self.forest = forest
        self.record = record
        #: The undirected graph :meth:`apply_batch` updates; set only by
        #: :meth:`from_rep` (None: queries only).
        self.rep: AdjacencyRepresentation | None = None
        self.stats = MaintenanceStats()

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "ConnectivityIndex":
        with span("connectivity.from_csr", n=graph.n, arcs=graph.n_arcs) as sp:
            forest, record = LinkCutForest.from_csr(graph)
            sp.set(trees=forest.n_trees())
        METRICS.inc("connectivity.forests_built")
        return cls(forest, record)

    @classmethod
    def from_rep(cls, rep: AdjacencyRepresentation) -> "ConnectivityIndex":
        """An index that maintains a spanning forest of ``rep``'s undirected
        graph, built from a snapshot of it (:meth:`from_csr`).  ``rep`` must
        hold both arcs of every edge; :meth:`apply_batch` keeps it so."""
        index = cls.from_csr(rep.to_csr())
        index.rep = rep
        return index

    @property
    def n(self) -> int:
        return self.forest.n

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
        backend: object = None,
    ) -> QueryResult:
        """Answer many queries and profile the measured pointer work.

        The phase is read-only (no synchronisation), perfectly divisible
        (queries are independent), and entirely dependent random accesses —
        the linked-list-traversal behaviour the paper calls out as having
        poor serial performance but excellent parallel scaling.  A batch
        with at least as many endpoints as the forest has vertices is
        answered by gathers from one whole-forest resolve
        (:meth:`LinkCutForest.connected_batch`); the profile still counts
        each endpoint's depth, and ``connectivity.hops_chased`` the hops
        actually walked.  The batch is always answered in this process: a
        gather costs less than shipping the parent array to workers.  A
        :class:`~repro.parallel.ProcessBackend` passed as ``backend`` only
        labels the span and the profile ``"process"``; no task reaches it.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise GraphError("query endpoint arrays must be 1-D and equal length")
        label = "serial" if backend is None else "process"
        with span(
            "connectivity.query_batch", n_queries=int(us.size), backend=label,
            resolved=self.forest.resolves(us.size),
        ) as sp:
            chased = self.forest.hops_chased
            hops = self.forest.hops
            answers = self.forest.connected_batch(us, vs)
            hops = self.forest.hops - hops
            chased = self.forest.hops_chased - chased
            sp.set(hops=int(hops))
        METRICS.inc("connectivity.queries", int(us.size))
        METRICS.inc("connectivity.hops", int(hops))
        METRICS.inc("connectivity.hops_chased", chased)
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
                "backend": label,
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
    ) -> QueryResult:
        """``k`` uniform random vertex-pair queries (Figure 8's workload)."""
        if k < 0:
            raise GraphError(f"query count must be >= 0, got {k}")
        rng = make_rng(seed)
        us = rng.integers(0, self.forest.n, size=k, dtype=np.int64)
        vs = rng.integers(0, self.forest.n, size=k, dtype=np.int64)
        return self.query_batch(us, vs, name=name)

    # ------------------------------------------------------------------ #
    # maintenance under updates
    # ------------------------------------------------------------------ #

    def _union_roots(self, us, vs) -> np.ndarray:
        """Which edges ``(us[i], vs[i])`` join two trees of the forest as it
        stands, forest untouched: the edges a sequential
        :meth:`LinkCutForest.add_edge` loop over them would link.

        An edge inside one tree never links and never reaches the
        union-find.  The rest run over their roots, renumbered in ascending
        order to ``0..k-1``, through one
        :meth:`~repro.connectit.unionfind.UnionFind.union_arcs`: a union
        succeeds exactly when its two roots are still apart, whatever the
        union rule, so the mask is that of a union-find over all ``n``
        vertices, at the size of the batch.
        """
        from repro.connectit.unionfind import UnionFind

        roots = self.forest.findroot_batch(np.concatenate([us, vs]))
        across = np.flatnonzero(roots[:us.size] != roots[us.size:])
        ids, ends = np.unique(np.concatenate([roots[across], roots[us.size + across]]),
                              return_inverse=True)
        linked = np.zeros(us.size, dtype=bool)
        linked[across] = UnionFind(ids.size).union_arcs(
            ends[:across.size], ends[across.size:], pre_resolved=True
        )
        return linked

    def apply_batch(self, stream: UpdateStream) -> UpdateResult:
        """Apply an undirected update batch to the graph and keep the forest
        spanning it; returns the adjacency's :func:`~repro.core.update_engine
        .apply_stream` result.

        Apply first, then repair:

        1. The inserts that join two trees of the pre-batch forest link it,
           in stream order; one union-find over root space picks them
           (:meth:`_union_roots`).  The forest now spans the graph plus
           every insert.
        2. The adjacency takes the whole batch in one
           :func:`~repro.core.update_engine.apply_stream` call.
        3. A forest edge the batch deleted is *pending* when its last copy
           is gone from the graph; one that keeps a copy stays.
        4. Each pending edge is cut in turn, and
           :meth:`LinkCutForest.cut_with_replacement` searches the smaller
           side of the graph plus the pending edges not yet cut
           (:class:`_Pending`).  Those edges keep the walks whole: without
           them a walk misses the subtrees that hang below one.  They lie
           inside one tree, so every arc leaving the side crosses the cut.

        The forest then spans the graph and its trees are the components;
        which spanning forest it is may differ from the one a per-update
        loop would leave, except for insert-only batches, where step 1 is
        that loop.  :attr:`stats` counts the work (:class:`MaintenanceStats`).
        """
        if self.rep is None:
            raise GraphError("index holds no graph to update; build it with from_rep")
        if stream.n != self.n:
            raise GraphError("stream vertex count mismatch")
        op, src, dst = stream.op, stream.src, stream.dst
        f, s = self.forest, self.stats
        inserts = np.flatnonzero(op == 1)
        with span("connectivity.apply_batch", n_updates=len(stream)) as sp:
            for i in inserts[self._union_roots(src[inserts], dst[inserts])].tolist():
                f.add_edge(int(src[i]), int(dst[i]))
                s.tree_links += 1
            result = apply_stream(self.rep, stream, reset_stats=False)
            hit = (op == -1) & ((f.parent[src] == dst) | (f.parent[dst] == src))
            keys = np.unique(np.minimum(src[hit], dst[hit]) * self.n
                             + np.maximum(src[hit], dst[hit]))
            pending = [(u, v) for u, v in zip((keys // self.n).tolist(), (keys % self.n).tolist())
                       if not self.rep.has_arc(u, v)]
            s.parallel_edge_keeps += keys.size - len(pending)
            graph = _Pending(self.rep, pending)
            for u, v in pending:
                graph.drop(u, v)
                before = f.scan_arcs
                cut = f.cut_with_replacement(u if f.parent[u] == v else v, graph)
                s.tree_cuts += 1
                s.replacement_scan_arcs += f.scan_arcs - before
                s.replacements_found += cut.replacement is not None
            sp.set(trees=f.n_trees(), misses=result.misses)
        misses = result.misses // 2
        s.inserts += int(inserts.size)
        s.deletes += len(stream) - int(inserts.size) - misses
        s.delete_misses += misses
        return result

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Audit: the forest's trees are exactly the graph's components.

        Compares against a from-scratch :func:`~repro.core.components
        .connected_components` of a snapshot, O(n + m); raises
        :class:`GraphError` on divergence.
        """
        from repro.core.components import connected_components

        if self.rep is None:
            raise GraphError("index holds no graph to audit; build it with from_rep")
        self.forest.validate()
        comps = connected_components(self.rep.to_csr())
        roots = self.forest.resolve()[0]
        # Trees and components match iff root -> label is a bijection.
        pairs = np.unique(roots * self.n + comps.labels).size
        trees = np.unique(roots).size
        if not pairs == trees == comps.n_components:
            raise GraphError(
                f"forest has {trees} trees but the graph has {comps.n_components} "
                f"components ({pairs} tree/component pairs)"
            )


class _Pending:
    """``rep``'s graph plus the forest edges a batch deleted that are not
    cut yet: what a cut's search reads.

    ``rep`` holds no copy of a pending edge, so a vertex's arcs are its
    ``rep`` arcs (in no particular order) followed by its pending edges.
    The degree that weighs the search's turns is ``rep``'s.
    """

    def __init__(self, rep: AdjacencyRepresentation, edges) -> None:
        self.rep = rep
        self._edges: dict[int, list[int]] = {}
        for u, v in edges:
            self._edges.setdefault(u, []).append(v)
            self._edges.setdefault(v, []).append(u)

    def drop(self, u: int, v: int) -> None:
        self._edges[u].remove(v)
        self._edges[v].remove(u)

    def degree(self, x: int) -> int:
        return self.rep.degree(x)

    def neighbors(self, x: int) -> np.ndarray:
        nb = self.rep._targets_unordered(x)
        extra = self._edges.get(x)
        return np.concatenate([nb, np.array(extra, dtype=nb.dtype)]) if extra else nb
