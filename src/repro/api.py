"""High-level public API: :class:`DynamicGraph`.

One object tying the paper's pieces together the way SNAP does: a dynamic
adjacency representation absorbing structural updates, snapshot extraction
into CSR, and the analysis kernels (connectivity, traversal, induced
temporal subgraphs, centrality) run over those snapshots.

Example
-------
>>> import numpy as np
>>> from repro.api import DynamicGraph
>>> g = DynamicGraph(6, representation="hybrid")
>>> for i, (u, v) in enumerate([(0, 1), (1, 2), (2, 3), (4, 5)]):
...     g.insert_edge(u, v, ts=i)
>>> idx = g.spanning_forest()
>>> bool(idx.query(0, 3)), bool(idx.query(0, 4))
(True, False)
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.base import AdjacencyRepresentation
from repro.adjacency.csr import CSRGraph
from repro.adjacency.registry import make_representation
from repro.core.bfs import BFSResult, bfs
from repro.core.betweenness import BetweennessResult, temporal_betweenness
from repro.core.components import ComponentsResult, connected_components
from repro.core.connectivity import ConnectivityIndex
from repro.core.induced import InducedResult, induced_subgraph
from repro.core.update_engine import UpdateResult, apply_stream, symmetric_arcs
from repro.edgelist import EdgeList
from repro.errors import GraphError
from repro.generators.streams import UpdateStream
from repro.obs import METRICS, span

__all__ = ["DynamicGraph"]


class DynamicGraph:
    """A temporal graph under structural updates, with analysis kernels.

    Parameters
    ----------
    n:
        Number of vertices (fixed; the paper's workloads insert and delete
        edges over a fixed vertex set).
    representation:
        Registry name of the adjacency structure: ``dynarr``, ``dynarr-nr``,
        ``treap``, ``hybrid`` (default — the paper's recommendation),
        ``vpart``, ``epart`` or ``batched``; or a ready-made
        :class:`~repro.adjacency.base.AdjacencyRepresentation` instance.
    directed:
        Undirected graphs (default) store each edge as two arcs.
    rep_kwargs:
        Forwarded to the representation constructor (``degree_thresh`` for
        hybrid, ``expected_m`` for dynarr, ...).
    """

    def __init__(
        self,
        n: int,
        representation: str | AdjacencyRepresentation = "hybrid",
        *,
        directed: bool = False,
        **rep_kwargs,
    ) -> None:
        if isinstance(representation, AdjacencyRepresentation):
            if representation.n != n:
                raise GraphError("representation vertex count mismatch")
            self.rep = representation
        else:
            self.rep = make_representation(representation, n, **rep_kwargs)
        self.n = int(n)
        self.directed = bool(directed)
        self._snapshot: CSRGraph | None = None
        self._snapshot_key = -1

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        n: int,
        src,
        dst,
        ts=None,
        *,
        representation: str | AdjacencyRepresentation = "hybrid",
        directed: bool = False,
        **rep_kwargs,
    ) -> "DynamicGraph":
        """Build a graph by bulk-inserting the given edges."""
        g = cls(n, representation, directed=directed, **rep_kwargs)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        t = None if ts is None else np.asarray(ts, dtype=np.int64)
        g.rep.bulk_insert(*((src, dst, t) if directed else symmetric_arcs(src, dst, t)))
        return g

    @classmethod
    def from_edgelist(
        cls,
        graph: EdgeList,
        *,
        representation: str | AdjacencyRepresentation = "hybrid",
        **rep_kwargs,
    ) -> "DynamicGraph":
        """Build from an :class:`~repro.edgelist.EdgeList` (directedness kept)."""
        return cls.from_edges(
            graph.n,
            graph.src,
            graph.dst,
            graph.ts,
            representation=representation,
            directed=graph.directed,
            **rep_kwargs,
        )

    @classmethod
    def from_edge_chunks(
        cls,
        n: int,
        chunks,
        *,
        representation: str | AdjacencyRepresentation = "hybrid",
        directed: bool = False,
        **rep_kwargs,
    ) -> "DynamicGraph":
        """Build a graph by streaming bounded edge chunks (never fully resident).

        ``chunks`` is any iterable of :class:`~repro.edgelist.EdgeList`
        chunks — typically :func:`repro.generators.parallel
        .iter_edge_chunks` — each bulk-inserted and released before the
        next is generated, so peak memory is one chunk plus the adjacency
        structure.  This is the construction path for scales where the
        materialised edge list would not fit (see docs/GENERATORS.md).
        """
        g = cls(n, representation, directed=directed, **rep_kwargs)
        with span("api.from_edge_chunks", n=int(n)) as sp:
            n_chunks = 0
            n_edges = 0
            for chunk in chunks:
                if chunk.n > g.n:
                    raise GraphError(
                        f"chunk vertex count {chunk.n} exceeds graph n={g.n}"
                    )
                src = np.asarray(chunk.src, dtype=np.int64)
                dst = np.asarray(chunk.dst, dtype=np.int64)
                t = chunk.ts if chunk.ts is None else np.asarray(chunk.ts, np.int64)
                g.rep.bulk_insert(*((src, dst, t) if directed else symmetric_arcs(src, dst, t)))
                n_chunks += 1
                n_edges += len(src)
                METRICS.inc("api.chunks_applied")
            sp.set(chunks=n_chunks, edges=n_edges)
        return g

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def insert_edge(self, u: int, v: int, ts: int = 0) -> None:
        """Insert edge (u, v) with time label ``ts``."""
        self.rep.insert(u, v, ts)
        if not self.directed:
            self.rep.insert(v, u, ts)

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete one occurrence of edge (u, v); False if absent."""
        found = self.rep.delete(u, v)
        if found and not self.directed:
            self.rep.delete(v, u)
        return found

    def apply(self, stream: UpdateStream, **kwargs) -> UpdateResult:
        """Apply a whole update stream; returns results + work profile.

        Edge updates symmetrise exactly when the graph is undirected, so a
        snapshot stamped symmetric always is.
        """
        with span(
            "api.apply", representation=self.rep.kind, n_updates=len(stream)
        ) as sp:
            res = apply_stream(self.rep, stream, undirected=not self.directed, **kwargs)
            sp.set(misses=res.misses, host_seconds=res.host_seconds)
        return res

    # ------------------------------------------------------------------ #
    # queries on the dynamic structure
    # ------------------------------------------------------------------ #

    def degree(self, u: int) -> int:
        return self.rep.degree(u)

    def neighbors(self, u: int) -> np.ndarray:
        return self.rep.neighbors(u)

    def has_edge(self, u: int, v: int) -> bool:
        return self.rep.has_arc(u, v)

    @property
    def n_edges(self) -> int:
        """Edge count (arc count halved for undirected graphs).

        Every update path stores an undirected edge as two arcs, a self-loop
        included (it adds 2 to its vertex's degree), so the halving is
        exact.
        """
        arcs = self.rep.n_arcs
        return arcs // 2 if not self.directed else arcs

    def memory_bytes(self) -> int:
        return self.rep.memory_bytes()

    # ------------------------------------------------------------------ #
    # snapshots and kernels
    # ------------------------------------------------------------------ #

    def snapshot(self, *, refresh: bool = False) -> CSRGraph:
        """CSR snapshot of the live arcs (cached until the structure mutates).

        The cache key is the representation's monotonic mutation counter, so
        any structural change — including a balanced insert+delete mix that
        leaves the live arc count unchanged — invalidates the cache.
        ``refresh=True`` still forces a rebuild unconditionally; a forced
        rebuild of an *unchanged* structure ticks
        ``api.snapshot_forced_rebuilds`` instead of ``api.snapshot_rebuilds``,
        so the rebuild counter tracks structural staleness only (the
        service's epoch-lag accounting depends on that distinction).
        An undirected graph's snapshot is stamped
        :attr:`~repro.adjacency.csr.CSRGraph.symmetric`: every update path
        of this class writes both arcs of an edge.
        """
        key = self.rep.mutation_count
        if refresh or self._snapshot is None or self._snapshot_key != key:
            forced = refresh and self._snapshot is not None and self._snapshot_key == key
            with span("api.snapshot", n=self.n, arcs=self.rep.n_arcs):
                self._snapshot = self.rep.to_csr()
            if not self.directed:
                self._snapshot.meta["symmetric"] = True
            self._snapshot_key = self.rep.mutation_count
            METRICS.inc(
                "api.snapshot_forced_rebuilds" if forced else "api.snapshot_rebuilds"
            )
        else:
            METRICS.inc("api.snapshot_cache_hits")
        return self._snapshot

    def bfs(self, source: int, *, ts_range: tuple[int, int] | None = None) -> BFSResult:
        """Breadth-first search over the current snapshot (section 3.3).

        For the worker pool, pass :meth:`snapshot` to
        :meth:`repro.parallel.ProcessBackend.bfs`: the result is bit-identical.
        """
        with span("api.bfs", source=int(source)):
            return bfs(self.snapshot(), source, ts_range=ts_range)

    def connected_components(self) -> ComponentsResult:
        """Connected components of the current snapshot.

        :meth:`repro.parallel.ProcessBackend.connected_components` hooks the
        same labels (and pass/jump counts) on the worker pool.
        """
        with span("api.connected_components"):
            return connected_components(self.snapshot())

    def spanning_forest(self) -> ConnectivityIndex:
        """Link-cut spanning forest for connectivity queries (section 3.1)."""
        with span("api.spanning_forest", n=self.n):
            return ConnectivityIndex.from_csr(self.snapshot())

    def induced_interval(self, t_lo: int, t_hi: int, **kwargs) -> InducedResult:
        """Temporal induced subgraph of edges in (t_lo, t_hi) (section 3.2)."""
        with span("api.induced_interval", t_lo=int(t_lo), t_hi=int(t_hi)):
            src, dst, ts = self.rep.to_arrays()
            edges = EdgeList(self.n, src, dst, ts=ts, directed=True)
            return induced_subgraph(edges, t_lo, t_hi, **kwargs)

    def betweenness(
        self,
        *,
        sources: int | np.ndarray | None = None,
        temporal: bool = True,
        seed=None,
    ) -> BetweennessResult:
        """(Temporal) betweenness centrality over the snapshot (section 3.4)."""
        with span("api.betweenness", temporal=temporal):
            return temporal_betweenness(
                self.snapshot(), sources=sources, temporal=temporal, seed=seed
            )

    def shortest_paths(self, source: int, **kwargs):
        """Weighted SSSP by Δ-stepping over the snapshot (extension)."""
        from repro.core.sssp import delta_stepping

        return delta_stepping(self.snapshot(), source, **kwargs)

    def degree_stats(self):
        """Degree-distribution summary of the snapshot (extension)."""
        from repro.core.metrics import degree_stats

        return degree_stats(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return (
            f"DynamicGraph(n={self.n}, edges={self.n_edges}, {kind}, "
            f"representation={self.rep.kind!r})"
        )
