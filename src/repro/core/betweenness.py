"""Temporal betweenness centrality (paper section 3.4).

The paper defines a temporal path (after Kempe, Kleinberg & Kumar) as an
edge sequence with strictly increasing time labels, a temporal shortest path
as a minimum-length such path, and temporal betweenness BC_d(v) as the sum
over pairs (s, t) of the fraction of temporal shortest paths through v.  The
parallel algorithm augments Brandes-style BFS with the time-label check —
"the graph traversal step in this parallel approach is modified to process
temporal paths, while the dependency-accumulation stage remains unchanged" —
and approximates by traversing from a sample of sources and extrapolating
(256 sources for Figure 11).

Exactness caveat (also recorded in DESIGN.md §1): reconciling multiple
arrival times at a vertex exactly requires per-(vertex, arrival-label)
state.  This kernel keeps one label per vertex — the minimum feasible
arrival label at the vertex's shortest temporal distance, which admits the
maximal set of extensions — matching the single-pass traversal the paper
describes.  Paths it counts are genuine temporal shortest paths; in rare
configurations it can additionally count a path whose own predecessor chain
used a later label than the recorded minimum (an overcount) or settle a
vertex at a hop distance no later-labelled path could achieve (undercount of
alternatives).  :func:`temporal_bc_exact` enumerates temporal paths
exhaustively for small graphs and is used by the test suite to quantify the
divergence (zero on trees and on most sparse R-MAT instances).

With ``temporal=False`` the kernel is exactly Brandes' algorithm for
unweighted graphs (validated against networkx in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.bulkops import gather_index
from repro.adjacency.csr import CSRGraph
from repro.edgelist import EdgeList
from repro.errors import GraphError
from repro.machine.profile import Phase, WorkProfile
from repro.util.seeding import pick_sources

__all__ = [
    "BetweennessResult",
    "brandes_forward",
    "temporal_betweenness",
    "temporal_bc_exact",
]

_ALU_PER_EDGE = 12.0  # feasibility test + sigma accumulate + label min
_ALU_PER_EDGE_ACC = 10.0  # dependency accumulation per tree edge


@dataclass(frozen=True)
class BetweennessResult:
    """Centrality scores plus traversal statistics.

    ``scores`` are extrapolated when ``n_sources < n`` (multiplied by
    n / n_sources, the paper's approximation scheme).
    """

    scores: np.ndarray
    n_sources: int
    sources: np.ndarray
    total_levels: int
    edges_scanned: int
    profile: WorkProfile
    temporal: bool
    meta: dict = field(default_factory=dict)

    def top(self, k: int = 10) -> list[tuple[int, float]]:
        """The k highest-centrality vertices as (vertex, score) pairs."""
        order = np.argsort(self.scores)[::-1][:k]
        return [(int(v), float(self.scores[v])) for v in order]


def brandes_forward(
    graph: CSRGraph, s: int, *, temporal: bool = False
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], int, int]:
    """Brandes' forward pass from ``s``: ``(sigma, level_arcs, levels, edges_scanned)``.

    ``sigma[v]`` counts the shortest (with ``temporal``, label-increasing)
    paths from ``s`` to ``v``; ``level_arcs`` holds each level's
    shortest-path DAG arcs as ``(tails, heads)``, which the backward sweep
    walks in reverse.  Vectorised per level: the frontier's adjacency arcs
    are gathered with index arithmetic and sigma accumulates by
    ``np.add.at`` (the PRAM concurrent-add).
    """
    offsets, targets = graph.offsets, graph.targets
    ts = graph.ts
    n = graph.n
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    arr_min = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    dist[s] = 0
    sigma[s] = 1.0
    arr_min[s] = -1  # any non-negative first label is feasible

    frontier = np.array([s], dtype=np.int64)
    level = 0
    level_arcs: list[tuple[np.ndarray, np.ndarray]] = []
    edges_scanned = 0
    while frontier.size:
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        edges_scanned += total
        if total == 0:
            break
        idx = gather_index(starts, counts)
        v_arr = np.repeat(frontier, counts)
        w_arr = targets[idx]
        if temporal:
            lab = ts[idx]
            feasible = lab > arr_min[v_arr]
            v_arr, w_arr, lab = v_arr[feasible], w_arr[feasible], lab[feasible]
        else:
            lab = None
        if w_arr.size == 0:
            break
        # Discover: unvisited targets join the next level.
        fresh = w_arr[dist[w_arr] < 0]
        if fresh.size:
            fresh = np.unique(fresh)
            dist[fresh] = level + 1
        # Shortest-path arcs: feasible arcs landing exactly one level deeper
        # (covers both just-discovered vertices and multi-predecessor joins).
        on_sp = dist[w_arr] == level + 1
        v_sp, w_sp = v_arr[on_sp], w_arr[on_sp]
        if v_sp.size:
            np.add.at(sigma, w_sp, sigma[v_sp])
            if temporal:
                np.minimum.at(arr_min, w_sp, lab[on_sp])
            level_arcs.append((v_sp, w_sp))
        frontier = fresh
        level += 1
    return sigma, level_arcs, level, edges_scanned


def _dependencies(
    sigma: np.ndarray, level_arcs: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Brandes' backward sweep (unchanged from the static algorithm, per the
    paper): each vertex's dependency, the source's own entry included."""
    delta = np.zeros(sigma.size, dtype=np.float64)
    for v_sp, w_sp in reversed(level_arcs):
        contrib = sigma[v_sp] / sigma[w_sp] * (1.0 + delta[w_sp])
        np.add.at(delta, v_sp, contrib)
    return delta


def temporal_betweenness(
    graph: CSRGraph,
    *,
    sources: np.ndarray | int | None = None,
    seed: int | np.random.Generator | None = None,
    temporal: bool = True,
    name: str = "temporal-betweenness",
) -> BetweennessResult:
    """(Approximate) temporal betweenness centrality.

    Parameters
    ----------
    graph:
        CSR snapshot; must carry time-stamps when ``temporal=True``.
    sources:
        Either an explicit array of source vertices, an integer sample size
        (drawn uniformly without replacement — the paper samples 256), or
        None for the exact all-sources computation.
    temporal:
        When False, time labels are ignored and the result is classical
        (unnormalised, directed-pair-sum) betweenness.
    """
    if temporal and graph.ts is None:
        raise GraphError("temporal betweenness needs a time-stamped graph")
    n = graph.n
    src_ids = pick_sources(n, sources, seed)

    scores = np.zeros(n, dtype=np.float64)
    total_levels = 0
    edges_scanned = 0
    for s in src_ids.tolist():
        sigma, level_arcs, levels, scanned = brandes_forward(graph, s, temporal=temporal)
        delta = _dependencies(sigma, level_arcs)
        delta[s] = 0.0
        scores += delta
        total_levels += levels
        edges_scanned += scanned

    if src_ids.size < n:
        scores *= n / src_ids.size  # the paper's extrapolation

    footprint = float(graph.memory_bytes() + 5 * 8 * n)
    traversal = Phase(
        name="traversal",
        alu_ops=_ALU_PER_EDGE * edges_scanned,
        rand_accesses=float(2 * edges_scanned),
        seq_bytes=(16.0 if temporal else 8.0) * edges_scanned,
        footprint_bytes=footprint,
        atomics=float(edges_scanned),  # concurrent sigma adds
        barriers=2.0 * total_levels,
    )
    accumulation = Phase(
        name="accumulation",
        alu_ops=_ALU_PER_EDGE_ACC * edges_scanned,
        rand_accesses=float(edges_scanned),
        seq_bytes=8.0 * edges_scanned,
        footprint_bytes=footprint,
        atomics=float(edges_scanned),  # concurrent delta adds
        barriers=float(total_levels),
    )
    profile = WorkProfile(
        name,
        (traversal, accumulation),
        meta={
            "n": n,
            "arcs": graph.n_arcs,
            "n_sources": int(src_ids.size),
            "levels": total_levels,
            "temporal": temporal,
        },
    )
    return BetweennessResult(
        scores=scores,
        n_sources=int(src_ids.size),
        sources=src_ids,
        total_levels=total_levels,
        edges_scanned=edges_scanned,
        profile=profile,
        temporal=temporal,
    )


def temporal_bc_exact(edges: EdgeList, *, symmetrize: bool | None = None) -> np.ndarray:
    """Exact temporal betweenness by exhaustive temporal-path enumeration.

    Ground truth for validating the fast kernel on SMALL graphs: explores
    every strictly-increasing-label path from every source (temporal paths
    cannot repeat a label, so the search terminates), keeps the shortest
    per (s, t), and accumulates pair dependencies exactly.  Exponential in
    the worst case — guard-railed to reject graphs beyond test scale.
    """
    if edges.ts is None:
        raise GraphError("temporal_bc_exact needs time-stamped edges")
    if edges.n > 64 or edges.m > 256:
        raise GraphError(
            "temporal_bc_exact is an exponential reference for tests; "
            f"got n={edges.n}, m={edges.m} (limits: 64, 256)"
        )
    if symmetrize is None:
        symmetrize = not edges.directed
    arcs = edges.symmetrized() if symmetrize else edges
    n = edges.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, t in zip(arcs.src.tolist(), arcs.dst.tolist(), arcs.timestamps().tolist()):
        adj[u].append((v, t))

    scores = np.zeros(n, dtype=np.float64)
    for s in range(n):
        # best[t] = (shortest length, list of interior-vertex tuples)
        best: dict[int, tuple[int, list[tuple[int, ...]]]] = {}
        stack: list[tuple[int, int, tuple[int, ...]]] = [(s, -1, ())]
        while stack:
            v, last, interior = stack.pop()
            for w, lab in adj[v]:
                if lab <= last:
                    continue
                length = len(interior) + 1
                if w != s:
                    cur = best.get(w)
                    if cur is None or length < cur[0]:
                        best[w] = (length, [interior])
                    elif length == cur[0]:
                        cur[1].append(interior)
                # Keep exploring: longer prefixes can still yield shortest
                # paths to other targets.
                stack.append((w, lab, interior + (w,)))
        for t_vtx, (length, interiors) in best.items():
            if t_vtx == s:
                continue
            sigma_st = len(interiors)
            counts: dict[int, int] = {}
            for interior in interiors:
                # interior already excludes both endpoints by construction
                for v in interior:
                    counts[v] = counts.get(v, 0) + 1
            for v, c in counts.items():
                if v != s:
                    scores[v] += c / sigma_st
    return scores
