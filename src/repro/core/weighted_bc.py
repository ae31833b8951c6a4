"""Weighted betweenness centrality (Brandes over Dijkstra DAGs).

Completes the centrality suite for weighted graphs: the paper's section 3.4
algorithm is BFS-based (unit weights); with positive integer weights the
shortest-path DAG comes from Dijkstra instead, and the dependency
accumulation runs over vertices in order of decreasing distance (Brandes
2001, the weighted variant).  The paper's conclusions name weighted-graph
path problems as the hard open case — this kernel pairs with
:mod:`repro.core.sssp` to cover it.

Validated against ``networkx.betweenness_centrality(weight=...)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.machine.profile import Phase, WorkProfile
from repro.util.seeding import pick_sources

__all__ = ["WeightedBCResult", "weighted_betweenness"]


@dataclass(frozen=True)
class WeightedBCResult:
    """Weighted betweenness scores (ordered-pair convention)."""

    scores: np.ndarray
    n_sources: int
    relaxations: int
    profile: WorkProfile
    meta: dict = field(default_factory=dict)

    def top(self, k: int = 10) -> list[tuple[int, float]]:
        order = np.argsort(self.scores)[::-1][:k]
        return [(int(v), float(self.scores[v])) for v in order]


def _brandes_dijkstra(graph: CSRGraph, s: int, scores: np.ndarray) -> int:
    """One weighted source: Dijkstra with path counting + accumulation."""
    n = graph.n
    offsets, targets = graph.offsets, graph.targets
    weights = graph.weights()
    dist = np.full(n, np.inf, dtype=np.float64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[s] = 0.0
    sigma[s] = 1.0
    preds: list[list[int]] = [[] for _ in range(n)]
    settled_order: list[int] = []
    done = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, s)]
    relaxations = 0
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        settled_order.append(u)
        for j in range(int(offsets[u]), int(offsets[u + 1])):
            v = int(targets[j])
            cand = d + float(weights[j])
            relaxations += 1
            if cand < dist[v] - 1e-12:
                dist[v] = cand
                sigma[v] = sigma[u]
                preds[v] = [u]
                heapq.heappush(heap, (cand, v))
            elif abs(cand - dist[v]) <= 1e-12 and not done[v]:
                sigma[v] += sigma[u]
                preds[v].append(u)
    delta = np.zeros(n, dtype=np.float64)
    for w in reversed(settled_order):
        for u in preds[w]:
            delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
    delta[s] = 0.0
    scores += delta
    return relaxations


def weighted_betweenness(
    graph: CSRGraph,
    *,
    sources: np.ndarray | int | None = None,
    seed=None,
    name: str = "weighted-betweenness",
) -> WeightedBCResult:
    """Betweenness under positive edge weights (ordered-pair sums).

    Unweighted snapshots (no ``w`` column) give the same result as
    :func:`repro.core.betweenness.temporal_betweenness` with
    ``temporal=False`` (tested); with weights, shortest paths are
    minimum-weight paths.  Sources follow the usual sampling convention.
    """
    n = graph.n
    src_ids = pick_sources(n, sources, seed)
    scores = np.zeros(n, dtype=np.float64)
    relaxations = 0
    for s in src_ids.tolist():
        relaxations += _brandes_dijkstra(graph, s, scores)
    if src_ids.size < n:
        scores *= n / src_ids.size
    footprint = float(graph.memory_bytes() + 6 * 8 * n)
    profile = WorkProfile(
        name,
        (
            Phase(
                name="dijkstra",
                alu_ops=30.0 * relaxations,  # heap ops dominate
                rand_accesses=float(3 * relaxations),
                seq_bytes=16.0 * relaxations,
                footprint_bytes=footprint,
                # A parallel weighted Brandes serialises on the priority
                # structure far more than the level-synchronous BFS variant
                # — the paper's "harder to parallelise" remark — modelled as
                # per-settle critical work.
                locks=float(relaxations),
                lock_hold_cycles=20.0,
            ),
        ),
        meta={"n": n, "n_sources": int(src_ids.size), "relaxations": relaxations},
    )
    return WeightedBCResult(
        scores=scores,
        n_sources=int(src_ids.size),
        relaxations=relaxations,
        profile=profile,
    )
