"""Parallel single-source shortest paths by Δ-stepping.

The paper cites its own parallel SSSP study (Madduri, Bader, Berry & Crobak,
ALENEX 2007 — reference [19]) as part of the kernel suite SNAP builds on,
and names SSSP on arbitrarily weighted graphs as a key open problem in the
conclusions.  This module supplies that kernel: the Meyer–Sanders Δ-stepping
algorithm, the basis of the ALENEX implementation.

Algorithm recap: tentative distances live in buckets of width Δ.  The
smallest non-empty bucket is emptied in *light phases* — relaxing only light
edges (w ≤ Δ), which may re-insert vertices into the same bucket — and once
it stays empty, the settled vertices' *heavy* edges (w > Δ) are relaxed in
one batch.  Each phase relaxes a whole frontier at once (the parallel step),
which is how the implementation here is vectorised and how the work profile
counts barriers.

Validated against ``scipy.sparse.csgraph.dijkstra`` in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.bulkops import gather_index
from repro.adjacency.csr import CSRGraph
from repro.errors import GraphError, VertexError
from repro.machine.profile import Phase, WorkProfile

__all__ = ["SSSPResult", "delta_stepping"]

_INF = np.inf


@dataclass
class SSSPResult:
    """Distances plus the phase statistics of one Δ-stepping run."""

    source: int
    dist: np.ndarray
    delta: int
    buckets_processed: int
    light_phases: int
    relaxations: int
    edges_scanned: int
    profile: WorkProfile
    meta: dict = field(default_factory=dict)

    @property
    def n_reached(self) -> int:
        return int(np.count_nonzero(np.isfinite(self.dist)))


def _relax(frontier, offsets, targets, weights, mask, dist):
    """Relax ``frontier``'s arcs selected by ``mask``; returns stats.

    Vectorised: gathers all arcs of the frontier, filters by the light/heavy
    mask, applies a concurrent min (``np.minimum.at``), and reports which
    target vertices improved.
    """
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    total = int(counts.sum())
    idx = gather_index(starts, counts)
    sel = mask[idx]
    idx = idx[sel]
    if idx.size == 0:
        return np.empty(0, dtype=np.int64), total, 0
    srcs = np.repeat(frontier, counts)[sel]
    tgts = targets[idx]
    cand = dist[srcs] + weights[idx]
    improving = cand < dist[tgts]
    tgts = tgts[improving]
    cand = cand[improving]
    if tgts.size == 0:
        return np.empty(0, dtype=np.int64), total, 0
    np.minimum.at(dist, tgts, cand)
    return np.unique(tgts), total, int(tgts.size)


def delta_stepping(
    graph: CSRGraph,
    source: int,
    *,
    delta: int | None = None,
    name: str = "delta-stepping",
) -> SSSPResult:
    """Shortest path distances from ``source`` under positive edge weights.

    ``delta`` defaults to the mean edge weight (a standard heuristic: it
    balances light-phase re-relaxations against bucket count).  Unweighted
    graphs (no ``w`` column) degenerate to Δ = 1, where the algorithm is
    exactly level-synchronous BFS.
    """
    if not 0 <= source < graph.n:
        raise VertexError(f"source {source} out of range [0, {graph.n})")
    weights = graph.weights()
    if delta is None:
        delta = max(1, int(round(float(weights.mean()))) if weights.size else 1)
    if delta <= 0:
        raise GraphError(f"delta must be positive, got {delta}")

    offsets, targets = graph.offsets, graph.targets
    light = weights <= delta
    heavy = ~light
    dist = np.full(graph.n, _INF, dtype=np.float64)
    dist[source] = 0.0

    buckets_processed = 0
    light_phases = 0
    relaxations = 0
    edges_scanned = 0
    phases: list[Phase] = []
    footprint = float(graph.memory_bytes() + dist.nbytes)

    def record_phase(kind: str, scanned: int, frontier_size: int) -> None:
        phases.append(
            Phase(
                name=f"{kind}{len(phases)}",
                alu_ops=10.0 * scanned + 6.0 * frontier_size,
                rand_accesses=float(scanned + frontier_size),
                seq_bytes=16.0 * scanned,  # target + weight columns
                footprint_bytes=footprint,
                atomics=float(scanned),  # concurrent-min relaxations
                barriers=2.0,
            )
        )

    # Lazy bucket structure: bucket index derived from dist on demand.
    current = 0
    settled_global = np.zeros(graph.n, dtype=bool)
    max_bucket_guard = 4 * graph.n + 16  # safety valve (positive weights)
    while buckets_processed < max_bucket_guard:
        finite = np.isfinite(dist) & ~settled_global
        if not np.any(finite):
            break
        bucket_of = np.full(graph.n, -1, dtype=np.int64)
        bucket_of[finite] = (dist[finite] // delta).astype(np.int64)
        active = bucket_of[finite]
        current = int(active.min())
        buckets_processed += 1

        settled_this_bucket: list[np.ndarray] = []
        while True:
            candidates = np.nonzero(np.isfinite(dist) & ~settled_global)[0]
            if candidates.size == 0:
                break
            in_bucket = (dist[candidates] // delta).astype(np.int64) == current
            frontier = candidates[in_bucket]
            if frontier.size == 0:
                break
            light_phases += 1
            settled_global[frontier] = True
            settled_this_bucket.append(frontier)
            improved, scanned, relaxed = _relax(
                frontier, offsets, targets, weights, light, dist
            )
            edges_scanned += scanned
            relaxations += relaxed
            record_phase("light", scanned, int(frontier.size))
            # Vertices pulled (back) into the current bucket re-enter the
            # loop; anything improved into a *later* bucket waits.  A vertex
            # already settled in this bucket whose distance improved must be
            # re-processed: un-settle it.
            if improved.size:
                back = improved[
                    (dist[improved] // delta).astype(np.int64) == current
                ]
                settled_global[back] = False

        if settled_this_bucket:
            settled = np.unique(np.concatenate(settled_this_bucket))
            settled_global[settled] = True
            improved, scanned, relaxed = _relax(
                settled, offsets, targets, weights, heavy, dist
            )
            edges_scanned += scanned
            relaxations += relaxed
            record_phase("heavy", scanned, int(settled.size))

    if not phases:
        phases.append(Phase("empty", footprint_bytes=footprint))
    profile = WorkProfile(
        name,
        tuple(phases),
        meta={
            "n": graph.n,
            "arcs": graph.n_arcs,
            "source": source,
            "delta": delta,
            "buckets": buckets_processed,
        },
    )
    return SSSPResult(
        source=source,
        dist=dist,
        delta=delta,
        buckets_processed=buckets_processed,
        light_phases=light_phases,
        relaxations=relaxations,
        edges_scanned=edges_scanned,
        profile=profile,
    )
