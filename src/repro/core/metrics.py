"""Small-world network statistics (paper section 1's framing).

The paper motivates everything with the structural features of real-world
networks: "a low graph diameter, unbalanced degree distributions,
self-similarity, and the presence of dense sub-graphs".  This module
measures the first two, plus local clustering and the giant-component share
— the statistics ``repro stats`` prints:

* degree-distribution summary (max/mean/heavy-tail fit);
* clustering coefficients (exact per vertex, or sampled);
* effective diameter / eccentricity estimates via multi-source BFS;
* giant-component share.

All validated against networkx in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.errors import GraphError
from repro.util.seeding import make_rng, pick_sources

__all__ = [
    "DegreeStats",
    "degree_stats",
    "clustering_coefficient",
    "average_clustering",
    "effective_diameter",
    "giant_component_fraction",
]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a degree distribution."""

    n: int
    n_arcs: int
    min: int
    max: int
    mean: float
    median: float
    #: Fraction of arcs incident to the top 1% of vertices by degree —
    #: the "unbalanced degree distribution" in one number.
    top1pct_arc_share: float
    #: Least-squares slope of log-count vs log-degree (the power-law
    #: exponent estimate; meaningful for heavy-tailed inputs only).
    loglog_slope: float
    meta: dict = field(default_factory=dict)


def degree_stats(graph: CSRGraph) -> DegreeStats:
    """Degree-distribution summary of a CSR snapshot."""
    deg = graph.degrees()
    if graph.n == 0:
        return DegreeStats(0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0)
    top_k = max(1, graph.n // 100)
    top = np.sort(deg)[::-1][:top_k]
    share = float(top.sum()) / max(1, int(deg.sum()))
    # log-log fit over the positive-degree histogram
    pos = deg[deg > 0]
    slope = 0.0
    if pos.size:
        values, counts = np.unique(pos, return_counts=True)
        if values.size >= 3:
            slope = float(np.polyfit(np.log(values), np.log(counts), 1)[0])
    return DegreeStats(
        n=graph.n,
        n_arcs=graph.n_arcs,
        min=int(deg.min()),
        max=int(deg.max()),
        mean=float(deg.mean()),
        median=float(np.median(deg)),
        top1pct_arc_share=share,
        loglog_slope=slope,
    )


def clustering_coefficient(graph: CSRGraph, vertices=None) -> np.ndarray:
    """Local clustering coefficient per vertex (0 for degree < 2).

    Computed over the *simple* graph (duplicate arcs and self-loops
    ignored), matching the standard definition and networkx.  ``vertices``
    restricts the computation (sampling); default all.
    """
    if vertices is None:
        vertices = np.arange(graph.n, dtype=np.int64)
    else:
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= graph.n):
            raise GraphError("vertex ids out of range")
    # Precompute simple neighbour sets once (as Python sets for O(1) probes).
    neighbor_sets: dict[int, set] = {}

    def nbr_set(u: int) -> set:
        s = neighbor_sets.get(u)
        if s is None:
            arr = graph.neighbors(u)
            s = set(arr.tolist())
            s.discard(u)
            neighbor_sets[u] = s
        return s

    out = np.zeros(vertices.size, dtype=np.float64)
    for i, u in enumerate(vertices.tolist()):
        nu = nbr_set(u)
        k = len(nu)
        if k < 2:
            continue
        links = 0
        for v in nu:
            nv = nbr_set(v)
            links += len(nu & nv)
        out[i] = links / (k * (k - 1))  # each triangle edge counted once per side
    return out


def average_clustering(
    graph: CSRGraph,
    *,
    samples: int | None = None,
    seed=None,
) -> float:
    """Mean local clustering, optionally over a uniform vertex sample."""
    if samples is None:
        vertices = None
    else:
        if not 0 < samples <= graph.n:
            raise GraphError(f"sample size must be in [1, {graph.n}], got {samples}")
        rng = make_rng(seed)
        vertices = rng.choice(graph.n, size=samples, replace=False)
    vals = clustering_coefficient(graph, vertices)
    return float(vals.mean()) if vals.size else 0.0


def effective_diameter(
    graph: CSRGraph,
    *,
    samples: int = 16,
    percentile: float = 90.0,
    seed=None,
) -> tuple[float, int]:
    """(effective diameter, max observed eccentricity) from sampled BFS.

    Effective diameter: the given percentile of finite pairwise distances
    observed from the sampled sources — the standard small-world statistic
    ("90% of pairs within d hops").  The second value is the largest
    eccentricity seen, a lower bound on the true diameter.  ``samples`` is
    clamped to n; a count below one raises :class:`GraphError`.
    """
    if graph.n == 0:
        return 0.0, 0
    if not 0 < percentile <= 100:
        raise GraphError(f"percentile must be in (0, 100], got {percentile}")
    dists = []
    max_ecc = 0
    for s in pick_sources(graph.n, min(samples, graph.n), seed).tolist():
        res = bfs(graph, s)
        finite = res.dist[res.dist >= 0]
        if finite.size > 1:
            dists.append(finite[finite > 0])
            max_ecc = max(max_ecc, int(finite.max()))
    if not dists:
        return 0.0, 0
    all_d = np.concatenate(dists)
    return float(np.percentile(all_d, percentile)), max_ecc


def giant_component_fraction(graph: CSRGraph) -> float:
    """Share of vertices in the largest connected component."""
    if graph.n == 0:
        return 0.0
    comps = connected_components(graph)
    return comps.largest()[1] / graph.n
