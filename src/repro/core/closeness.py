"""Closeness and stress centrality (paper section 3.4's metric family).

The paper names closeness, stress and betweenness as the well-known
centrality indices; betweenness gets the full treatment in
:mod:`repro.core.betweenness`, and this module completes the family:

* **closeness** — BFS-based, with the Wasserman–Faust component correction
  (the convention networkx uses, which the tests validate against), and the
  same time-stamp filtering hook as every traversal kernel here;
* **stress** — Brandes-style accumulation of *absolute* shortest-path
  counts: stress(v) = Σ_{s≠v≠t} σ_st(v).  The forward pass is
  betweenness's (:func:`repro.core.betweenness.brandes_forward`); the
  backward pass accumulates
  φ(v) = Σ_{w ∈ succ(v)} (1 + φ(w)) over the shortest-path DAG and adds
  σ_sv · φ(v) per source (validated against exhaustive path enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.betweenness import brandes_forward
from repro.core.bfs import bfs
from repro.machine.profile import Phase, WorkProfile
from repro.util.seeding import pick_sources

__all__ = ["CentralityResult", "closeness_centrality", "stress_centrality"]


@dataclass(frozen=True)
class CentralityResult:
    """Scores plus traversal statistics for a multi-source centrality run."""

    scores: np.ndarray
    n_sources: int
    edges_scanned: int
    profile: WorkProfile
    meta: dict = field(default_factory=dict)

    def top(self, k: int = 10) -> list[tuple[int, float]]:
        order = np.argsort(self.scores)[::-1][:k]
        return [(int(v), float(self.scores[v])) for v in order]


def _traversal_profile(name, graph, edges_scanned, levels, n_sources):
    footprint = float(graph.memory_bytes() + 3 * 8 * graph.n)
    phase = Phase(
        name="traversal",
        alu_ops=10.0 * edges_scanned,
        rand_accesses=float(2 * edges_scanned),
        seq_bytes=8.0 * edges_scanned,
        footprint_bytes=footprint,
        barriers=2.0 * levels,
    )
    return WorkProfile(
        name, (phase,),
        meta={"n": graph.n, "n_sources": n_sources, "levels": levels},
    )


def closeness_centrality(
    graph: CSRGraph,
    *,
    sources: np.ndarray | int | None = None,
    seed=None,
    ts_range: tuple[int, int] | None = None,
    name: str = "closeness",
) -> CentralityResult:
    """Closeness centrality of the *source* vertices.

    For each source s with r reachable vertices and distance sum D:
    ``closeness(s) = ((r - 1) / D) * ((r - 1) / (n - 1))`` — the
    Wasserman–Faust improved formula networkx applies by default, exact for
    disconnected graphs.  Unlike the sampled betweenness (scores for all
    vertices from few traversals), closeness needs one traversal *per scored
    vertex*, so sampling scores only the sample.
    """
    n = graph.n
    src_ids = pick_sources(n, sources, seed)
    scores = np.zeros(n, dtype=np.float64)
    edges_scanned = 0
    levels = 0
    for s in src_ids.tolist():
        res = bfs(graph, s, ts_range=ts_range)
        edges_scanned += res.total_edges_scanned
        levels += res.n_levels
        reached = res.dist >= 0
        r = int(np.count_nonzero(reached))
        if r <= 1 or n <= 1:
            continue
        total = float(res.dist[reached].sum())  # includes dist[s] = 0
        scores[s] = ((r - 1) / total) * ((r - 1) / (n - 1))
    return CentralityResult(
        scores=scores,
        n_sources=int(src_ids.size),
        edges_scanned=edges_scanned,
        profile=_traversal_profile(name, graph, edges_scanned, levels, int(src_ids.size)),
        meta={"kind": "closeness", "ts_range": ts_range},
    )


def stress_centrality(
    graph: CSRGraph,
    *,
    sources: np.ndarray | int | None = None,
    seed=None,
    name: str = "stress",
) -> CentralityResult:
    """Stress centrality: absolute shortest-path counts through each vertex.

    Sum over ordered (s, t) pairs, matching this library's betweenness
    convention.  Sampling sources extrapolates by n / n_sources, as in the
    paper's approximate betweenness.
    """
    n = graph.n
    src_ids = pick_sources(n, sources, seed)
    scores = np.zeros(n, dtype=np.float64)
    edges_scanned = 0
    total_levels = 0
    for s in src_ids.tolist():
        sigma, level_arcs, levels, scanned = brandes_forward(graph, s)
        edges_scanned += scanned
        total_levels += levels
        # phi(v) = sum over DAG arcs (v, w) of (1 + phi(w)): the number of
        # shortest paths from v to every downstream target.  Then
        # sigma_st(v) summed over t is sigma_sv * phi(v).
        phi = np.zeros(n, dtype=np.float64)
        for v_sp, w_sp, _ in reversed(level_arcs):
            np.add.at(phi, v_sp, 1.0 + phi[w_sp])
        contribution = sigma * phi
        contribution[s] = 0.0
        scores += contribution

    if src_ids.size < n:
        scores *= n / src_ids.size
    return CentralityResult(
        scores=scores,
        n_sources=int(src_ids.size),
        edges_scanned=edges_scanned,
        profile=_traversal_profile(name, graph, edges_scanned, total_levels, int(src_ids.size)),
        meta={"kind": "stress"},
    )
