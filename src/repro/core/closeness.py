"""Closeness and stress centrality (paper section 3.4's metric family).

The paper names closeness, stress and betweenness as the well-known
centrality indices; betweenness gets the full treatment in
:mod:`repro.core.betweenness`, and this module completes the family:

* **closeness** — BFS-based, with the Wasserman–Faust component correction
  (the convention networkx uses, which the tests validate against), and the
  same time-stamp filtering hook as every traversal kernel here;
* **stress** — Brandes-style accumulation of *absolute* shortest-path
  counts: stress(v) = Σ_{s≠v≠t} σ_st(v).  The backward pass accumulates
  φ(v) = Σ_{w ∈ succ(v)} (1 + φ(w)) over the shortest-path DAG and adds
  σ_sv · φ(v) per source (validated against exhaustive path enumeration).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.bfs import bfs
from repro.core.frontier import gather_ranges
from repro.errors import GraphError
from repro.machine.profile import Phase, WorkProfile
from repro.util.seeding import make_rng

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


def _pick_sources(n: int, sources, seed) -> np.ndarray:
    if sources is None:
        return np.arange(n, dtype=np.int64)
    if np.isscalar(sources):
        k = int(sources)
        if not 0 < k <= n:
            raise GraphError(f"source sample size must be in [1, {n}], got {k}")
        rng = make_rng(seed)
        return np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    src = np.asarray(sources, dtype=np.int64)
    if src.size and (src.min() < 0 or src.max() >= n):
        raise GraphError("source ids out of range")
    return src


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
    src_ids = _pick_sources(n, sources, seed)
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
    src_ids = _pick_sources(n, sources, seed)
    offsets, targets = graph.offsets, graph.targets
    scores = np.zeros(n, dtype=np.float64)
    edges_scanned = 0
    total_levels = 0
    for s in src_ids.tolist():
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        dist[s] = 0
        sigma[s] = 1.0
        frontier = np.array([s], dtype=np.int64)
        level = 0
        level_arcs: list[tuple[np.ndarray, np.ndarray]] = []
        while frontier.size:
            starts = offsets[frontier]
            counts = offsets[frontier + 1] - starts
            total = int(counts.sum())
            edges_scanned += total
            if total == 0:
                break
            idx, _ = gather_ranges(starts, counts)
            v_arr = np.repeat(frontier, counts)
            w_arr = targets[idx]
            fresh = w_arr[dist[w_arr] < 0]
            if fresh.size:
                fresh = np.unique(fresh)
                dist[fresh] = level + 1
            on_sp = dist[w_arr] == level + 1
            v_sp, w_sp = v_arr[on_sp], w_arr[on_sp]
            if v_sp.size:
                np.add.at(sigma, w_sp, sigma[v_sp])
                level_arcs.append((v_sp, w_sp))
            frontier = fresh
            level += 1
        total_levels += level
        # phi(v) = sum over DAG arcs (v, w) of (1 + phi(w)): the number of
        # shortest paths from v to every downstream target.  Then
        # sigma_st(v) summed over t is sigma_sv * phi(v).
        phi = np.zeros(n, dtype=np.float64)
        for v_sp, w_sp in reversed(level_arcs):
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
