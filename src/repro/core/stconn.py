"""st-connectivity via bidirectional BFS (paper section 1, citing [4]).

Expands the smaller frontier from each endpoint alternately until the two
searches meet — for small-world graphs this touches far fewer edges than a
full single-source BFS, which is why the paper lists st-connectivity among
its fundamental kernels.  Optionally time-stamp filtered like
:func:`repro.core.bfs.bfs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.frontier import expand
from repro.errors import VertexError
from repro.machine.profile import Phase, WorkProfile

__all__ = ["STConnResult", "st_connectivity"]


@dataclass(frozen=True)
class STConnResult:
    """Outcome of one bidirectional search."""

    connected: bool
    distance: int  # -1 when disconnected
    edges_scanned: int
    levels: int
    profile: WorkProfile
    meta: dict = field(default_factory=dict)


def _expand(frontier, offsets, targets, ts, ts_range, dist, slot, level):
    """One BFS level; returns (new_frontier, edges_scanned)."""
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    new, _ = expand(frontier, starts, counts, targets, dist, slot, ts, ts_range)
    dist[new] = level
    new.sort()
    return new, int(counts.sum())


def st_connectivity(
    graph: CSRGraph,
    s: int,
    t: int,
    *,
    ts_range: tuple[int, int] | None = None,
    name: str = "st-connectivity",
) -> STConnResult:
    """Decide whether a path connects ``s`` and ``t`` (and its hop length).

    Bidirectional: the search with the smaller pending frontier advances
    each round.  ``distance`` is exact for the unfiltered search; with a
    time-stamp filter it is the hop length of a path whose every edge lies
    in the interval (not a temporal-ordering path — see
    :mod:`repro.core.betweenness` for those).
    """
    for v, label in ((s, "s"), (t, "t")):
        if not 0 <= v < graph.n:
            raise VertexError(f"{label}={v} out of range [0, {graph.n})")
    if ts_range is not None and graph.ts is None:
        raise VertexError("graph has no time-stamps; cannot filter by ts_range")

    footprint = float(graph.memory_bytes() + 16 * graph.n)
    phases: list[Phase] = []
    meta = {"s": s, "t": t, "n": graph.n}

    if s == t:
        profile = WorkProfile(name, (Phase("trivial", footprint_bytes=footprint),), meta)
        return STConnResult(True, 0, 0, 0, profile, meta)

    dist_s = np.full(graph.n, -1, dtype=np.int64)
    dist_t = np.full(graph.n, -1, dtype=np.int64)
    dist_s[s] = 0
    dist_t[t] = 0
    slot = np.empty(graph.n, dtype=np.int64)  # scratch shared by both searches
    frontier_s = np.array([s], dtype=np.int64)
    frontier_t = np.array([t], dtype=np.int64)
    level_s = level_t = 0
    scanned = 0
    rounds = 0

    def _phase(n_edges: int, n_vertices: int) -> Phase:
        return Phase(
            name=f"expand{rounds}",
            alu_ops=8.0 * n_edges + 6.0 * n_vertices,
            rand_accesses=float(n_edges + n_vertices),
            seq_bytes=(16.0 if ts_range is not None else 8.0) * n_edges,
            footprint_bytes=footprint,
            barriers=2.0,
        )

    connected = False
    distance = -1
    while frontier_s.size and frontier_t.size:
        rounds += 1
        if frontier_s.size <= frontier_t.size:
            level_s += 1
            frontier_s, e = _expand(
                frontier_s, graph.offsets, graph.targets, graph.ts, ts_range, dist_s, slot, level_s
            )
            scanned += e
            phases.append(_phase(e, frontier_s.size))
            meet = frontier_s[dist_t[frontier_s] >= 0] if frontier_s.size else frontier_s
        else:
            level_t += 1
            frontier_t, e = _expand(
                frontier_t, graph.offsets, graph.targets, graph.ts, ts_range, dist_t, slot, level_t
            )
            scanned += e
            phases.append(_phase(e, frontier_t.size))
            meet = frontier_t[dist_s[frontier_t] >= 0] if frontier_t.size else frontier_t
        if meet.size:
            connected = True
            distance = int((dist_s[meet] + dist_t[meet]).min())
            break

    if not phases:
        phases.append(Phase("expand0", footprint_bytes=footprint))
    profile = WorkProfile(name, tuple(phases), {**meta, "edges_scanned": scanned})
    return STConnResult(connected, distance, scanned, rounds, profile, meta)
