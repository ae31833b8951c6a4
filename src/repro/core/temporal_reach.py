"""Temporal reachability: earliest-arrival analysis (Kempe et al. semantics).

The paper adopts Kempe, Kleinberg & Kumar's temporal-network model
(section 2) and builds path queries that respect time ordering
(section 3.4).  This kernel answers the companion question the model makes
natural: *from a source s, what is the earliest time label by which each
vertex can be reached along a label-increasing path?*

The algorithm is the classic one-pass edge-scan: process edges grouped by
ascending time label; within a group, an arc (u, v, t) extends reachability
to v when u was reached strictly before t.  One pass, O(m log m) for the
sort then O(m) — each distinct label group is one parallel phase
(concurrent-min writes), which is also how the work profile counts it.
Strictness of the label comparison means two same-label edges can never
chain, matching the paper's temporal-path definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.edgelist import EdgeList
from repro.errors import GraphError, VertexError
from repro.machine.profile import Phase, WorkProfile
from repro.util.seeding import pick_sources

__all__ = [
    "TemporalReachResult",
    "earliest_arrival",
    "temporal_reachable_set",
    "temporal_closeness",
]

_UNREACHED = np.iinfo(np.int64).max


@dataclass(frozen=True)
class TemporalReachResult:
    """Earliest arrival labels from one source.

    ``arrival[v]`` is the smallest final edge label of any label-increasing
    path from the source to v (``t_start - 1`` for the source itself, i.e.
    "already there"); unreached vertices hold ``UNREACHED``.
    """

    source: int
    arrival: np.ndarray
    t_start: int
    edge_groups: int
    edges_scanned: int
    profile: WorkProfile
    meta: dict = field(default_factory=dict)

    UNREACHED = _UNREACHED

    def reached(self) -> np.ndarray:
        """Vertex ids temporally reachable from the source (incl. itself)."""
        return np.nonzero(self.arrival < _UNREACHED)[0]

    @property
    def n_reached(self) -> int:
        return int(np.count_nonzero(self.arrival < _UNREACHED))

    def reachable(self, v: int) -> bool:
        if not 0 <= v < self.arrival.size:
            raise VertexError(f"vertex {v} out of range")
        return bool(self.arrival[v] < _UNREACHED)


def earliest_arrival(
    edges: EdgeList,
    source: int,
    *,
    t_start: int = 0,
    symmetrize: bool | None = None,
    name: str = "earliest-arrival",
) -> TemporalReachResult:
    """Earliest arrival labels from ``source`` over a temporal edge list.

    ``t_start`` is the time the source becomes active: only edges with
    label >= ``t_start`` participate, and the first edge of a path needs
    label >= ``t_start`` (subsequent edges must strictly increase).
    """
    if edges.ts is None:
        raise GraphError("earliest_arrival needs time-stamped edges")
    if not 0 <= source < edges.n:
        raise VertexError(f"source {source} out of range [0, {edges.n})")
    if symmetrize is None:
        symmetrize = not edges.directed
    arcs = edges.symmetrized() if symmetrize else edges
    src, dst, ts = arcs.src, arcs.dst, arcs.timestamps()

    keep = ts >= t_start
    src, dst, ts = src[keep], dst[keep], ts[keep]
    order = np.argsort(ts, kind="stable")
    src, dst, ts = src[order], dst[order], ts[order]

    arrival = np.full(edges.n, _UNREACHED, dtype=np.int64)
    arrival[source] = t_start - 1  # "present from the start"

    phases: list[Phase] = []
    footprint = float(edges.memory_bytes() + arrival.nbytes)
    groups = 0
    scanned = 0
    if ts.size:
        labels, starts = np.unique(ts, return_index=True)
        bounds = np.append(starts, ts.size)
        for gi, t in enumerate(labels.tolist()):
            lo, hi = int(bounds[gi]), int(bounds[gi + 1])
            u = src[lo:hi]
            v = dst[lo:hi]
            usable = arrival[u] < t  # strict increase
            groups += 1
            scanned += hi - lo
            if np.any(usable):
                np.minimum.at(arrival, v[usable], t)
            phases.append(
                Phase(
                    name=f"label{t}",
                    alu_ops=8.0 * (hi - lo),
                    rand_accesses=2.0 * (hi - lo),
                    seq_bytes=24.0 * (hi - lo),
                    footprint_bytes=footprint,
                    atomics=float(np.count_nonzero(usable)),
                    barriers=1.0,
                )
            )
    if not phases:
        phases.append(Phase("empty", footprint_bytes=footprint))
    profile = WorkProfile(
        name,
        tuple(phases),
        meta={"n": edges.n, "m": edges.m, "source": source, "t_start": t_start},
    )
    return TemporalReachResult(
        source=source,
        arrival=arrival,
        t_start=t_start,
        edge_groups=groups,
        edges_scanned=scanned,
        profile=profile,
    )


def temporal_reachable_set(
    edges: EdgeList, source: int, *, t_start: int = 0, **kwargs
) -> np.ndarray:
    """Convenience wrapper: the set of temporally reachable vertices."""
    return earliest_arrival(edges, source, t_start=t_start, **kwargs).reached()


def temporal_closeness(
    edges: EdgeList,
    sources=None,
    *,
    t_start: int = 0,
    seed=None,
) -> np.ndarray:
    """Harmonic temporal closeness of the source vertices.

    For source s, ``Σ_v 1 / (arrival(v) - t_start + 1)`` over temporally
    reachable v ≠ s: entities that can influence many others *quickly* in
    time-respecting order score high.  Harmonic form handles unreachable
    vertices naturally (contribution 0) — the standard convention for
    temporal closeness in the temporal-network literature built on the
    Kempe et al. model the paper adopts.

    ``sources`` follows the usual convention: None = all (O(n·m log m)),
    an int = a uniform sample, an array = explicit ids.  Returns an array
    of length n with zeros at unscored vertices.
    """
    n = edges.n
    src_ids = pick_sources(n, sources, seed)
    scores = np.zeros(n, dtype=np.float64)
    for s in src_ids.tolist():
        res = earliest_arrival(edges, s, t_start=t_start)
        reached = res.reached()
        reached = reached[reached != s]
        if reached.size:
            scores[s] = float(
                (1.0 / (res.arrival[reached] - t_start + 1.0)).sum()
            )
    return scores
