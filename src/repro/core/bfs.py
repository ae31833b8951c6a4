"""Level-synchronous parallel breadth-first search (paper section 3.3).

The paper's BFS is the level-synchronous PRAM algorithm of Bader & Madduri
(ICPP 2006): O(diameter) parallel phases and optimal O(n + m) work, with a
barrier per level and an unbalanced-degree optimisation that processes high-
and low-degree frontier vertices in separate balanced partitions.  For
dynamic graphs the paper augments the traversal with a time-stamp check —
edges outside the query's time interval are filtered during the visit, which
"requires no additional memory" (section 3.3, Figure 10).

The implementation here is frontier-vectorised: a top-down level is one
call of :func:`repro.core.frontier.expand` — gather all frontier
adjacencies with numpy index arithmetic, then give each new vertex the first
arc that reached it in gather order by a concurrent-min write, never by
sorting the candidate arcs — so a level is O(arcs scanned) work in O(1)
Python calls.  Each level is recorded as one simulated phase — frontier
width, edges scanned, heaviest frontier vertex — so the machine model sees
the true level structure (few wide levels for small-world graphs, which is
what makes the paper's Figure 10 scale).

The traversal is direction-optimizing, as in GBBS (Dhulipala, Blelloch &
Shun): on a symmetric snapshot (:attr:`CSRGraph.symmetric`) and without a
time-stamp filter, a level whose frontier holds more arcs than the
unvisited vertices do runs bottom-up (:func:`repro.core.frontier.pull`),
each unvisited vertex looking for its smallest frontier neighbour.  That is
the parent the top-down step elects, so results are identical either way,
and the per-level statistics keep the top-down convention (the frontier's
arcs); :attr:`BFSResult.arcs_touched` counts what the steps actually read.

:func:`level_loop` is the one level loop: serial :func:`bfs` runs it with
``expand`` as the step, the process backend
(:func:`repro.parallel.bfs.parallel_bfs`) with a pool fan-out, and the
link-cut forest build from all component roots at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.frontier import expand, pull
from repro.errors import VertexError
from repro.machine.profile import Phase, WorkProfile
from repro.obs import METRICS, manifest_meta, span

__all__ = ["BFSResult", "bfs", "bfs_profile", "level_loop", "pull_step"]

#: ALU ops per scanned edge: gather index arithmetic, visited test, branch.
_ALU_PER_EDGE = 8.0
#: ALU ops per frontier vertex: offset loads, degree computation.
_ALU_PER_VERTEX = 6.0


@dataclass
class BFSResult:
    """Distances, parents and per-level statistics of one traversal.

    ``dist[v] == -1`` means unreachable.  ``parent[source] == -1``.
    ``frontier_sizes[i]`` / ``edges_scanned[i]`` describe level i;
    ``max_frontier_degree[i]`` is the heaviest vertex expanded at level i
    (the load-imbalance driver when adjacency lists are not split).
    ``arcs_touched`` is what the level steps read: the frontier's arcs on a
    top-down level, the unvisited vertices' arcs on a bottom-up one.
    """

    source: int
    dist: np.ndarray
    parent: np.ndarray
    frontier_sizes: list[int] = field(default_factory=list)
    edges_scanned: list[int] = field(default_factory=list)
    max_frontier_degree: list[int] = field(default_factory=list)
    ts_range: tuple[int, int] | None = None
    arcs_touched: int = 0

    @property
    def n_levels(self) -> int:
        return len(self.frontier_sizes)

    @property
    def n_reached(self) -> int:
        return int(np.count_nonzero(self.dist >= 0))

    @property
    def total_edges_scanned(self) -> int:
        return int(sum(self.edges_scanned))

    def reached(self) -> np.ndarray:
        """Vertex ids reachable from the source (including it)."""
        return np.nonzero(self.dist >= 0)[0]


def bfs(
    graph: CSRGraph,
    source: int,
    *,
    ts_range: tuple[int, int] | None = None,
    max_levels: int | None = None,
) -> BFSResult:
    """Breadth-first search from ``source``.

    ``ts_range=(lo, hi)`` restricts the traversal to edges whose time label
    lies in the inclusive interval — the paper's "augmented BFS with a check
    for time-stamps".  ``max_levels`` optionally truncates the traversal
    (used by bounded-depth queries).
    """
    if not 0 <= source < graph.n:
        raise VertexError(f"source {source} out of range [0, {graph.n})")
    if ts_range is not None and graph.ts is None:
        raise VertexError("graph has no time-stamps; cannot filter by ts_range")

    targets, ts = graph.targets, graph.ts
    dist = np.full(graph.n, -1, dtype=np.int64)
    parent = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    slot = np.empty(graph.n, dtype=np.int64)  # scratch, touched only at candidates

    def step(frontier, starts, counts, total):
        return expand(frontier, starts, counts, targets, dist, slot, ts, ts_range)

    res = BFSResult(source=source, dist=dist, parent=parent, ts_range=ts_range)
    with span("core.bfs", source=int(source), n=graph.n, filtered=ts_range is not None) as sp:
        level_loop(res, np.array([source], dtype=np.int64), graph.offsets, step, max_levels,
                   pull_step(graph, dist, ts_range))
        sp.set(levels=res.n_levels, reached=res.n_reached,
               edges_scanned=res.total_edges_scanned, arcs_touched=res.arcs_touched)
    METRICS.inc("bfs.runs")
    METRICS.inc("bfs.levels", res.n_levels)
    METRICS.inc("bfs.edges_scanned", res.total_edges_scanned)
    METRICS.inc("bfs.arcs_touched", res.arcs_touched)
    return res


def pull_step(
    graph: CSRGraph, dist: np.ndarray, ts_range: tuple[int, int] | None = None
) -> Callable[[int], tuple[np.ndarray, np.ndarray]] | None:
    """The bottom-up step over ``dist``, or None where only top-down is exact.

    Pulling reads an unvisited vertex's own arcs in place of the frontier's
    arcs to it, so it needs a snapshot stamped symmetric and no time-stamp
    filter; every other traversal stays top-down.
    """
    if not graph.symmetric or ts_range is not None:
        return None
    return lambda level: pull(level, dist, graph.offsets, graph.targets)


def level_loop(
    res: BFSResult,
    frontier: np.ndarray,
    offsets: np.ndarray,
    step: Callable[[np.ndarray, np.ndarray, np.ndarray, int], tuple[np.ndarray, np.ndarray]],
    max_levels: int | None = None,
    pull: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None,
) -> int:
    """The level-synchronous loop from ``frontier``; returns the depth reached.

    ``res.dist`` / ``res.parent`` already hold the starting frontier at
    distance 0 (a multi-rooted traversal passes ``source=-1``).  Every level
    appends its width, scanned arcs and heaviest vertex to ``res``'s lists,
    then stops at ``max_levels`` or on a level that scans no arc; otherwise
    ``step(frontier, starts, counts, total)`` returns the level's
    ``(new, owners)`` in discovery order, as :func:`expand` does, and the
    loop commits them and sorts ``new`` into the next frontier.  The level
    that ends the traversal is recorded but reaches nothing.

    Given ``pull`` (see :func:`pull_step`), a level whose frontier holds
    more arcs than the vertices not yet reached runs ``pull(level)``
    instead; every vertex reached so far sat in exactly one frontier, so
    that remainder is the arc total less the running sum of scanned arcs.
    """
    level = 0
    remaining = int(offsets[-1])
    while frontier.size:
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        total = int(counts.sum())
        remaining -= total
        res.frontier_sizes.append(int(frontier.size))
        res.edges_scanned.append(total)
        res.max_frontier_degree.append(int(counts.max()))
        if total == 0 or (max_levels is not None and level >= max_levels):
            break
        if pull is not None and total > remaining:
            new, owners = pull(level)
            res.arcs_touched += remaining
        else:
            new, owners = step(frontier, starts, counts, total)
            res.arcs_touched += total
        if new.size == 0:
            break
        level += 1
        res.dist[new] = level
        res.parent[new] = owners
        new.sort()
        frontier = new
    return level


def bfs_profile(
    graph: CSRGraph,
    result: BFSResult,
    *,
    name: str = "bfs",
    degree_split: bool = True,
) -> WorkProfile:
    """Machine-independent work profile of a completed traversal.

    One phase per BFS level, each with two barriers (frontier swap + visit
    commit, as in the level-synchronous algorithm).  ``degree_split=True``
    models the paper's unbalanced-degree optimisation ([4, 5]): high-degree
    frontier vertices' adjacency lists are split across threads, so a level's
    load-imbalance cap comes only from residual per-chunk skew; with the
    optimisation off, one hub vertex can serialise an entire level.
    """
    footprint = float(graph.memory_bytes() + result.dist.nbytes + result.parent.nbytes)
    phases = []
    for i, (fsize, escan, maxdeg) in enumerate(
        zip(result.frontier_sizes, result.edges_scanned, result.max_frontier_degree)
    ):
        if degree_split or escan == 0:
            unit_frac = 0.0
        else:
            unit_frac = min(1.0, maxdeg / max(escan, 1))
        ts_alu = 2.0 * escan if result.ts_range is not None else 0.0
        phases.append(
            Phase(
                name=f"level{i}",
                alu_ops=_ALU_PER_EDGE * escan + _ALU_PER_VERTEX * fsize + ts_alu,
                # dist check + parent/dist writes are scattered over n.
                rand_accesses=float(escan + fsize),
                # adjacency blocks stream contiguously per frontier vertex
                # (8B target + 8B time-stamp when filtering).
                seq_bytes=(16.0 if result.ts_range is not None else 8.0) * escan,
                footprint_bytes=footprint,
                barriers=2.0,
                max_unit_frac=unit_frac,
            )
        )
    if not phases:
        phases.append(Phase(name="level0", footprint_bytes=footprint))
    return WorkProfile(
        name,
        tuple(phases),
        meta={
            "n": graph.n,
            "arcs": graph.n_arcs,
            "source": result.source,
            "levels": result.n_levels,
            "reached": result.n_reached,
            "degree_split": degree_split,
            **manifest_meta(),
        },
    )
