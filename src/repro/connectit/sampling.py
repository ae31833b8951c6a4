"""Sampling phases for the sample-finish connectivity composition.

ConnectIt's central observation: on the scale-free graphs the paper
studies, one giant component holds almost every vertex, so a cheap
*sampling* pass that resolves most of that component lets the exact
*finish* pass skip the vast majority of union operations (it only touches
arcs whose endpoints the sample left in different trees).  Two strategies
are provided:

``kout``
    Union each vertex with its first ``k`` neighbours (k-out sampling).
    Exactly ``min(k, deg(v))`` union attempts per vertex — linear work,
    no traversal, and for small-world graphs already collapses the giant
    component to a handful of trees.

``bfs``
    Breadth-first search from the maximum-degree vertex, then bulk-hook
    every reached vertex directly under the source.  One parent write per
    reached vertex; the giant component becomes a star in one pass.  The
    traversal stops after :func:`bfs_level_bound` levels (``2 * ceil(log2
    n)``): one level costs a few numpy calls however narrow it is, so an
    unbounded sample of a long path would pay one level per vertex.  The
    vertices it did not reach stay singletons and the finish unions them,
    so the labels are exact either way.  On the scale-16 R-MAT graphs of
    the benchmark the hub's depth is 5-7 levels against a bound of 32.
    This is the default composition
    (:class:`~repro.connectit.framework.ConnectItSpec`).

``none`` skips sampling (the finish phase sees every arc): the named
unsampled baseline, which the :mod:`repro.experiments.ablations`
``connectit_matrix`` grid compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.core.bfs import bfs
from repro.core.frontier import gather_ranges
from repro.errors import GraphError

from repro.connectit.unionfind import UnionFind

__all__ = ["SAMPLING_RULES", "SampleStats", "bfs_level_bound", "run_sampling"]

#: Supported sampling strategies for the sample phase.
SAMPLING_RULES = ("none", "kout", "bfs")


@dataclass
class SampleStats:
    """What the sampling phase did (recorded into result meta).

    ``attempts`` is the number of union/hook operations the sample issued;
    ``giant_root`` / ``giant_fraction`` describe the largest tree the
    sample produced (the candidate giant component).
    """

    strategy: str
    attempts: int = 0
    giant_root: int = -1
    giant_fraction: float = 0.0
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe dict (for profile meta and reports)."""
        return {
            "strategy": self.strategy,
            "attempts": int(self.attempts),
            "giant_root": int(self.giant_root),
            "giant_fraction": float(self.giant_fraction),
            **self.meta,
        }


def bfs_level_bound(n: int) -> int:
    """Levels the ``bfs`` sample expands on ``n`` vertices: ``2 * ceil(log2 n)``."""
    return 2 * max(int(n) - 1, 0).bit_length()


def _kout_arcs(graph: CSRGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``min(k, deg(v))`` arcs of every vertex, vectorised."""
    offsets = graph.offsets
    degrees = np.diff(offsets)
    take = np.minimum(degrees, k)
    src = np.repeat(np.arange(graph.n, dtype=np.int64), take)
    idx, _ = gather_ranges(offsets[:-1], take)
    return src, graph.targets[idx]


def _fill_giant(uf: UnionFind, stats: SampleStats) -> None:
    """Record the largest sampled tree into ``stats``."""
    if uf.n == 0:
        return
    # Tree sizes by root id, no sort; the first maximum is the smallest root.
    counts = np.bincount(uf.flat_roots(), minlength=uf.n)
    top = int(np.argmax(counts))
    stats.giant_root = top
    stats.giant_fraction = float(counts[top]) / float(uf.n)


def run_sampling(graph: CSRGraph, uf: UnionFind, strategy: str, *, k: int = 2) -> SampleStats:
    """Run one sampling strategy over a *fresh* union-find structure.

    Returns the :class:`SampleStats` record; the resolved partition lives
    in ``uf``.  ``k`` only applies to ``kout``.
    """
    if strategy not in SAMPLING_RULES:
        raise GraphError(f"unknown sampling strategy {strategy!r}; available: {SAMPLING_RULES}")
    stats = SampleStats(strategy=strategy)
    if strategy == "none" or graph.n == 0:
        return stats
    if strategy == "kout":
        if k < 1:
            raise GraphError(f"k-out sampling needs k >= 1, got {k}")
        src, dst = _kout_arcs(graph, k)
        before = uf.counters.unions
        uf.union_arcs(src, dst)
        stats.attempts = uf.counters.unions - before
        stats.meta["k"] = int(k)
        _fill_giant(uf, stats)
        return stats
    # bfs: traverse from the max-degree vertex, bulk-hook everything reached.
    degrees = np.diff(graph.offsets)
    source = int(np.argmax(degrees))
    bound = bfs_level_bound(graph.n)
    res = bfs(graph, source, max_levels=bound)
    reached = res.reached()
    others = reached[reached != source]
    stats.attempts = uf.bulk_hook(others, source)
    levels = res.n_levels - 1  # the last recorded level is the one not expanded
    stats.meta["source"] = source
    stats.meta["bfs_levels"] = levels
    stats.meta["bfs_cut"] = levels == bound and _arcs_leave(graph, res.dist, levels)
    stats.giant_root = source
    stats.giant_fraction = float(res.n_reached) / float(graph.n)
    return stats


def _arcs_leave(graph: CSRGraph, dist: np.ndarray, level: int) -> bool:
    """Whether an arc of a vertex at ``level`` reaches a vertex not reached."""
    frontier = np.flatnonzero(dist == level)
    starts = graph.offsets[frontier]
    idx, _ = gather_ranges(starts, graph.offsets[frontier + 1] - starts)
    return bool((dist[graph.targets[idx]] < 0).any())
