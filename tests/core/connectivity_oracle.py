"""Reference per-op connectivity maintenance, for tests only.

One update at a time, in stream order, as the library maintained the forest
before :meth:`ConnectivityIndex.apply_batch`: both arcs of every edge go to
the representation (the :func:`~repro.core.update_engine.apply_stream`
convention), an insert joining two trees links them, and a delete of the
last copy of a tree edge cuts it and searches for a replacement.  The
search finds the two sides of the cut by chasing *every* vertex to its root
(O(n · depth) per cut), then sweeps the smaller side (the child's on a tie)
in ascending order; the first vertex with an arc leaving it relinks through
its smallest outside neighbour.

``apply_batch`` must leave the same adjacency, the same parent array and
the same link / cut / replacement counts; only the search's scan work may
differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.linkcut import LinkCutForest


@dataclass
class OracleStats:
    inserts: int = 0
    deletes: int = 0
    delete_misses: int = 0
    tree_links: int = 0
    tree_cuts: int = 0
    replacements_found: int = 0
    parallel_edge_keeps: int = 0


def root_scan_replacement(forest: LinkCutForest, child: int, rep):
    """Cut above ``child``; relink through the first arc leaving the smaller
    side, found by a root scan over all ``n`` vertices."""
    old_parent = forest.cut(child)
    roots = forest.findroot_batch(np.arange(forest.n, dtype=np.int64))
    side_child = np.flatnonzero(roots == roots[child])
    side_parent = np.flatnonzero(roots == roots[old_parent])
    sweep = side_child if side_child.size <= side_parent.size else side_parent
    inside = np.zeros(forest.n, dtype=bool)
    inside[sweep] = True
    for x in sweep.tolist():
        nbrs = rep.neighbors(x)
        outside = nbrs[~inside[nbrs]]
        if outside.size:
            y = int(outside.min())
            forest.reroot(x)
            forest.link(x, y)
            return x, y
    return None


class PerOpConnectivity:
    """A forest kept spanning ``rep`` one update at a time."""

    def __init__(self, rep, forest: LinkCutForest | None = None) -> None:
        self.rep = rep
        self.forest = forest if forest is not None else LinkCutForest(rep.n)
        self.stats = OracleStats()

    def insert(self, u: int, v: int, ts: int = 0) -> bool:
        self.rep.insert(u, v, ts)
        self.rep.insert(v, u, ts)
        self.stats.inserts += 1
        linked = u != v and self.forest.add_edge(u, v)
        self.stats.tree_links += linked
        return linked

    def delete(self, u: int, v: int) -> bool:
        found = self.rep.delete(u, v)
        self.rep.delete(v, u)
        s, f = self.stats, self.forest
        if not found:
            s.delete_misses += 1
            return False
        s.deletes += 1
        if u == v:
            return True
        if f.parent[u] == v:
            child = u
        elif f.parent[v] == u:
            child = v
        else:
            return True
        if self.rep.has_arc(u, v):
            s.parallel_edge_keeps += 1
            return True
        s.tree_cuts += 1
        if root_scan_replacement(f, child, self.rep) is not None:
            s.replacements_found += 1
        return True

    def apply(self, stream) -> int:
        misses = 0
        for o, u, v, t in zip(stream.op.tolist(), stream.src.tolist(),
                              stream.dst.tolist(), stream.ts.tolist()):
            if o == 1:
                self.insert(u, v, t)
            elif not self.delete(u, v):
                misses += 1
        return misses
