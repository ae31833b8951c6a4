"""Reference per-op connectivity maintenance, for tests only.

One update at a time, in stream order: both arcs of every edge go to the
representation (the :func:`~repro.core.update_engine.apply_stream`
convention), an insert joining two trees links them, and a delete of the
last copy of a tree edge cuts it and relinks through any arc leaving the
child's side, found by chasing every vertex to its root (O(n · depth) per
cut).

``apply_batch`` must leave the same adjacency, the same insert / delete /
miss counts and a forest with the same trees; which spanning forest it is
may differ.
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


def root_scan_replacement(forest: LinkCutForest, child: int, rep) -> None:
    """Cut above ``child``; relink through an arc leaving its side."""
    forest.cut(child)
    roots = forest.findroot_batch(np.arange(forest.n, dtype=np.int64))
    inside = roots == roots[child]
    for x in np.flatnonzero(inside).tolist():
        nbrs = rep.neighbors(x)
        outside = nbrs[~inside[nbrs]]
        if outside.size:
            forest.reroot(x)
            forest.link(x, int(outside[0]))
            return


class PerOpConnectivity:
    """A forest kept spanning ``rep`` one update at a time."""

    def __init__(self, rep) -> None:
        self.rep = rep
        self.forest = LinkCutForest(rep.n)
        self.stats = OracleStats()

    def insert(self, u: int, v: int, ts: int = 0) -> None:
        self.rep.insert(u, v, ts)
        self.rep.insert(v, u, ts)
        self.stats.inserts += 1
        if u != v:
            self.forest.add_edge(u, v)

    def delete(self, u: int, v: int) -> bool:
        found = self.rep.delete(u, v)
        self.rep.delete(v, u)
        if not found:
            self.stats.delete_misses += 1
            return False
        self.stats.deletes += 1
        parent = self.forest.parent
        if (parent[u] == v or parent[v] == u) and not self.rep.has_arc(u, v):
            root_scan_replacement(self.forest, u if parent[u] == v else v, self.rep)
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
