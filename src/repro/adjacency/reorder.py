"""Vertex reordering for locality (paper future work, section 4).

*"We intend to explore ... vertex and edge identifier reordering strategies
to improve cache performance."*  One classic strategy plus the metric to
judge it:

* **BFS order** — relabel vertices by a breadth-first visit from a
  high-degree root; neighbours land near each other, shrinking both gap
  sizes for :class:`~repro.adjacency.compressed.CompressedCSR` and the
  working distance of traversals.

``locality_gap`` quantifies the effect: the mean |u − v| over arcs, the
quantity gap-compression directly encodes.
"""

from __future__ import annotations

import numpy as np

from repro.adjacency.csr import CSRGraph
from repro.edgelist import EdgeList
from repro.errors import GraphError

__all__ = ["bfs_order", "apply_order", "locality_gap"]


def bfs_order(csr: CSRGraph, root: int | None = None) -> np.ndarray:
    """Permutation ``perm[old_id] = new_id`` from a BFS visit.

    Starts at ``root`` (default: the highest-degree vertex); vertices in
    other components are appended afterwards in repeated BFS sweeps from
    the lowest-id unvisited vertex.
    """
    # Imported here: repro.core.bfs consumes this package's CSR module, so a
    # top-level import would be circular.
    from repro.core.bfs import bfs

    n = csr.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if root is None:
        root = int(np.argmax(csr.degrees()))
    perm = np.full(n, -1, dtype=np.int64)
    next_id = 0
    start = root
    while next_id < n:
        res = bfs(csr, start)
        # visit order: by (distance, vertex id) — deterministic
        reached = res.reached()
        reached = reached[perm[reached] == -1]
        order = reached[np.lexsort((reached, res.dist[reached]))]
        for v in order.tolist():
            perm[v] = next_id
            next_id += 1
        if next_id >= n:
            break
        unvisited = np.nonzero(perm == -1)[0]
        if unvisited.size == 0:
            break
        start = int(unvisited[0])
    return perm


def apply_order(graph: EdgeList, perm: np.ndarray) -> EdgeList:
    """Relabel an edge list by ``perm[old_id] = new_id``."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (graph.n,):
        raise GraphError(f"permutation must have shape ({graph.n},)")
    check = np.sort(perm)
    if not np.array_equal(check, np.arange(graph.n)):
        raise GraphError("not a permutation of 0..n-1")
    from dataclasses import replace

    return replace(graph, src=perm[graph.src], dst=perm[graph.dst])


def locality_gap(graph: EdgeList) -> float:
    """Mean |u - v| over arcs — what gap compression pays for.

    Lower is better for both varint sizes and cache reuse.
    """
    if graph.m == 0:
        return 0.0
    return float(np.abs(graph.src - graph.dst).mean())
