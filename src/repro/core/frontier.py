"""The frontier step of a level-synchronous traversal, written once.

Every traversal here flattens its frontier's adjacency ranges into one index
array (:func:`gather_ranges`); the BFS family then gives each newly reached
vertex the first arc that reached it in that order (:func:`first_occurrence`)
by a priority write, never by sorting the candidate arcs — a level stays
O(arcs scanned), the paper's "optimal O(n + m) work" (section 3.3).
:func:`expand` composes the two into one top-down ("push") BFS level.

:func:`pull` is the bottom-up level of a direction-optimizing BFS (GBBS):
every unvisited vertex looks among its own arcs for a neighbour on the
frontier, and takes the smallest.  On a symmetric graph that is the vertex
``expand`` elects over an ascending frontier, so the two steps commit the
same parents; a pull pays off on the wide middle levels, where the
unvisited vertices hold fewer arcs than the frontier does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gather_ranges", "first_occurrence", "expand", "pull"]


def gather_ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat slot index of every element of the ranges ``[start, start + count)``.

    Returns ``(idx, ends)`` with ``ends = cumsum(counts)``: flat position
    ``p`` belongs to range ``searchsorted(ends, p, "right")`` (zero-length
    ranges are skipped), so no per-slot owner array is ever materialised.
    """
    ends = counts.cumsum()
    idx = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    idx += (starts - (ends - counts)).repeat(counts)
    return idx, ends


def first_occurrence(values: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Ascending positions at which each distinct value first occurs.

    The set ``np.unique(values, return_index=True)[1]``, left in position
    (discovery) order and found without sorting: ``np.minimum.at``, defined
    for repeated indices, elects the earliest position per value.  ``slot``
    is int64 scratch indexable by every value; its contents are ignored and
    only entries at ``values`` are written, so one allocation serves a whole
    traversal with no O(len(slot)) pass per call.
    """
    pos = np.arange(values.size, dtype=np.int64)
    slot[values] = values.size
    np.minimum.at(slot, values, pos)
    return (slot[values] == pos).nonzero()[0]


def expand(
    frontier: np.ndarray, starts: np.ndarray, counts: np.ndarray, targets: np.ndarray,
    dist: np.ndarray, slot: np.ndarray,
    ts: np.ndarray | None = None, ts_range: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One BFS level: ``(new, owners)``, both in discovery order.

    ``new`` holds, once, each vertex with ``dist < 0`` reached by an arc of
    ``frontier`` (adjacency ranges ``starts``/``counts``; given ``ts`` and
    ``ts_range``, only arcs stamped inside that inclusive interval), and
    ``owners`` the frontier vertex of its first such arc in gather order.
    The caller commits ``dist``/``parent`` and sorts ``new`` into the next
    frontier; nothing here is O(n).
    """
    idx, ends = gather_ranges(starts, counts)
    nbrs = targets[idx]
    fresh = dist[nbrs] < 0
    if ts is not None and ts_range is not None:
        stamps = ts[idx]
        fresh &= (stamps >= ts_range[0]) & (stamps <= ts_range[1])
    keep = fresh.nonzero()[0]
    cand = nbrs[keep]
    first = first_occurrence(cand, slot)
    # Owners are looked up for the winning arcs only; ``keep[first]`` ascends,
    # which keeps the binary searches short.
    return cand[first], frontier[ends.searchsorted(keep[first], "right")]


def pull(
    level: int, dist: np.ndarray, offsets: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One bottom-up BFS level: ``(new, owners)``, both ascending in ``new``.

    ``new`` holds each vertex with ``dist < 0`` that has an arc to a vertex
    at distance ``level``, and ``owners`` the smallest such neighbour.  On a
    symmetric CSR this is :func:`expand` over the ascending frontier
    ``dist == level`` (the first arc in gather order comes from the smallest
    frontier vertex adjacent to ``v``), without ``ufunc.at`` or a sort: one
    gather of the unvisited vertices' arcs and one ``minimum.reduceat``.
    """
    cand = np.flatnonzero((dist < 0) & (offsets[1:] != offsets[:-1]))
    starts = offsets[cand]
    counts = offsets[cand + 1] - starts
    idx, ends = gather_ranges(starts, counts)
    nbrs = targets[idx]
    # A neighbour off the frontier masks to n, above every vertex id.
    best = np.minimum.reduceat(np.where(dist[nbrs] == level, nbrs, dist.size), ends - counts)
    hit = (best < dist.size).nonzero()[0]
    return cand[hit], best[hit]
