"""Reference BFS: the ``np.unique`` visit commit the kernels used to run.

Every level materialises the parent of every scanned arc and elects each
new vertex's parent with ``np.unique(nbrs, return_index=True)`` — a stable
sort of all candidate arcs, so the winner is the first arc reaching the
vertex in flattened gather order.  :mod:`repro.core.frontier` must
reproduce that election bit for bit; the suites and the host-kernel gate
compare against these functions.
"""

import numpy as np

from repro.core.bfs import BFSResult


def flatten_ranges(starts, counts):
    """Slot index of every element of the given ranges, from four repeats."""
    total = int(counts.sum())
    base = np.repeat(starts, counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    return base + offs


def unique_commit_level(frontier, offsets, targets, dist, ts=None, ts_range=None):
    """``(uniq, parents, counts)`` of one level: new vertices ascending."""
    starts = offsets[frontier]
    counts = offsets[frontier + 1] - starts
    idx = flatten_ranges(starts, counts)
    reps = np.repeat(frontier, counts)
    nbrs = targets[idx]
    if ts_range is not None:
        keep = (ts[idx] >= ts_range[0]) & (ts[idx] <= ts_range[1])
        nbrs, reps = nbrs[keep], reps[keep]
    unvisited = dist[nbrs] < 0
    nbrs, reps = nbrs[unvisited], reps[unvisited]
    uniq, first = np.unique(nbrs, return_index=True)
    return uniq, reps[first], counts


def unique_commit_bfs(graph, source, *, ts_range=None, max_levels=None):
    """:func:`repro.core.bfs.bfs` with the sort-based commit."""
    dist = np.full(graph.n, -1, dtype=np.int64)
    parent = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    res = BFSResult(source=source, dist=dist, parent=parent, ts_range=ts_range)
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        uniq, parents, counts = unique_commit_level(
            frontier, graph.offsets, graph.targets, dist, graph.ts, ts_range
        )
        res.frontier_sizes.append(int(frontier.size))
        res.edges_scanned.append(int(counts.sum()))
        res.max_frontier_degree.append(int(counts.max()))
        if (max_levels is not None and level >= max_levels) or uniq.size == 0:
            break
        level += 1
        dist[uniq] = level
        parent[uniq] = parents
        frontier = uniq
    return res


def unique_commit_forest(graph, roots):
    """``(parent, levels, max_depth, widths, arcs)`` of a multi-source BFS
    from ``roots``; ``widths[i]`` / ``arcs[i]`` are level i's frontier size
    and scanned arcs, for every level scanned."""
    dist = np.full(graph.n, -1, dtype=np.int64)
    parent = np.full(graph.n, -1, dtype=np.int64)
    dist[roots] = 0
    frontier = roots
    level = 0
    widths, arcs = [], []
    while frontier.size:
        uniq, parents, counts = unique_commit_level(frontier, graph.offsets, graph.targets, dist)
        widths.append(int(frontier.size))
        arcs.append(int(counts.sum()))
        if uniq.size == 0:
            break
        level += 1
        dist[uniq] = level
        parent[uniq] = parents
        frontier = uniq
    return parent, level, int(dist.max()) if graph.n else 0, widths, arcs


def assert_bfs_equal(expected, actual):
    """Whole-result equality: arrays and every per-level list."""
    np.testing.assert_array_equal(expected.dist, actual.dist)
    np.testing.assert_array_equal(expected.parent, actual.parent)
    assert expected.frontier_sizes == actual.frontier_sizes
    assert expected.edges_scanned == actual.edges_scanned
    assert expected.max_frontier_degree == actual.max_frontier_degree
