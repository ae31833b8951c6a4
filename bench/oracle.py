"""Independent reference answers, computed by scipy from plain edge arrays.

Nothing here imports ``repro``: the net edge set of a stream is rebuilt
from the harness's own copy of the input, so a bug shared by every
representation still shows.
"""

from __future__ import annotations

import numpy as np

try:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components, dijkstra
except ImportError as exc:  # scipy is in the repo's [test] extra, not a runtime dependency
    raise SystemExit(f"bench: the reference answers need scipy (pip install 'repro[test]'): {exc}")


def _undirected_key(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    return np.minimum(src, dst) * np.int64(n) + np.maximum(src, dst)


def net_edges(n: int, op, src, dst, base=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct undirected edges left after a stream (``op`` +1/-1) on ``base``.

    Multiplicities are tracked, so deleting one copy of a doubled edge
    leaves the edge in place, as every representation does.
    """
    keys = _undirected_key(n, np.asarray(src, np.int64), np.asarray(dst, np.int64))
    sign = np.asarray(op, np.int64)
    if base is not None:
        base_keys = _undirected_key(n, *base)
        keys = np.concatenate([base_keys, keys])
        sign = np.concatenate([np.ones(base_keys.size, np.int64), sign])
    uniq, inverse = np.unique(keys, return_inverse=True)
    count = np.bincount(inverse, weights=sign, minlength=uniq.size)
    if (count < 0).any():
        raise ValueError("stream deletes an edge more often than it was inserted")
    live = uniq[count > 0]
    return live // n, live % n


def _matrix(n: int, u: np.ndarray, v: np.ndarray):
    return coo_matrix((np.ones(u.size, np.int8), (u, v)), shape=(n, n)).tocsr()


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Canonical labels: every vertex carries its component's smallest id."""
    _, comp = connected_components(_matrix(n, u, v), directed=False)
    smallest = np.full(int(comp.max()) + 1 if n else 0, n, np.int64)
    np.minimum.at(smallest, comp, np.arange(n, dtype=np.int64))
    return smallest[comp]


def bfs_distances(n: int, u: np.ndarray, v: np.ndarray, source: int) -> np.ndarray:
    """Hop distances from ``source``; -1 for unreachable vertices."""
    dist = dijkstra(_matrix(n, u, v), directed=False, unweighted=True, indices=source)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)
