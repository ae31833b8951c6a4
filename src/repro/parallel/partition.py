"""Deterministic work partitioning for the process backend.

The paper's update partitioning schemes (section 2.1.3) assign work to
threads by *vertex ownership* (:mod:`repro.adjacency.vpart`) or by
*splitting edge work* across threads (:mod:`repro.adjacency.epart`).  The
process backend splits edge work, as pure, deterministic index arithmetic:

* :func:`range_chunks` — contiguous equal-count ranges (edge/arc
  partitioning, the Epart spirit: one hot vertex's arcs may span chunks);
* :func:`weighted_chunks` — contiguous ranges balanced by a per-item weight
  (frontier vertices weighted by degree, so one high-degree vertex cannot
  serialise a BFS level's partner chunks — the paper's unbalanced-degree
  optimisation at partition granularity).

Determinism matters doubly here: partitions must be reproducible run to run
(profiles and traces are compared across commits), and the drivers in this
package merge partial results *in chunk order* so that the merged output is
bit-identical to the serial kernel regardless of worker count.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParallelError

__all__ = ["range_chunks", "weighted_chunks"]


def range_chunks(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` contiguous chunks.

    Chunk sizes differ by at most one; empty chunks are dropped, so fewer
    than ``parts`` chunks come back when ``total < parts``.
    """
    if parts <= 0:
        raise ParallelError(f"partition count must be positive, got {parts}")
    if total < 0:
        raise ParallelError(f"cannot partition a negative range ({total})")
    bounds = np.linspace(0, total, num=min(parts, max(total, 1)) + 1, dtype=np.int64)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def weighted_chunks(weights: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Split ``range(len(weights))`` into contiguous weight-balanced chunks.

    Boundary ``i`` of chunk ``k`` is the first index whose weight prefix sum
    reaches ``k/parts`` of the total — ``np.searchsorted`` over the prefix
    sum, so the split is deterministic and O(len + parts log len).  Items
    with zero weight ride along with their neighbours; a single item is
    never split (its whole weight lands in one chunk).
    """
    if parts <= 0:
        raise ParallelError(f"partition count must be positive, got {parts}")
    w = np.asarray(weights, dtype=np.int64)
    n = int(w.size)
    if n == 0:
        return []
    if np.any(w < 0):
        raise ParallelError("partition weights must be non-negative")
    total = int(w.sum())
    if total == 0:
        return range_chunks(n, parts)
    prefix = np.cumsum(w)
    targets = (np.arange(1, parts, dtype=np.int64) * total) // parts
    cuts = np.searchsorted(prefix, targets, side="left") + 1
    bounds = np.concatenate(([0], cuts, [n]))
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
