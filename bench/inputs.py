"""Mixed-update inputs: one recipe for batch_mixed and both served workloads.

The served child and its parent each call this with the same seed and get
the same arrays, which is how the parent can replay what the child applied.
"""

from __future__ import annotations

import numpy as np

from repro.generators import iter_batches, mixed_stream, rmat_graph

EDGE_FACTOR = 8


def mixed_inputs(seed: int, scale: int, n_batches: int, batch_size: int):
    """(base edge list, update batches) for one seed.

    Inserts are fresh R-MAT edges and deletes name distinct base edges, so
    no update misses.  ``n_batches == 0`` gives the static graph alone.
    """
    base = rmat_graph(scale, EDGE_FACTOR, seed=seed)
    if not n_batches:
        return base, []
    fresh = rmat_graph(scale, 2 * EDGE_FACTOR, seed=seed + 1)
    stream = mixed_stream(
        base, n_batches * batch_size, 0.75, seed + 2,
        insert_edges=fresh, delete_mode="existing",
    )
    return base, list(iter_batches(stream, batch_size))


def stream_arrays(batches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(op, src, dst)`` of the batches end to end: the oracle's view of them."""
    if not batches:
        return (np.empty(0, np.int64),) * 3
    return tuple(np.concatenate([getattr(b, f) for b in batches]) for f in ("op", "src", "dst"))
