"""Hot-spot and load-imbalance statistics.

Section 2.1.1 of the paper identifies two parallel-performance hazards for
update streams on power-law graphs: many threads atomically incrementing the
same high-degree vertex's counter, and the load imbalance caused by one
vertex owning a large share of the updates.  Both effects are *measured* here
from the actual streams/structures and carried in the work profile
(``atomic_max_addr`` / ``max_unit_frac``), rather than assumed.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import as_index_array

__all__ = ["effective_parallelism", "windowed_hot_stats"]


def windowed_hot_stats(keys, window: int) -> tuple[int, float]:
    """Peak single-key count within any contiguous window of the stream.

    Models the *time-localised* contention the paper's shuffling remedy
    targets (section 2.1.1): "a stream of contiguous insertions
    corresponding to adjacencies of one vertex" makes every thread fight
    over one counter *right now*, even if the vertex's global share of the
    stream is modest.  Returns ``(max_in_window, max_in_window / window)``.

    The window should be on the order of the number of updates in flight
    across the machine at once (e.g. ``len(stream) // n_threads`` for
    chunk-scheduled loops).
    """
    arr = as_index_array(keys, "keys")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if arr.size == 0:
        return 0, 0.0
    window = min(window, arr.size)
    worst = 0
    # Slide in half-window hops: every burst of length >= window/2 is seen
    # whole in at least one inspected window, so the estimate is within 2x
    # while staying O(n) instead of O(n * window).
    step = max(1, window // 2)
    for start in range(0, arr.size, step):
        chunk = arr[start : start + window]
        if chunk.size:
            _, counts = np.unique(chunk, return_counts=True)
            worst = max(worst, int(counts.max()))
    return worst, worst / window


def effective_parallelism(p: int, max_unit_frac: float) -> float:
    """Threads that can be kept busy given the largest indivisible unit.

    With one unit owning fraction ``f`` of the work, the phase cannot finish
    faster than that unit runs on one thread, so speedup is capped at
    ``1/f``; below the cap, all ``p`` threads are effective.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if not 0.0 <= max_unit_frac <= 1.0:
        raise ValueError(f"max_unit_frac must be in [0,1], got {max_unit_frac}")
    if max_unit_frac == 0.0:
        return float(p)
    return float(min(p, 1.0 / max_unit_frac))
