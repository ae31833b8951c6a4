"""MUPS (Millions of Updates Per Second) arithmetic.

The paper reports structural-update performance as a MUPS rate: the number of
edge insertions/deletions processed divided by execution time, in millions.
These helpers keep the arithmetic (and its edge cases) in one audited place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["mups", "updates_per_second", "speedup_series"]


def updates_per_second(n_updates: int, seconds: float) -> float:
    """Raw updates/second rate; raises on non-positive time."""
    if seconds <= 0:
        raise ValueError(f"elapsed time must be positive, got {seconds}")
    if n_updates < 0:
        raise ValueError(f"update count must be non-negative, got {n_updates}")
    return n_updates / seconds


def mups(n_updates: int, seconds: float) -> float:
    """Millions of updates per second, the paper's headline metric."""
    return updates_per_second(n_updates, seconds) / 1e6


def speedup_series(times: Sequence[float]) -> np.ndarray:
    """Parallel speedup relative to the first entry: ``times[0] / times[i]``.

    The convention throughout the experiment harness is that ``times[0]`` is
    the single-thread time, so the returned array starts at exactly 1.0.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if np.any(t <= 0):
        raise ValueError("all times must be positive")
    return t[0] / t
