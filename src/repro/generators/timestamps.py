"""Edge time-stamp assignment.

The paper assigns uniform random integer time-stamps to edges for its
experimental study (section 1.2): λ(e) ∈ [lo, hi].  Figure 9 uses [1, 100],
Figure 11 uses [0, 20].
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.util.seeding import make_rng

__all__ = ["uniform_timestamps"]


def uniform_timestamps(
    m: int,
    lo: int,
    hi: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw ``m`` integer time labels uniformly from ``[lo, hi]`` inclusive.

    Labels must be non-negative per the temporal-network definition
    (Kempe et al., paper section 2).
    """
    if m < 0:
        raise GraphError(f"count must be >= 0, got {m}")
    if lo < 0:
        raise GraphError(f"time labels must be non-negative, got lo={lo}")
    if hi < lo:
        raise GraphError(f"empty time range [{lo}, {hi}]")
    rng = make_rng(seed)
    return rng.integers(lo, hi + 1, size=m, dtype=np.int64)
