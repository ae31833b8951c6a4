"""Deterministic random-number management.

Every stochastic component in the library (R-MAT sampling, time-stamp
assignment, update-stream shuffling, treap priorities) takes an explicit seed
or :class:`numpy.random.Generator`.  The helpers here centralise construction
so that:

* a single experiment seed reproducibly derives independent per-component
  streams (via :func:`mix_seed`), and
* tests can assert bit-identical outputs across runs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

__all__ = ["DEFAULT_SEED", "make_rng", "mix_seed", "pick_sources"]

#: Seed used throughout examples and benchmarks when the caller does not care.
DEFAULT_SEED = 20090525  # IPDPS 2009 opening day.


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator`.

    Accepts an integer seed, an existing generator (returned unchanged, so
    callers can thread one generator through a pipeline), or ``None`` for the
    library default seed.  Unlike ``np.random.default_rng``, ``None`` maps to
    :data:`DEFAULT_SEED` rather than OS entropy — reproducibility is the
    default in this library, and callers that want entropy must ask for it
    explicitly by passing their own generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def mix_seed(seed: int, *components: int | str) -> int:
    """Combine a base seed with component tags into a new 63-bit seed.

    Deterministic and order-sensitive.  Used to derive, e.g., the time-stamp
    stream seed from the topology seed without the two being correlated.
    """
    with np.errstate(over="ignore"):
        h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * np.uint64(0x9E3779B97F4A7C15)
        for c in components:
            if isinstance(c, str):
                c = int.from_bytes(c.encode("utf-8")[:8].ljust(8, b"\0"), "little")
            h = (h ^ np.uint64(c & 0xFFFFFFFFFFFFFFFF)) * np.uint64(0xBF58476D1CE4E5B9)
            h ^= h >> np.uint64(31)
    return int(h & np.uint64(0x7FFFFFFFFFFFFFFF))


def pick_sources(n: int, sources, seed: int | np.random.Generator | None = None) -> np.ndarray:
    """Source vertices of a multi-source kernel over ``n`` vertices.

    ``sources`` is None (every vertex), an integer sample size k (k distinct
    vertices drawn uniformly from ``make_rng(seed)``, ascending — the
    paper's sampled betweenness) or an array of explicit ids, returned as
    given after a range check.
    """
    if sources is None:
        return np.arange(n, dtype=np.int64)
    if np.isscalar(sources):
        k = int(sources)
        if not 0 < k <= n:
            raise GraphError(f"source sample size must be in [1, {n}], got {k}")
        return np.sort(make_rng(seed).choice(n, size=k, replace=False)).astype(np.int64)
    src = np.asarray(sources, dtype=np.int64)
    if src.size and (src.min() < 0 or src.max() >= n):
        raise GraphError("source ids out of range")
    return src
