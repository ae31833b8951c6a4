"""Chunked integer memory pool.

The paper (section 2.1.1): *"We implement our own memory management scheme by
allocating a large chunk of memory at the algorithm initiation, and then have
individual processors access this memory block in a thread-safe manner as
they require it. This avoids frequent system malloc calls."*

:class:`IntPool` is that allocator: one large int64 numpy array, bump-pointer
allocation, doubling growth.  Several parallel "columns" (adjacency targets,
time-stamps, weights) can share one pool's offsets by allocating from a
single pool and indexing sibling arrays kept the same length — see
:class:`repro.adjacency.dynarr.DynArrAdjacency`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

__all__ = ["IntPool"]


class IntPool:
    """Bump-pointer allocator over a growable int64 array.

    Allocation returns an *offset* into :attr:`data`; the pool fills
    nothing, so a block holds garbage until its owner writes it and growth
    touches only the prefix it copies.  Freed blocks are not recycled (the
    structures here only grow blocks, matching the paper's scheme where a resized adjacency array abandons its old block).  The
    pool tracks the abandoned footprint so space-overhead experiments can
    report it.
    """

    __slots__ = ("data", "used", "abandoned", "grow_events", "_columns")

    def __init__(self, capacity: int = 1024, columns: int = 1) -> None:
        if capacity <= 0:
            raise GraphError(f"pool capacity must be positive, got {capacity}")
        if columns < 1:
            raise GraphError(f"pool needs >= 1 column, got {columns}")
        self._columns = columns
        self.data = np.empty((columns, capacity), dtype=np.int64)
        self.used = 0
        self.abandoned = 0
        self.grow_events = 0

    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        """Currently reserved slots."""
        return int(self.data.shape[1])

    @property
    def columns(self) -> int:
        """Number of parallel int64 columns sharing the offsets."""
        return self._columns

    def column(self, i: int) -> np.ndarray:
        """View of column ``i`` (0 = primary / adjacency targets)."""
        return self.data[i]

    def alloc(self, size: int) -> int:
        """Reserve ``size`` slots; returns the block's starting offset.

        Grows the backing array by doubling until the request fits.  O(1)
        amortised; a grow event copies the live prefix once.
        """
        if size < 0:
            raise GraphError(f"allocation size must be >= 0, got {size}")
        if self.used + size > self.capacity:
            new_cap = self.capacity
            while self.used + size > new_cap:
                new_cap *= 2
            grown = np.empty((self._columns, new_cap), dtype=np.int64)
            grown[:, : self.used] = self.data[:, : self.used]
            self.data = grown
            self.grow_events += 1
        off = self.used
        self.used += size
        return off

    def alloc_many(self, sizes) -> np.ndarray:
        """Reserve many blocks at once; returns their starting offsets.

        Equivalent to ``[self.alloc(s) for s in sizes]`` — one bump of the
        pointer per block, in order — but with at most one growth of the
        backing array.  The ``used`` total (and therefore the final pool
        capacity, which doubles lazily from the peak) is identical to the
        loop, so footprint accounting is unaffected by batching.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size and int(sizes.min()) < 0:
            raise GraphError("allocation sizes must be >= 0")
        base = self.alloc(int(sizes.sum()))
        ends = np.cumsum(sizes)
        return base + ends - sizes

    def abandon(self, size: int) -> None:
        """Record that ``size`` previously allocated slots are now dead.

        Called when an adjacency array moves to a bigger block; the old
        block is never reused, only accounted.
        """
        if size < 0:
            raise GraphError(f"abandon size must be >= 0, got {size}")
        self.abandoned += size

    def memory_bytes(self) -> int:
        """Bytes reserved by the pool (all columns)."""
        return int(self.data.nbytes)

    def live_bytes(self) -> int:
        """Bytes of currently reachable blocks (used minus abandoned)."""
        return int((self.used - self.abandoned) * 8 * self._columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IntPool(capacity={self.capacity}, used={self.used}, "
            f"abandoned={self.abandoned}, columns={self._columns})"
        )
