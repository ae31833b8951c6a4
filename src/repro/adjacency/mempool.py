"""Chunked integer memory pool.

The paper (section 2.1.1): *"We implement our own memory management scheme by
allocating a large chunk of memory at the algorithm initiation, and then have
individual processors access this memory block in a thread-safe manner as
they require it. This avoids frequent system malloc calls."*

:class:`IntPool` is that allocator: one int64 numpy array, bump-pointer
allocation, doubling growth.  Several parallel "columns" (adjacency targets,
time-stamps, weights) can share one pool's offsets by allocating from a
single pool and indexing sibling arrays kept the same length — see
:class:`repro.adjacency.dynarr.DynArrAdjacency`.

A small pool grows by allocating an array twice the size and copying the
live prefix: glibc serves blocks below its largest mmap threshold (32 MiB)
from the heap, whose pages are already warm.  The first growth to
``_RESERVE_FLOOR_BYTES`` or more instead allocates the paper's large chunk,
one reservation of ``_RESERVE_SLOTS`` slots per column that costs address
space only until written, and copies the prefix into it once; from then on
:attr:`IntPool.data` is the view ``reservation[:, :capacity]`` and every
growth re-slices it, copying nothing and faulting in only the pages it
writes.  A reservation that cannot be allocated (``MemoryError``) or is
exhausted falls back to the copy.  The reservation lives only as
``data.base``, so pickling or deep-copying a pool carries ``capacity``
columns, never the reservation.  Capacity, growth events and every byte
count are the same on either path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

__all__ = ["IntPool"]

#: A growth to at least this many bytes (all columns) moves the pool into a
#: reservation; smaller pools grow by copying.
_RESERVE_FLOOR_BYTES = 32 << 20
#: Slots per column in a reservation (512 MiB of address space a column).
_RESERVE_SLOTS = 1 << 26


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

        Grows the capacity by doubling until the request fits; O(1)
        amortised.  Below ``_RESERVE_FLOOR_BYTES`` a grow event copies the
        live prefix into a new array.  The first growth past the floor
        copies it into a reservation of ``_RESERVE_SLOTS`` slots per
        column, and later growths re-slice that reservation without a copy;
        if it cannot be allocated or is exhausted, growth copies again.
        """
        if size < 0:
            raise GraphError(f"allocation size must be >= 0, got {size}")
        if self.used + size > self.capacity:
            new_cap = self.capacity
            while self.used + size > new_cap:
                new_cap *= 2
            self._grow(new_cap)
            self.grow_events += 1
        off = self.used
        self.used += size
        return off

    def _grow(self, new_cap: int) -> None:
        """Point :attr:`data` at ``new_cap`` slots holding the live prefix."""
        reserve = self.data.base
        if not (isinstance(reserve, np.ndarray) and reserve.shape[1] >= new_cap):
            reserve = self._reserve(new_cap)
            if reserve is None:
                reserve = np.empty((self._columns, new_cap), dtype=np.int64)
            reserve[:, : self.used] = self.data[:, : self.used]
        self.data = reserve[:, :new_cap]

    def _reserve(self, new_cap: int) -> np.ndarray | None:
        """A fresh reservation for a pool growing to ``new_cap`` slots, or
        None when it stays below the floor or would not fit."""
        if new_cap > _RESERVE_SLOTS or self._columns * new_cap * 8 < _RESERVE_FLOOR_BYTES:
            return None
        try:
            return np.empty((self._columns, _RESERVE_SLOTS), dtype=np.int64)
        except MemoryError:
            return None

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
