"""Chunked integer memory pool.

The paper (section 2.1.1): *"We implement our own memory management scheme by
allocating a large chunk of memory at the algorithm initiation, and then have
individual processors access this memory block in a thread-safe manner as
they require it. This avoids frequent system malloc calls."*

:class:`IntPool` is that allocator, kept as two ledgers:

* **Host memory** — one numpy array of ``columns`` rows, int32 until a value
  outside int32 arrives (:meth:`IntPool.fit`), then int64 for good, widened
  once with one copy.  Several parallel "columns" (adjacency targets,
  time-stamps) share one pool's offsets — see
  :class:`repro.adjacency.dynarr.DynArrAdjacency`.  A released block goes on
  a free list for its size, and the next allocation of that size takes it
  before the bump pointer moves.
* **The model** — the paper's scheme, with 8-byte words, a bump pointer that
  never reuses a block, and doubling growth.  ``used`` counts every slot
  that scheme hands out (the rungs of a resize ladder that a batch skips
  included, :meth:`IntPool.charge`), ``abandoned`` the slots of outgrown
  blocks.  :meth:`IntPool.model_bytes` is the footprint the machine model
  and the figures read; :meth:`IntPool.memory_bytes` is the bytes the host
  array holds.

A small host array grows by allocating one twice the size and copying the
live prefix: glibc serves blocks below its largest mmap threshold (32 MiB)
from the heap, whose pages are already warm.  The first growth to
``_RESERVE_FLOOR_BYTES`` or more instead allocates the paper's large chunk,
one reservation of ``_RESERVE_SLOTS`` slots per column that costs address
space only until written, and copies the prefix into it once; from then on
:attr:`IntPool.data` is the view ``reservation[:, :capacity]`` and every
growth re-slices it, copying nothing and faulting in only the pages it
writes.  A reservation that cannot be allocated (``MemoryError``) or is
exhausted falls back to the copy, and so does a widening.  The reservation
lives only as ``data.base``, so pickling or deep-copying a pool carries
``capacity`` columns, never the reservation.  Capacity, growth events and
every byte count are the same on either path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

__all__ = ["IntPool"]

#: A growth to at least this many bytes (all columns) moves the pool into a
#: reservation; smaller pools grow by copying.
_RESERVE_FLOOR_BYTES = 32 << 20
#: Slots per column in a reservation.
_RESERVE_SLOTS = 1 << 26

_INT32 = np.iinfo(np.int32)


def _distinct(values: np.ndarray) -> list[int]:
    """Distinct values of an int64 array, ascending (one sort; ``np.unique``
    costs an order of magnitude more on a batch's block sizes)."""
    v = np.sort(values)
    return v[np.concatenate(([True], v[1:] != v[:-1]))].tolist() if v.size > 1 else v.tolist()


class IntPool:
    """Allocator over a growable int32/int64 array with per-size free lists.

    Allocation returns an *offset* into :attr:`data`; the pool fills
    nothing, so a block holds garbage (or a released block's stale values)
    until its owner writes it, and growth touches only the prefix it
    copies.  A released block is never read again by the structure that
    released it.
    """

    __slots__ = ("data", "top", "used", "abandoned", "model_capacity", "grow_events",
                 "_columns", "_free")

    def __init__(self, capacity: int = 1024, columns: int = 1) -> None:
        if capacity <= 0:
            raise GraphError(f"pool capacity must be positive, got {capacity}")
        if columns < 1:
            raise GraphError(f"pool needs >= 1 column, got {columns}")
        self._columns = columns
        self.data = np.empty((columns, capacity), dtype=np.int32)
        #: Host bump pointer: slots below it are blocks, live or free.
        self.top = 0
        #: Model: slots the paper's bump allocator has handed out.
        self.used = 0
        #: Model: slots of outgrown blocks.
        self.abandoned = 0
        #: Model: doubling capacity that holds ``used``.
        self.model_capacity = capacity
        self.grow_events = 0
        #: Free host blocks per size: ``size -> [offsets buffer, count]``.
        self._free: dict[int, list] = {}

    # ------------------------------------------------------------------ #

    @property
    def capacity(self) -> int:
        """Host slots currently reserved per column."""
        return int(self.data.shape[1])

    @property
    def columns(self) -> int:
        """Number of parallel columns sharing the offsets."""
        return self._columns

    def column(self, i: int) -> np.ndarray:
        """View of column ``i`` (0 = primary / adjacency targets)."""
        return self.data[i]

    def fit(self, lo: int, hi: int) -> None:
        """Make every value in ``[lo, hi]`` storable: widen an int32 pool
        that cannot hold one of them (:meth:`widen`)."""
        if self.data.dtype == np.int32 and (lo < _INT32.min or hi > _INT32.max):
            self.widen()

    def widen(self) -> None:
        """Switch the host array to int64 with one copy (a no-op once it is)."""
        if self.data.dtype != np.int64:
            self.data = self.data.astype(np.int64)

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #

    def _charge(self, size: int) -> None:
        """Model: hand out ``size`` slots, doubling the capacity to hold them."""
        self.used += size
        while self.used > self.model_capacity:
            self.model_capacity *= 2

    def _bump(self, size: int) -> int:
        """Host: ``size`` fresh slots at the bump pointer, growing by
        doubling until they fit.  Below ``_RESERVE_FLOOR_BYTES`` a grow
        event copies the prefix into a new array; the first growth past the
        floor copies it into a reservation of ``_RESERVE_SLOTS`` slots per
        column, and later growths re-slice that reservation without a copy;
        if it cannot be allocated or is exhausted, growth copies again."""
        if self.top + size > self.capacity:
            new_cap = self.capacity
            while self.top + size > new_cap:
                new_cap *= 2
            self._grow(new_cap)
            self.grow_events += 1
        off = self.top
        self.top += size
        return off

    def _grow(self, new_cap: int) -> None:
        """Point :attr:`data` at ``new_cap`` slots holding the prefix."""
        reserve = self.data.base
        if not (isinstance(reserve, np.ndarray) and reserve.shape[1] >= new_cap):
            reserve = self._reserve(new_cap)
            if reserve is None:
                reserve = np.empty((self._columns, new_cap), dtype=self.data.dtype)
            reserve[:, : self.top] = self.data[:, : self.top]
        self.data = reserve[:, :new_cap]

    def _reserve(self, new_cap: int) -> np.ndarray | None:
        """A fresh reservation for a pool growing to ``new_cap`` slots, or
        None when it stays below the floor or would not fit."""
        nbytes = self._columns * new_cap * self.data.itemsize
        if new_cap > _RESERVE_SLOTS or nbytes < _RESERVE_FLOOR_BYTES:
            return None
        try:
            return np.empty((self._columns, _RESERVE_SLOTS), dtype=self.data.dtype)
        except MemoryError:
            return None

    def alloc(self, size: int) -> int:
        """Reserve ``size`` slots; returns the block's starting offset: the
        last block released at that size, else fresh slots."""
        if size < 0:
            raise GraphError(f"allocation size must be >= 0, got {size}")
        self._charge(size)
        stack = self._free.get(size)
        if stack and stack[1]:
            stack[1] -= 1
            return int(stack[0][stack[1]])
        return self._bump(size)

    def alloc_many(self, sizes) -> np.ndarray:
        """Reserve many blocks at once; returns their starting offsets.

        The same blocks as ``[self.alloc(s) for s in sizes]`` would take
        from each free list, the rest placed by one bump of the pointer, in
        order, with at most one growth of the host array.  The model counts
        exactly what the loop counts.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        distinct = _distinct(sizes)
        if distinct and distinct[0] < 0:
            raise GraphError("allocation sizes must be >= 0")
        self._charge(int(sizes.sum()))
        offs = np.empty(sizes.size, dtype=np.int64)
        fresh = np.ones(sizes.size, dtype=bool)
        for size in distinct:
            stack = self._free.get(size)
            if stack and stack[1]:
                at = np.flatnonzero(sizes == size)[: stack[1]]
                stack[1] -= at.size
                offs[at] = stack[0][stack[1] : stack[1] + at.size][::-1]
                fresh[at] = False
        rest = sizes[fresh]
        ends = np.cumsum(rest)
        offs[fresh] = self._bump(int(ends[-1]) if ends.size else 0) + ends - rest
        return offs

    def charge(self, size: int) -> None:
        """Model only: ``size`` slots the paper's scheme allocates and
        outgrows within one batch (the middle rungs of a resize ladder),
        never placed in host memory."""
        if size < 0:
            raise GraphError(f"charge size must be >= 0, got {size}")
        self._charge(size)
        self.abandoned += size

    def free(self, off: int, size: int) -> None:
        """Release the block ``[off, off + size)`` for reuse at its size; the
        model counts it abandoned."""
        if size < 0:
            raise GraphError(f"free size must be >= 0, got {size}")
        self.abandoned += size
        self._push(size, (off,))

    def free_many(self, offs, sizes) -> None:
        """Release many blocks (see :meth:`free`)."""
        offs = np.asarray(offs, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        distinct = _distinct(sizes)
        if distinct and distinct[0] < 0:
            raise GraphError("free sizes must be >= 0")
        for size in distinct:
            got = offs[sizes == size]
            self.abandoned += size * got.size
            self._push(size, got)

    def _push(self, size: int, offs) -> None:
        """Append ``offs`` to the free list of ``size``, doubling its buffer."""
        stack = self._free.setdefault(size, [np.empty(8, dtype=np.int64), 0])
        buf, k = stack
        end = k + len(offs)
        if end > buf.size:
            buf = stack[0] = np.concatenate((buf[:k], np.empty(max(k, end), dtype=np.int64)))
        buf[k:end] = offs
        stack[1] = end

    # ------------------------------------------------------------------ #
    # footprints
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Bytes of the host array (all columns)."""
        return int(self.data.nbytes)

    def model_bytes(self) -> int:
        """Bytes of the model's doubling capacity: 8-byte words, all columns."""
        return self.model_capacity * 8 * self._columns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IntPool(capacity={self.capacity}, top={self.top}, used={self.used}, "
            f"abandoned={self.abandoned}, columns={self._columns}, dtype={self.data.dtype})"
        )
