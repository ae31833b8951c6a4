"""Shared-memory arenas: zero-copy numpy arrays across processes.

A :class:`ShmArena` packs a set of named numpy arrays into one
``multiprocessing.shared_memory.SharedMemory`` segment.  The parent process
lays the arena out (:meth:`ShmArena.allocate`, zero-filled, nothing copied)
or lays it out and copies arrays in (:meth:`ShmArena.create`); workers
attach via the picklable :class:`ArenaDescriptor` and get numpy views
directly onto the segment — no serialisation, no per-task copies.  This is
what lets the process backend traverse multi-megabyte CSR adjacency arrays
from every worker at memory speed (the paper's shared-memory SMP model,
recovered in Python).

Lifetime has one rule: whoever created a segment closes and unlinks it, and
an unlinked segment's pages are only returned once the last process has
unmapped it.  The pool's resident snapshot arena and the workers' side of
that rule live in :mod:`repro.parallel.pool`; the drivers' per-call arenas
are ``with`` blocks.

Mutability is part of the contract: the parent's view of an array and every
worker's view alias the same bytes, so e.g. the BFS ``dist`` array updated
by the parent between levels is immediately visible to workers at the next
level.  Synchronisation is the caller's job (the drivers in this package
only ever write from the parent between task rounds).

Zero-length arrays are carried in the descriptor but not backed by the
segment (POSIX shared memory cannot be empty); attaching yields an ordinary
empty array, which is semantically identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterator, Mapping

import numpy as np
from numpy.typing import DTypeLike

from repro.errors import ParallelError

__all__ = ["ArraySpec", "ArenaDescriptor", "ShmArena"]

#: Alignment of each array within the segment (cache-line friendly).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class ArraySpec:
    """Placement of one named array inside the shared segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        """Size of the array's payload in bytes."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class ArenaDescriptor:
    """Picklable handle a worker uses to attach to an existing arena."""

    shm_name: str
    specs: tuple[ArraySpec, ...]

    @property
    def names(self) -> tuple[str, ...]:
        """The arena's array names, in placement order."""
        return tuple(s.name for s in self.specs)


class ShmArena:
    """A set of named numpy arrays living in one shared-memory segment.

    Create with :meth:`create` (parent, owns the segment) or :meth:`attach`
    (worker, borrows it).  The owner must eventually call :meth:`unlink`;
    both sides should :meth:`close`.  Usable as a context manager — exit
    closes, and unlinks when owning.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory | None,
        specs: tuple[ArraySpec, ...],
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._specs = {s.name: s for s in specs}
        self._owner = owner
        self._views: dict[str, np.ndarray] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def allocate(cls, layout: Mapping[str, tuple[DTypeLike, tuple[int, ...]]]) -> "ShmArena":
        """A fresh segment laid out for ``name -> (dtype, shape)`` (parent side).

        Nothing is copied: POSIX shared memory starts zero-filled, and a page
        is only faulted in when someone first touches it.
        """
        if not layout:
            raise ParallelError("cannot create an empty shared arena")
        specs: list[ArraySpec] = []
        offset = 0
        for name, (dtype, shape) in layout.items():
            spec = ArraySpec(name, np.dtype(dtype).str, tuple(shape), _aligned(offset))
            specs.append(spec)
            offset = spec.offset + spec.nbytes
        shm = shared_memory.SharedMemory(create=True, size=offset) if offset > 0 else None
        return cls(shm, tuple(specs), owner=True)

    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "ShmArena":
        """:meth:`allocate` a segment shaped like ``arrays``, then copy each in."""
        arena = cls.allocate({name: (a.dtype, a.shape) for name, a in arrays.items()})
        for name, arr in arrays.items():
            view = arena.view(name)
            if view.size:
                view[...] = arr
        return arena

    @classmethod
    def attach(cls, descriptor: ArenaDescriptor) -> "ShmArena":
        """Open an existing arena from its descriptor (worker side)."""
        shm = None
        if descriptor.shm_name:
            # Attaching would register the segment with the resource tracker,
            # which (a) double-unlinks it at exit, (b) warns about "leaked"
            # objects, and (c) under the fork start method shares the parent's
            # tracker, so an unregister here would strip the *owner's*
            # registration.  Lifetime is owned by the creating process: make
            # registration a no-op for the duration of the attach instead.
            from multiprocessing import resource_tracker

            def _no_register(*args: object, **kwargs: object) -> None:
                return None

            orig_register = resource_tracker.register
            resource_tracker.register = _no_register
            try:
                shm = shared_memory.SharedMemory(name=descriptor.shm_name)
            finally:
                resource_tracker.register = orig_register
        return cls(shm, descriptor.specs, owner=False)

    @property
    def descriptor(self) -> ArenaDescriptor:
        """The picklable handle workers attach with (a few hundred bytes)."""
        name = self._shm.name if self._shm is not None else ""
        return ArenaDescriptor(name, tuple(self._specs.values()))

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def view(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of one array (cached per arena)."""
        if self._closed:
            raise ParallelError("arena is closed")
        got = self._views.get(name)
        if got is not None:
            return got
        try:
            spec = self._specs[name]
        except KeyError:
            raise ParallelError(
                f"arena has no array {name!r}; available: {sorted(self._specs)}"
            ) from None
        if spec.nbytes == 0 or self._shm is None:
            arr = np.empty(spec.shape, dtype=np.dtype(spec.dtype))
        else:
            arr = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=self._shm.buf,
                offset=spec.offset,
            )
        self._views[name] = arr
        return arr

    def views(self) -> dict[str, np.ndarray]:
        """All arrays, keyed by name."""
        return {name: self.view(name) for name in self._specs}

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    @property
    def nbytes(self) -> int:
        """Total size of the shared segment (0 when all arrays are empty)."""
        return self._shm.size if self._shm is not None else 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release this process's mapping (views become invalid)."""
        if self._closed:
            return
        # Views hold exported buffers into the mapping; drop ours first.
        self._views.clear()
        self._closed = True
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                # A caller still holds a view; the mapping is released when
                # the last view is garbage-collected instead.
                pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; call after every close)."""
        if self._shm is not None and self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShmArena(arrays={sorted(self._specs)}, nbytes={self.nbytes}, "
            f"owner={self._owner})"
        )
