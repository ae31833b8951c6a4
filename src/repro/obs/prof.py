"""Per-span memory accounting: ``tracemalloc`` + RSS sampled at span edges.

The paper's central claim is about *compact* representations, so the
telemetry layer must be able to report *measured* bytes next to the
modelled bytes of ``docs/MACHINE_MODEL.md``.  This module adds an opt-in
:class:`MemoryProfiler` that samples the Python allocator
(:mod:`tracemalloc`) and, where ``/proc/self/statm`` exists, the process
RSS, at every span entry and exit.  Three attributes land on each traced
span event:

* ``alloc_bytes`` — net Python-heap allocation over the span (may be
  negative: a span that frees more than it allocates);
* ``peak_bytes`` — the high-water mark of the Python heap *above the
  span's entry level*, including everything its children allocated;
* ``rss_delta_bytes`` — resident-set growth over the span (absent on
  platforms without ``/proc``).

Peak accounting across nesting is exact: ``tracemalloc``'s single global
peak counter is reset at every span entry, and the displaced readings are
folded into the enclosing frame, so a parent's peak is the maximum over
its own allocations and every child interval.

Profiling is *off* by default and costs nothing when off — the span
fast path tests one module global (see :mod:`repro.obs.trace`).  When on,
each span pays two ``tracemalloc`` reads plus one ``/proc`` read, which is
why it is an explicit opt-in (``repro trace --memprof``,
:func:`enable_memory_profiling` in code) rather than always-on telemetry.

>>> from repro import obs
>>> from repro.obs.prof import enable_memory_profiling, disable_memory_profiling
>>> tracer = obs.enable_tracing()
>>> _ = enable_memory_profiling(track_rss=False)
>>> with obs.span("demo.alloc"):
...     blob = bytearray(1 << 20)
>>> ev = tracer.sink.events[-1]
>>> ev["attrs"]["peak_bytes"] >= (1 << 20)
True
>>> disable_memory_profiling()
>>> obs.disable_tracing()
"""

from __future__ import annotations

import os
import tracemalloc
from typing import Any, Optional

from repro.obs.trace import set_memory_hook

__all__ = [
    "MemoryProfiler",
    "MeasuredBlock",
    "enable_memory_profiling",
    "disable_memory_profiling",
    "memory_profiling_enabled",
    "current_memory_profiler",
    "measure_block",
    "rss_bytes",
]


def rss_bytes() -> Optional[int]:
    """Resident-set size in bytes via ``/proc/self/statm`` (None elsewhere)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return pages * _PAGE_SIZE


try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    _PAGE_SIZE = 4096


class _Frame:
    """Book-keeping for one open span (or measured block)."""

    __slots__ = ("owner", "alloc0", "rss0", "peak_seen")

    def __init__(self, owner: object, alloc0: int, rss0: Optional[int]) -> None:
        self.owner = owner
        self.alloc0 = alloc0
        self.rss0 = rss0
        #: Largest absolute heap level observed inside this frame so far
        #: (folded in from child frames and from peak-counter resets).
        self.peak_seen = alloc0


class MemoryProfiler:
    """Samples heap/RSS at span boundaries and attaches byte deltas.

    One profiler is installed process-wide via
    :func:`enable_memory_profiling`; :mod:`repro.obs.trace` calls
    :meth:`on_enter` / :meth:`on_exit` around every *enabled* span.  The
    profiler keeps its own frame stack (spans enter and exit in LIFO order
    per tracer, and measured blocks participate in the same stack), so
    peak figures compose correctly across nesting.
    """

    def __init__(self, *, track_rss: bool = True) -> None:
        self.track_rss = bool(track_rss) and rss_bytes() is not None
        self._stack: list[_Frame] = []
        self._owns_tracemalloc = False
        self.n_samples = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "MemoryProfiler":
        """Begin allocator tracing (idempotent; returns ``self``)."""
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        return self

    def stop(self) -> None:
        """End allocator tracing if this profiler started it."""
        self._stack.clear()
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracemalloc = False

    # ------------------------------------------------------------------ #
    # span hooks (called by repro.obs.trace when a profiler is installed)
    # ------------------------------------------------------------------ #

    def on_enter(self, span: Any) -> None:
        """Open a frame for ``span``: baseline the heap and the RSS."""
        if not tracemalloc.is_tracing():  # pragma: no cover - defensive
            return
        cur, peak = tracemalloc.get_traced_memory()
        if self._stack:
            # The global peak counter is about to be reset for the new
            # frame; fold what it saw into the enclosing frame first.
            outer = self._stack[-1]
            if peak > outer.peak_seen:
                outer.peak_seen = peak
        self._stack.append(_Frame(span, cur, rss_bytes() if self.track_rss else None))
        tracemalloc.reset_peak()
        self.n_samples += 1

    def on_exit(self, span: Any) -> None:
        """Close ``span``'s frame and attach the byte deltas to its attrs."""
        if not self._stack or not tracemalloc.is_tracing():
            return
        if self._stack[-1].owner is not span:
            # Mismatched enter/exit (a span crossed an enable/disable
            # boundary): drop the orphaned frames rather than mis-attribute.
            while self._stack and self._stack[-1].owner is not span:
                self._stack.pop()
            if not self._stack:
                return
        frame = self._stack.pop()
        cur, peak = tracemalloc.get_traced_memory()
        peak_abs = max(peak, frame.peak_seen, cur)
        attrs = {
            "alloc_bytes": cur - frame.alloc0,
            "peak_bytes": max(0, peak_abs - frame.alloc0),
        }
        if frame.rss0 is not None:
            rss1 = rss_bytes()
            if rss1 is not None:
                attrs["rss_delta_bytes"] = rss1 - frame.rss0
        span.attrs.update(attrs)
        if self._stack:
            # Keep the enclosing frame's high-water mark monotone through
            # this child's interval (the counter was last reset at the most
            # recent enter, so ``peak_abs`` is what the parent would have
            # seen had the child not reset it).
            outer = self._stack[-1]
            if peak_abs > outer.peak_seen:
                outer.peak_seen = peak_abs
        self.n_samples += 1


class MeasuredBlock:
    """Context manager measuring one code block's memory, span-free.

    Returned by :func:`measure_block`.  When no profiler is installed the
    block is inert (``enabled`` is False and every figure is None), so
    callers can wrap hot paths unconditionally:

    >>> with measure_block() as mem:
    ...     data = list(range(1000))
    >>> mem.enabled in (True, False)
    True
    """

    def __init__(self, profiler: Optional[MemoryProfiler]) -> None:
        self._profiler = profiler
        self.attrs: dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        """True when a profiler was installed at block entry."""
        return self._profiler is not None

    @property
    def alloc_bytes(self) -> Optional[int]:
        """Net Python-heap allocation over the block (None when disabled)."""
        return self.attrs.get("alloc_bytes")

    @property
    def peak_bytes(self) -> Optional[int]:
        """Heap high-water mark above the block's entry level."""
        return self.attrs.get("peak_bytes")

    @property
    def rss_delta_bytes(self) -> Optional[int]:
        """RSS growth over the block (None when unavailable)."""
        return self.attrs.get("rss_delta_bytes")

    def meta(self) -> dict[str, int]:
        """The measured figures as a dict (a pool task's ``telemetry["memory"]``)."""
        return dict(self.attrs)

    def __enter__(self) -> "MeasuredBlock":
        if self._profiler is not None:
            self._profiler.on_enter(self)
        return self

    def __exit__(self, *exc: object) -> None:
        if self._profiler is not None:
            self._profiler.on_exit(self)


#: The process-wide profiler (None = memory profiling disabled).
_PROFILER: Optional[MemoryProfiler] = None


def enable_memory_profiling(*, track_rss: bool = True) -> MemoryProfiler:
    """Install (or return) the process-wide memory profiler.

    Starts :mod:`tracemalloc` and hooks span entry/exit in
    :mod:`repro.obs.trace`; idempotent — a second call returns the
    already-installed profiler.
    """
    global _PROFILER
    if _PROFILER is None:
        _PROFILER = MemoryProfiler(track_rss=track_rss).start()
        set_memory_hook(_PROFILER)
    return _PROFILER


def disable_memory_profiling() -> None:
    """Remove the process-wide profiler and stop allocator tracing."""
    global _PROFILER
    if _PROFILER is not None:
        set_memory_hook(None)
        _PROFILER.stop()
        _PROFILER = None


def memory_profiling_enabled() -> bool:
    """True when a process-wide memory profiler is installed."""
    return _PROFILER is not None


def current_memory_profiler() -> Optional[MemoryProfiler]:
    """The installed profiler, or None."""
    return _PROFILER


def measure_block() -> MeasuredBlock:
    """A :class:`MeasuredBlock` bound to the current profiler (or inert)."""
    return MeasuredBlock(_PROFILER)
