"""Pluggable destinations for trace events.

A sink is anything with ``emit(event: dict)`` and ``close()``.  Three are
provided:

* :class:`MemorySink` — bounded in-memory ring buffer; the default for
  tests and for the CLI's span-tree rendering;
* :class:`JsonlSink` — one JSON object per line, append-only, routed
  through the shared :func:`repro.util.jsonify` coercion so numpy values
  never break a trace file;
* :class:`TeeSink` — fan-out to several sinks (the trace CLI keeps events
  in memory for rendering *and* streams them to disk).

:func:`read_jsonl` loads a JSONL trace back into event dicts, and
:func:`describe` renders events plus a counter snapshot into the human
summary the ``repro trace`` subcommand prints.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable

from repro.util.jsonify import jsonify

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "TeeSink",
    "read_jsonl",
    "describe",
]


class TraceSink:
    """Base class: swallow events, support ``with`` for lifecycle."""

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; emitting after close is an error for files."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MemorySink(TraceSink):
    """Ring buffer of the most recent ``maxlen`` events (None = unbounded)."""

    def __init__(self, maxlen: int | None = None) -> None:
        self._events: deque[dict] = deque(maxlen=maxlen)
        self.n_emitted = 0

    def emit(self, event: dict) -> None:
        self._events.append(event)
        self.n_emitted += 1

    @property
    def events(self) -> list[dict]:
        """Buffered events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class JsonlSink(TraceSink):
    """Append events to ``path``, one JSON object per line."""

    def __init__(self, path: str | Path, *, append: bool = False) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("a" if append else "w")
        self.n_written = 0

    def emit(self, event: dict) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlSink({self.path}) is closed")
        self._fh.write(json.dumps(jsonify(event), sort_keys=True))
        self._fh.write("\n")
        self.n_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class TeeSink(TraceSink):
    """Forward every event to all child sinks."""

    def __init__(self, *sinks: TraceSink) -> None:
        self.sinks = tuple(sinks)

    def emit(self, event: dict) -> None:
        for s in self.sinks:
            s.emit(event)

    def close(self) -> None:
        for s in self.sinks:
            s.close()


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a JSONL trace file back into a list of event dicts."""
    events: list[dict] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def describe(
    events: Iterable[dict],
    *,
    metrics: "MetricsRegistry | None" = None,
    top: int = 12,
) -> str:
    """Human-readable run summary: span tree, then the busiest counters.

    ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` (or None to
    skip the counter section).
    """
    from repro.obs.trace import format_span_tree

    lines = [format_span_tree(list(events))]
    if metrics is not None:
        ranked = metrics.top_counters(top)
        if ranked:
            n_counters = len(metrics.snapshot()["counters"])
            lines.append("")
            lines.append(f"-- top counters ({len(ranked)} of {n_counters}) --")
            width = max(len(name) for name, _ in ranked)
            for name, value in ranked:
                lines.append(f"  {name.ljust(width)}  {value:>14,}")
    return "\n".join(lines)
