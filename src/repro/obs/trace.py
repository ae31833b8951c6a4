"""Nestable span tracing with a near-zero disabled path.

A *span* is one timed region of a run — ``update_engine.apply_stream``,
``adjacency.hybrid.apply_arcs``, ``sim.sweep`` — with monotonic start /
duration, a parent/child id chain reconstructing the call tree, and free-form
attributes (kernel metadata, counters, simulated seconds).  Spans are created
through the module-level :func:`span` factory:

>>> from repro.obs import enable_tracing, disable_tracing, span
>>> tracer = enable_tracing()
>>> with span("demo.outer", rep="hybrid"):
...     with span("demo.inner"):
...         pass
>>> [e["name"] for e in tracer.sink.events]
['demo.inner', 'demo.outer']
>>> disable_tracing()

Tracing is *off* by default.  When off, :func:`span` returns a shared no-op
singleton — no object allocation, no clock reads, no sink traffic — so
instrumented hot paths cost one function call, one context-variable read
and one ``is None`` test (measurably < 2% on a 100k-update stream; see the
obs test-suite's overhead test).  Events are emitted on span *exit*
(children before parents); :func:`format_span_tree` rebuilds and renders
the tree afterwards.

This is the only span model.  The innermost open span is carried in one
:class:`~contextvars.ContextVar`, so parentage is per thread and per
asyncio task, and :func:`span` records into the tracer of that span —
*innermost scope wins*: inside a served request (a root span on a
per-request tracer, see :mod:`repro.obs.reqtrace`) a kernel's plain
``span("core.bfs")`` lands in that request's tree and nowhere else;
outside any scope it lands on the process tracer.  Context variables do
not follow work handed to another thread, so :func:`bind` and
:func:`activate` carry a span across such a hop explicitly, and
:meth:`Tracer.adopt` folds spans recorded in another process under the
span open here.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TypeVar

from repro.obs.sink import MemorySink, TraceSink
from repro.util.timing import format_seconds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.manifest import RunManifest

__all__ = [
    "Span",
    "Tracer",
    "span",
    "emit_event",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "current_tracer",
    "activate",
    "bind",
    "format_span_tree",
    "set_memory_hook",
]

_T = TypeVar("_T")

#: Optional per-span memory sampler (installed by :mod:`repro.obs.prof`).
#: Kept as a module global so the disabled cost is one ``is None`` test on
#: the *enabled*-tracing path only; when tracing is off, spans are no-ops
#: and the hook is never consulted.
_MEM_HOOK: object | None = None


def set_memory_hook(hook: object | None) -> None:
    """Install/remove the span memory sampler (see :mod:`repro.obs.prof`).

    ``hook`` must provide ``on_enter(span)`` and ``on_exit(span)``; it is
    called around every enabled span, after the span becomes the current
    one and before the timer starts (entry) / after the timer
    stops and before the event is emitted (exit), so sampling time is not
    charged to the span's duration.
    """
    global _MEM_HOOK
    _MEM_HOOK = hook


class _NullSpan:
    """Do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One live traced region.  Use as a context manager."""

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "attrs", "t_start", "duration", "_token"
    )
    enabled = True
    _token: "Token[Span | None]"

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.t_start = 0.0
        self.duration = 0.0

    def set(self, **attrs: object) -> "Span":
        """Attach attributes mid-span (results known only at the end)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        hook = _MEM_HOOK
        if hook is not None:
            hook.on_enter(self)  # type: ignore[attr-defined]
        self.t_start = time.perf_counter()
        return self

    def __exit__(self, exc_type: type | None, exc: object, tb: object) -> bool:
        self.duration = time.perf_counter() - self.t_start
        _CURRENT.reset(self._token)
        hook = _MEM_HOOK
        if hook is not None:
            hook.on_exit(self)  # type: ignore[attr-defined]
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer.record(span_event(self))
        return False


#: The innermost open span of this execution context (thread / asyncio task).
_CURRENT: ContextVar[Span | None] = ContextVar("repro_span", default=None)


def span_event(sp: Span) -> dict:
    """The event dict of one span — the shape every sink and exporter reads."""
    return {
        "type": "span",
        "name": sp.name,
        "span_id": sp.span_id,
        "parent_id": sp.parent_id,
        "t_start": sp.t_start,
        "duration": sp.duration,
        "attrs": dict(sp.attrs),
    }


class Tracer:
    """One span tree's id space and sink (and optionally one run manifest).

    Spans are opened through the module-level :func:`span`; the parent of a
    new span is the span open in the calling context (thread / asyncio
    task), whose tracer it joins — spans nest lexically, which matches the
    library's synchronous kernels, and concurrent threads or tasks keep
    separate parent chains.  Every emitted event carries the manifest id
    when a manifest is attached, so a JSONL trace is attributable to a
    commit/seed/machine on its own.
    """

    def __init__(
        self, sink: TraceSink | None = None, *, manifest: "RunManifest | None" = None
    ) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self.manifest = manifest
        self._ids = itertools.count(1)
        self.n_events = 0

    def record(self, event: dict) -> None:
        """Stamp one finished event (the run-manifest id) and hand it to the sink."""
        if self.manifest is not None:
            event["manifest_id"] = self.manifest.id
        self.n_events += 1
        self.sink.emit(event)

    def emit_event(self, name: str, *, type: str = "event", **fields: object) -> dict:
        """Emit a non-span event (watchdog alerts, lifecycle markers).

        The event shares the stream with spans but carries its own
        ``type`` so span consumers (:func:`format_span_tree`, the
        exporters) skip it while JSONL/describe readers can surface it.
        It is stamped with the current monotonic clock and, when the
        tracer carries one, the run-manifest id.
        """
        event: dict = {
            "type": type,
            "name": name,
            "t_start": time.perf_counter(),
            "attrs": dict(fields),
        }
        self.record(event)
        return event

    def adopt(self, events: Iterable[dict], worker: int | None = None) -> None:
        """Fold span events recorded by another process into this tracer.

        Span ids are remapped into this tracer's id space; the shipped
        roots (events whose parent is not in the batch) parent at the span
        open in the adopting context, so the tree stays connected across
        the process boundary.  ``worker`` tags each adopted span.
        """
        cur = _CURRENT.get()
        parent_open = cur.span_id if cur is not None and cur.tracer is self else None
        spans = [ev for ev in events if ev.get("type") == "span"]
        remap = {ev["span_id"]: next(self._ids) for ev in spans}
        for ev in spans:
            adopted = dict(ev)
            adopted["span_id"] = remap[ev["span_id"]]
            adopted["parent_id"] = remap.get(ev.get("parent_id"), parent_open)
            attrs = dict(ev.get("attrs", {}))
            if worker is not None:
                attrs.setdefault("worker", worker)
            adopted["attrs"] = attrs
            self.record(adopted)


#: The process-wide tracer (None = tracing disabled).
_TRACER: Tracer | None = None


def enable_tracing(
    sink: TraceSink | None = None, *, manifest: "RunManifest | None" = None
) -> Tracer:
    """Install a process-wide tracer; returns it (default sink: memory)."""
    global _TRACER
    _TRACER = Tracer(sink, manifest=manifest)
    return _TRACER


def disable_tracing() -> None:
    """Remove the process-wide tracer; :func:`span` becomes a no-op again."""
    global _TRACER
    _TRACER = None


def tracing_enabled() -> bool:
    """Whether a process-wide tracer is installed."""
    return _TRACER is not None


def current_tracer() -> Tracer | None:
    """The tracer :func:`span` records into here: innermost scope, else process."""
    cur = _CURRENT.get()
    return _TRACER if cur is None else cur.tracer


def span(name: str, **attrs: object) -> "Span | _NullSpan":
    """Open a span in the innermost scope (no-op singleton when there is none).

    The scope is the tracer of the span open in this context, else the
    process tracer; so one span belongs to exactly one tree.
    """
    cur = _CURRENT.get()
    if cur is not None:
        return Span(cur.tracer, name, next(cur.tracer._ids), cur.span_id, attrs)
    t = _TRACER
    if t is None:
        return _NULL_SPAN
    return Span(t, name, next(t._ids), None, attrs)


def emit_event(name: str, *, type: str = "event", **fields: object) -> dict | None:
    """Emit a non-span event on the process tracer (None when disabled)."""
    t = _TRACER
    if t is None:
        return None
    return t.emit_event(name, type=type, **fields)


@contextmanager
def activate(sp: Span | None) -> Iterator[Span | None]:
    """Make ``sp`` the current span for the ``with`` body, untimed.

    For a span whose lifetime is managed elsewhere (a request root) and
    for threads that do work on its behalf; ``None`` clears the scope.
    """
    token = _CURRENT.set(sp)
    try:
        yield sp
    finally:
        _CURRENT.reset(token)


def bind(sp: Span | None, fn: Callable[..., _T]) -> Callable[..., _T]:
    """Wrap ``fn`` so it runs with ``sp`` as the current span.

    ``loop.run_in_executor`` does **not** copy the caller's context into the
    executor thread, so the service binds the request's root span explicitly
    before shipping query kernels across.
    """

    def bound(*args: object, **kwargs: object) -> _T:
        token = _CURRENT.set(sp)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)

    return bound


# --------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------- #

#: Span attributes surfaced inline in the rendered tree, in display order.
_TREE_ATTRS = (
    "representation",
    "n_updates",
    "n_arc_ops",
    "n_queries",
    "levels",
    "reached",
    "machine",
    "sim_seconds",
    "best_seconds",
    "mups",
    "peak_bytes",
    "error",
)


def _fmt_attr(key: str, value: object) -> str:
    if isinstance(value, float):
        if key.endswith("seconds"):
            return f"{key}={format_seconds(value)}" if value >= 0 else f"{key}={value:.3g}"
        return f"{key}={value:.4g}"
    return f"{key}={value}"


def span_forest(spans: list[dict]) -> dict[int | None, list[dict]]:
    """Children by parent id, each list in start order; roots under ``None``.

    A span whose parent is not among ``spans`` (evicted by a bounded sink,
    or recorded on another lane) is promoted to a root.
    """
    ids = {e["span_id"] for e in spans}
    children: dict[int | None, list[dict]] = {}
    for e in spans:
        parent = e.get("parent_id")
        children.setdefault(parent if parent in ids else None, []).append(e)
    for kids in children.values():
        kids.sort(key=lambda e: float(e.get("t_start", 0.0)))
    return children


def format_span_tree(events: Iterable[dict]) -> str:
    """Render span events (any order) as an indented tree with durations.

    Children are ordered by start time; durations use
    :func:`~repro.util.timing.format_seconds`; a curated subset of attributes
    is shown inline (everything is still in the raw events).
    """
    spans = [e for e in events if e.get("type") == "span"]
    if not spans:
        return "(no spans recorded)"
    children = span_forest(spans)
    rows: list[tuple[int, dict]] = []

    def walk(e: dict, depth: int) -> None:
        rows.append((depth, e))
        for kid in children.get(e["span_id"], []):
            walk(kid, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    name_width = max((len(e["name"]) + 2 * depth for depth, e in rows), default=0)
    lines: list[str] = []
    for depth, e in rows:
        attrs = e.get("attrs", {})
        shown = [_fmt_attr(k, attrs[k]) for k in _TREE_ATTRS if k in attrs]
        label = "  " * depth + e["name"]
        line = f"{label.ljust(name_width)}  {format_seconds(e['duration']):>10}"
        if shown:
            line += "  " + " ".join(shown)
        lines.append(line)
    return "\n".join(lines)
