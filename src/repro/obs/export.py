"""Trace exporters: Chrome trace-event JSON, speedscope JSON, folded stacks.

A recorded span stream (the event dicts a :class:`~repro.obs.sink
.MemorySink` holds, or :func:`~repro.obs.sink.read_jsonl` loads back) is a
flat list; this module converts it into the three formats performance
tooling actually consumes:

* :func:`to_chrome_trace` — the Chrome trace-event JSON object format,
  loadable in ``chrome://tracing`` and https://ui.perfetto.dev: every span
  becomes one complete (``"ph": "X"``) event with microsecond ``ts``/
  ``dur``; worker-adopted spans land on their own ``tid`` lane so a
  process-backend fan-out renders as parallel tracks;
* :func:`to_speedscope` — the speedscope file format
  (https://www.speedscope.app), an evented open/close profile per thread
  lane, for time-ordered and left-heavy flamegraphs;
* :func:`to_folded` — Brendan-Gregg-style folded stacks
  (``span;path count self_ns`` per line), the text form every flamegraph
  toolchain understands, aggregated over repeated invocations.

Each format has a matching ``validate_*`` checker used by the test-suite
(and usable on any artifact) that verifies the structural invariants:
required fields, stack discipline, and parent/child interval containment.

All three exporters tolerate orphaned spans (a bounded
:class:`~repro.obs.sink.MemorySink` may have evicted an ancestor): an
event whose parent is missing is promoted to a root, exactly like
:func:`~repro.obs.trace.format_span_tree` does (one builder,
:func:`~repro.obs.trace.span_forest`, serves all four).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

from repro.obs.trace import span_forest
from repro.util.jsonify import jsonify

__all__ = [
    "to_chrome_trace",
    "to_speedscope",
    "to_folded",
    "write_chrome_trace",
    "write_speedscope",
    "write_folded",
    "validate_chrome_trace",
    "validate_speedscope",
]

#: Containment tolerance (seconds) when validating parent/child nesting:
#: float rounding on perf_counter deltas, not real overlap.
_NEST_EPS = 5e-5

#: The tid used for parent-process spans; worker ``i`` maps to ``i + 1``.
_MAIN_TID = 0


def _spans(events: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """The span events of a stream, as plain dicts."""
    return [dict(e) for e in events if e.get("type") == "span"]


def _tid_of(span: Mapping[str, Any]) -> int:
    """Thread-lane id: workers get their own lane, the parent gets lane 0."""
    worker = span.get("attrs", {}).get("worker")
    try:
        return _MAIN_TID if worker is None else int(worker) + 1
    except (TypeError, ValueError):
        return _MAIN_TID


# --------------------------------------------------------------------- #
# Chrome trace-event format
# --------------------------------------------------------------------- #


def to_chrome_trace(
    events: Iterable[Mapping[str, Any]],
    *,
    manifest: Optional[Mapping[str, Any]] = None,
    pid: int = 1,
) -> dict[str, Any]:
    """Convert span events into a Chrome trace-event JSON document.

    Timestamps are rebased so the earliest span starts at ``ts = 0`` and
    expressed in microseconds (the format's unit).  Span attributes ride
    along under ``args`` together with the original span/parent ids, so
    the Perfetto query engine can still reconstruct the exact tree.
    """
    spans = _spans(events)
    t0 = min((float(e.get("t_start", 0.0)) for e in spans), default=0.0)
    trace_events: list[dict[str, Any]] = []
    tids: set[int] = set()
    for e in spans:
        tid = _tid_of(e)
        tids.add(tid)
        args = dict(e.get("attrs", {}))
        args["span_id"] = e.get("span_id")
        if e.get("parent_id") is not None:
            args["parent_id"] = e.get("parent_id")
        if e.get("manifest_id") is not None:
            args["manifest_id"] = e.get("manifest_id")
        trace_events.append(
            {
                "name": str(e.get("name", "?")),
                "cat": str(e.get("name", "?")).split(".", 1)[0],
                "ph": "X",
                "ts": (float(e.get("t_start", 0.0)) - t0) * 1e6,
                "dur": max(0.0, float(e.get("duration", 0.0))) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    for tid in sorted(tids):
        label = "main" if tid == _MAIN_TID else f"worker-{tid - 1}"
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": label},
            }
        )
    doc: dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if manifest is not None:
        doc["metadata"] = dict(manifest)
    return doc


def validate_chrome_trace(doc: Mapping[str, Any]) -> list[str]:
    """Structural problems of a Chrome trace document (empty list = valid).

    Checks the object-format envelope, the required complete-event fields
    (``ph``/``ts``/``dur``/``pid``/``tid``/``name``), and that every span
    whose ``args`` name a parent is contained in that parent's interval
    (the nesting ``chrome://tracing`` renders from ``ts``/``dur``).
    """
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    complete: dict[Any, Mapping[str, Any]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, Mapping):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            problems.append(f"event {i}: unexpected ph {ph!r}")
            continue
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ts, dur = ev.get("ts", 0), ev.get("dur", 0)
        if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)):
            problems.append(f"event {i}: ts/dur not numeric")
            continue
        if ts < 0 or dur < 0:
            problems.append(f"event {i}: negative ts/dur")
        span_id = ev.get("args", {}).get("span_id")
        if span_id is not None:
            complete[span_id] = ev
    eps_us = _NEST_EPS * 1e6
    for span_id, ev in complete.items():
        parent_id = ev.get("args", {}).get("parent_id")
        parent = complete.get(parent_id)
        if parent is None:
            continue
        lo = float(parent["ts"]) - eps_us
        hi = float(parent["ts"]) + float(parent["dur"]) + eps_us
        if float(ev["ts"]) < lo or float(ev["ts"]) + float(ev["dur"]) > hi:
            problems.append(
                f"span {span_id} [{ev['ts']:.1f}, {float(ev['ts']) + float(ev['dur']):.1f}] "
                f"escapes parent {parent_id} [{parent['ts']:.1f}, "
                f"{float(parent['ts']) + float(parent['dur']):.1f}]"
            )
    return problems


# --------------------------------------------------------------------- #
# speedscope format
# --------------------------------------------------------------------- #

_SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def to_speedscope(
    events: Iterable[Mapping[str, Any]], *, name: str = "repro trace"
) -> dict[str, Any]:
    """Convert span events into a speedscope evented-profile document.

    One profile is produced per thread lane (parent process + one per
    worker), since an evented profile is a strict open/close stack and
    adopted worker spans overlap the parent's wall-clock.  Child intervals
    are clamped into their parent's (and after their earlier siblings'),
    so the stack discipline holds even under float rounding.
    """
    spans = _spans(events)
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}

    def frame_of(span_name: str) -> int:
        idx = frame_index.get(span_name)
        if idx is None:
            idx = len(frames)
            frame_index[span_name] = idx
            frames.append({"name": span_name})
        return idx

    lanes: dict[int, list[dict[str, Any]]] = {}
    for e in spans:
        lanes.setdefault(_tid_of(e), []).append(e)
    t0 = min((float(e.get("t_start", 0.0)) for e in spans), default=0.0)

    profiles: list[dict[str, Any]] = []
    for tid in sorted(lanes):
        # A parent on another lane is missing here: the span is a lane root.
        children = span_forest(lanes[tid])

        out: list[dict[str, Any]] = []

        def emit(e: dict[str, Any], lo: float, hi: float) -> float:
            start = min(max(float(e.get("t_start", 0.0)) - t0, lo), hi)
            end = min(max(start, start + max(0.0, float(e.get("duration", 0.0)))), hi)
            out.append({"type": "O", "frame": frame_of(str(e.get("name", "?"))), "at": start})
            cursor = start
            for kid in children.get(e["span_id"], []):
                cursor = emit(kid, cursor, end)
            out.append({"type": "C", "frame": frame_index[str(e.get("name", "?"))], "at": end})
            return end

        cursor = 0.0
        end_value = 0.0
        for root in children.get(None, []):
            cursor = emit(root, cursor, float("inf"))
            end_value = max(end_value, cursor)
        label = "main" if tid == _MAIN_TID else f"worker-{tid - 1}"
        profiles.append(
            {
                "type": "evented",
                "name": f"{name} [{label}]",
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": end_value,
                "events": out,
            }
        )

    return {
        "$schema": _SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro.obs.export",
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def validate_speedscope(doc: Mapping[str, Any]) -> list[str]:
    """Structural problems of a speedscope document (empty list = valid).

    Checks the schema envelope, that every event references a real frame,
    and that each evented profile is a well-formed stack: timestamps are
    non-decreasing within ``[startValue, endValue]``, every close matches
    the innermost open frame, and nothing is left open at the end.
    """
    problems: list[str] = []
    if doc.get("$schema") != _SPEEDSCOPE_SCHEMA:
        problems.append("missing or wrong $schema")
    frames = doc.get("shared", {}).get("frames")
    if not isinstance(frames, list) or not all(
        isinstance(f, Mapping) and "name" in f for f in frames
    ):
        return problems + ["shared.frames is missing or malformed"]
    profiles = doc.get("profiles")
    if not isinstance(profiles, list):
        return problems + ["profiles is missing or not a list"]
    for p, profile in enumerate(profiles):
        if profile.get("type") != "evented":
            problems.append(f"profile {p}: not an evented profile")
            continue
        start = profile.get("startValue", 0.0)
        end = profile.get("endValue", 0.0)
        stack: list[int] = []
        last_at = float(start)
        for i, ev in enumerate(profile.get("events", [])):
            frame = ev.get("frame")
            at = ev.get("at")
            if not isinstance(frame, int) or not 0 <= frame < len(frames):
                problems.append(f"profile {p} event {i}: bad frame {frame!r}")
                continue
            if not isinstance(at, (int, float)) or at < float(start) - _NEST_EPS:
                problems.append(f"profile {p} event {i}: bad at {at!r}")
                continue
            if at < last_at - _NEST_EPS:
                problems.append(f"profile {p} event {i}: timestamps regress")
            last_at = max(last_at, float(at))
            if ev.get("type") == "O":
                stack.append(frame)
            elif ev.get("type") == "C":
                if not stack or stack[-1] != frame:
                    problems.append(f"profile {p} event {i}: close does not match open")
                else:
                    stack.pop()
            else:
                problems.append(f"profile {p} event {i}: unknown type {ev.get('type')!r}")
        if stack:
            problems.append(f"profile {p}: {len(stack)} frame(s) left open")
        if last_at > float(end) + _NEST_EPS:
            problems.append(f"profile {p}: events extend past endValue")
    return problems


# --------------------------------------------------------------------- #
# folded stacks
# --------------------------------------------------------------------- #


def to_folded(events: Iterable[Mapping[str, Any]], *, sep: str = ";") -> str:
    """Aggregate span events into folded-stack lines.

    One line per distinct root-to-span path: ``path count self_ns`` where
    ``count`` is how many spans took that path and ``self_ns`` is their
    summed *self* time (duration minus child durations, clamped at zero)
    in integer nanoseconds — the quantity flamegraph tools expect.  Lines
    are sorted by path for deterministic output.
    """
    spans = _spans(events)
    children = span_forest(spans)
    agg: dict[str, list[int]] = {}

    def walk(e: dict[str, Any], prefix: str) -> None:
        path = f"{prefix}{sep}{e['name']}" if prefix else str(e["name"])
        kids = children.get(e["span_id"], [])
        child_s = sum(max(0.0, float(k.get("duration", 0.0))) for k in kids)
        self_ns = int(round(max(0.0, float(e.get("duration", 0.0)) - child_s) * 1e9))
        entry = agg.setdefault(path, [0, 0])
        entry[0] += 1
        entry[1] += self_ns
        for kid in kids:
            walk(kid, path)

    for root in children.get(None, []):
        walk(root, "")
    return "\n".join(
        f"{path} {count} {self_ns}" for path, (count, self_ns) in sorted(agg.items())
    )


# --------------------------------------------------------------------- #
# file helpers
# --------------------------------------------------------------------- #


def write_chrome_trace(
    path: str | Path,
    events: Iterable[Mapping[str, Any]],
    *,
    manifest: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write :func:`to_chrome_trace` output as JSON; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(jsonify(to_chrome_trace(events, manifest=manifest)), indent=1))
    return p


def write_speedscope(
    path: str | Path, events: Iterable[Mapping[str, Any]], *, name: str = "repro trace"
) -> Path:
    """Write :func:`to_speedscope` output as JSON; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(jsonify(to_speedscope(events, name=name)), indent=1))
    return p


def write_folded(path: str | Path, events: Iterable[Mapping[str, Any]]) -> Path:
    """Write :func:`to_folded` output as text; returns the path."""
    p = Path(path)
    text = to_folded(events)
    p.write_text(text + ("\n" if text else ""))
    return p
