"""Trace exporter: Chrome trace-event JSON.

A recorded span stream (the event dicts a :class:`~repro.obs.sink
.MemorySink` holds, or :func:`~repro.obs.sink.read_jsonl` loads back) is a
flat list; :func:`to_chrome_trace` converts it into the Chrome trace-event
JSON object format, loadable in ``chrome://tracing``,
https://ui.perfetto.dev and https://www.speedscope.app: every span becomes
one complete (``"ph": "X"``) event with microsecond ``ts``/``dur`` on the
one ``main`` thread lane.

:func:`validate_chrome_trace`, used by the test-suite (and usable on any
artifact), verifies the structural invariants: required fields and
parent/child interval containment.  An event whose parent is missing (a
bounded :class:`~repro.obs.sink.MemorySink` may have evicted an ancestor)
is exported like any other and not checked for containment.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

from repro.util.jsonify import jsonify

__all__ = ["to_chrome_trace", "write_chrome_trace", "validate_chrome_trace"]

#: Containment tolerance (seconds) when validating parent/child nesting:
#: float rounding on perf_counter deltas, not real overlap.
_NEST_EPS = 5e-5

#: The one thread lane every span renders on.
_MAIN_TID = 0


def _spans(events: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """The span events of a stream, as plain dicts."""
    return [dict(e) for e in events if e.get("type") == "span"]


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
    for e in spans:
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
                "tid": _MAIN_TID,
                "args": args,
            }
        )
    if spans:
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": _MAIN_TID,
                "args": {"name": "main"},
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
