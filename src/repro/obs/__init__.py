"""Observability: span tracing, process metrics and run provenance.

This subpackage is the host-side telemetry counterpart to the
machine-independent work accounting in :mod:`repro.machine.profile` (see
``docs/OBSERVABILITY.md`` for how the two relate):

* :mod:`repro.obs.trace` — the one span model: nestable spans with a
  no-op disabled path, a context-carried current span (innermost scope
  wins) and the ``bind`` / ``activate`` hops across threads;
* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms the
  instrumented kernels tick at phase granularity;
* :mod:`repro.obs.sink` — memory ring buffer, JSONL file and tee sinks;
* :mod:`repro.obs.manifest` — run manifests stamped into every artifact;
* :mod:`repro.obs.export` — the Chrome trace-event exporter over recorded
  span streams;
* :mod:`repro.obs.reqtrace` — a request as a root span on its own
  tracer, with deterministic head sampling and tail capture of slow
  requests into a bounded store.

The registry is served as JSON only: the graph service's
``/metrics.json`` is one ``json.dumps`` of :meth:`MetricsRegistry.snapshot`.

Typical use (what ``python -m repro trace`` does):

>>> from repro import obs
>>> tracer = obs.enable_tracing(obs.MemorySink())
>>> with obs.span("demo"):
...     pass
>>> len(tracer.sink.events)
1
>>> obs.disable_tracing()
"""

from repro.obs.manifest import (
    RunManifest,
    capture_git_sha,
    current_manifest,
    ensure_manifest,
    manifest_meta,
    set_manifest,
)
from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.reqtrace import RequestTrace, RequestTracer
from repro.obs.sink import (
    JsonlSink,
    MemorySink,
    TeeSink,
    TraceSink,
    describe,
    read_jsonl,
)
from repro.obs.trace import (
    Span,
    Tracer,
    activate,
    bind,
    current_tracer,
    disable_tracing,
    emit_event,
    enable_tracing,
    format_span_tree,
    span,
    tracing_enabled,
)

__all__ = [
    "RunManifest",
    "capture_git_sha",
    "current_manifest",
    "ensure_manifest",
    "manifest_meta",
    "set_manifest",
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "TeeSink",
    "describe",
    "read_jsonl",
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
    "RequestTrace",
    "RequestTracer",
    "to_chrome_trace",
    "write_chrome_trace",
]
