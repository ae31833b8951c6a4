"""OpenMetrics text exposition of the process metrics registry.

Three layers, mirroring how :mod:`repro.obs.export` treats traces:

* :func:`to_openmetrics` — render a
  :class:`~repro.obs.metrics.MetricsRegistry` snapshot as OpenMetrics
  text (the Prometheus exposition format): counters as ``_total``
  samples, gauges verbatim, histograms as summaries with interpolated
  p50/p99 quantile samples, terminated by the mandatory ``# EOF``.
  Histograms that have recorded *exemplars* (an
  :class:`~repro.obs.reqtrace.ExemplarStore`, by default the process-wide
  one the request tracer fills) render instead as true ``histogram``
  families — cumulative ``le`` buckets on the shared bucket ladder —
  with ``# {trace_id="..."} value`` exemplar suffixes attaching recent
  request traces to the buckets their latency fell in;
* :func:`validate_openmetrics` — a structural checker in the spirit of
  :func:`~repro.obs.export.validate_chrome_trace`: it parses the payload
  back, enforces the format's invariants (declared families, sample
  naming rules, family grouping, exemplar placement, single EOF) and
  raises ``ValueError`` naming the first violation, so CI can assert a
  scrape is well-formed without a Prometheus binary in the container;
* :func:`telemetry_response` — ``/metrics`` (OpenMetrics) and
  ``/metrics.json`` (the raw registry snapshot), defined once; the graph
  service falls through to them.

Only the Python standard library is used — no prometheus_client, no new
dependencies.

>>> from repro.obs.expose import to_openmetrics, validate_openmetrics
>>> from repro.obs.metrics import MetricsRegistry
>>> reg = MetricsRegistry()
>>> reg.inc("updates.applied", 42)
>>> text = to_openmetrics(reg)
>>> print(text, end="")
# TYPE updates_applied counter
updates_applied_total 42
# EOF
>>> validate_openmetrics(text)["n_families"]
1
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional

from repro.obs.metrics import BUCKET_BOUNDS, METRICS, MetricsRegistry
from repro.obs.reqtrace import EXEMPLARS, ExemplarStore
from repro.util import httpd

__all__ = [
    "to_openmetrics",
    "validate_openmetrics",
    "telemetry_response",
    "CONTENT_TYPE",
]

#: Content type advertised for ``/metrics`` responses.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Quantiles exposed per summary-rendered histogram.
_QUANTILES = (0.5, 0.99)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    """Map a dotted repro metric name onto the OpenMetrics charset."""
    out = _SANITIZE_RE.sub("_", name)
    if not out or not _NAME_RE.match(out):
        out = "_" + out
    return out


def _fmt_value(v: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


def to_openmetrics(
    registry: Optional[MetricsRegistry] = None,
    *,
    exemplars: Optional[ExemplarStore] = None,
) -> str:
    """Render the registry's current state as OpenMetrics text.

    Counters become ``<name>_total`` samples under a ``counter`` family,
    gauges are exposed verbatim, histograms become ``summary`` families
    with ``quantile="0.5"``/``quantile="0.99"`` samples (linearly
    interpolated from the shared bucket ladder), ``_count`` and ``_sum``.
    Dotted names are mapped to underscores; on the (pathological) event
    of two dotted names colliding after sanitisation, the first one wins
    and later ones are skipped so each family is declared exactly once.

    A histogram with recorded exemplars (in ``exemplars``, default the
    process-wide :data:`~repro.obs.reqtrace.EXEMPLARS` store) renders as a
    true ``histogram`` family instead: cumulative ``le`` buckets over the
    shared ladder (only bounds whose count changed, plus ``+Inf``), each
    bucket optionally suffixed ``# {trace_id="..."} value`` with the most
    recent trace that landed in it — the OpenMetrics exemplar syntax.
    """
    reg = registry if registry is not None else METRICS
    store = exemplars if exemplars is not None else EXEMPLARS
    snap = reg.snapshot()
    lines: list[str] = []
    seen: set[str] = set()

    for name in sorted(snap["counters"]):
        om = _sanitize(name)
        if om in seen:
            continue
        seen.add(om)
        lines.append(f"# TYPE {om} counter")
        lines.append(f"{om}_total {_fmt_value(snap['counters'][name])}")

    for name in sorted(snap["gauges"]):
        om = _sanitize(name)
        if om in seen:
            continue
        seen.add(om)
        lines.append(f"# TYPE {om} gauge")
        lines.append(f"{om} {_fmt_value(snap['gauges'][name])}")

    for name in sorted(snap["histograms"]):
        om = _sanitize(name)
        if om in seen:
            continue
        seen.add(om)
        summary = snap["histograms"][name]
        h = reg.histogram(name)
        ex = store.for_metric(name)
        if ex:
            lines.append(f"# TYPE {om} histogram")
            buckets = [int(b) for b in h.buckets]
            total = sum(buckets)
            cum = 0
            for i, bound in enumerate(BUCKET_BOUNDS):
                cum += buckets[i]
                if buckets[i] or i in ex:
                    lines.append(
                        f'{om}_bucket{{le="{_fmt_value(bound)}"}} {cum}'
                        f"{_exemplar_suffix(ex.get(i))}"
                    )
            lines.append(
                f'{om}_bucket{{le="+Inf"}} {total}'
                f"{_exemplar_suffix(ex.get(len(BUCKET_BOUNDS)))}"
            )
            lines.append(f"{om}_count {total}")
            lines.append(f"{om}_sum {_fmt_value(summary.get('total', 0.0))}")
        else:
            lines.append(f"# TYPE {om} summary")
            for q in _QUANTILES:
                lines.append(f'{om}{{quantile="{q}"}} {_fmt_value(h.quantile(q))}')
            lines.append(f"{om}_count {_fmt_value(summary.get('count', 0))}")
            lines.append(f"{om}_sum {_fmt_value(summary.get('total', 0.0))}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _exemplar_suffix(ex: Optional[tuple[str, float]]) -> str:
    """Render one bucket's exemplar as its OpenMetrics sample suffix."""
    if ex is None:
        return ""
    trace_id, value = ex
    return f' # {{trace_id="{trace_id}"}} {_fmt_value(value)}'


_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>(?!#)\S+)"
    r"(?: (?P<timestamp>(?!#)\S+))?"
    r"(?P<exemplar> # \{[^}]*\} \S+(?: \S+)?)?\Z"
)

_EXEMPLAR_RE = re.compile(
    r" # \{(?P<labels>[^}]*)\} (?P<value>\S+)(?: (?P<timestamp>\S+))?\Z"
)


def validate_openmetrics(text: str) -> dict[str, Any]:
    """Structurally validate an OpenMetrics payload; returns summary stats.

    Raises ``ValueError`` naming the first violation.  Enforced:

    * the payload is non-empty and its final line is exactly ``# EOF``
      (appearing once, at the end);
    * every ``# TYPE`` line declares a valid family name and a known
      type, at most once per family;
    * every sample line parses as
      ``name[{labels}] value [timestamp] [# {labels} value [timestamp]]``
      with a finite float value;
    * every sample belongs to a previously declared family, and families
      are grouped: a sample must belong to the *most recently* declared
      family (no interleaving);
    * the sample suffix matches the family type (``counter`` samples must
      use ``_total``; ``summary`` samples must be ``_count``, ``_sum`` or
      a bare ``quantile``-labelled sample; ``histogram`` samples must be
      ``_bucket`` — with an ``le`` label — ``_count`` or ``_sum``);
    * exemplars appear only where the spec allows them: on ``_bucket``
      samples of histogram families and ``_total`` samples of counter
      families, with a finite exemplar value.

    Returns ``{"n_families", "n_samples", "n_exemplars", "types"}``.
    """
    if not text.strip():
        raise ValueError("empty payload")
    lines = text.splitlines()
    if lines[-1] != "# EOF":
        raise ValueError("payload must end with '# EOF'")
    if lines.count("# EOF") != 1:
        raise ValueError("'# EOF' must appear exactly once")

    families: dict[str, str] = {}
    current_fam: Optional[str] = None
    n_samples = 0
    n_exemplars = 0
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line:
            raise ValueError(f"line {lineno}: blank line")
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            _, _, fam, ftype = parts
            if not _NAME_RE.match(fam):
                raise ValueError(f"line {lineno}: invalid family name {fam!r}")
            if ftype not in ("counter", "gauge", "summary", "histogram", "unknown"):
                raise ValueError(f"line {lineno}: unknown family type {ftype!r}")
            if fam in families:
                raise ValueError(f"line {lineno}: family {fam!r} declared twice")
            families[fam] = ftype
            current_fam = fam
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT comments are legal and unchecked
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unparseable sample: {line!r}")
        name = m.group("name")
        try:
            value = float(m.group("value"))
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value: {line!r}") from None
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"line {lineno}: non-finite value: {line!r}")
        fam, ftype = _resolve_family(name, families)
        if fam is None or ftype is None:
            raise ValueError(f"line {lineno}: sample {name!r} has no declared family")
        if fam != current_fam:
            raise ValueError(
                f"line {lineno}: sample {name!r} interleaves family {fam!r} "
                f"into the {current_fam!r} block"
            )
        labels = m.group("labels") or ""
        if ftype == "counter" and not name.endswith("_total"):
            raise ValueError(f"line {lineno}: counter sample {name!r} must end '_total'")
        if ftype == "summary" and name == fam and "quantile=" not in labels:
            raise ValueError(f"line {lineno}: summary sample {name!r} needs a quantile label")
        if ftype == "histogram":
            if not name.endswith(("_bucket", "_count", "_sum")):
                raise ValueError(
                    f"line {lineno}: histogram sample {name!r} must end "
                    "'_bucket', '_count' or '_sum'"
                )
            if name.endswith("_bucket") and "le=" not in labels:
                raise ValueError(
                    f"line {lineno}: histogram bucket {name!r} needs an 'le' label"
                )
        if m.group("exemplar"):
            allowed = (ftype == "histogram" and name.endswith("_bucket")) or (
                ftype == "counter" and name.endswith("_total")
            )
            if not allowed:
                raise ValueError(
                    f"line {lineno}: exemplar on {name!r} "
                    f"(only histogram buckets and counter totals may carry one)"
                )
            em = _EXEMPLAR_RE.match(m.group("exemplar"))
            if em is None:  # pragma: no cover - the outer regex already matched
                raise ValueError(f"line {lineno}: unparseable exemplar: {line!r}")
            try:
                ev = float(em.group("value"))
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric exemplar value: {line!r}"
                ) from None
            if ev != ev or ev in (float("inf"), float("-inf")):
                raise ValueError(f"line {lineno}: non-finite exemplar value: {line!r}")
            n_exemplars += 1
        n_samples += 1

    if not families:
        raise ValueError("no metric families declared")
    return {
        "n_families": len(families),
        "n_samples": n_samples,
        "n_exemplars": n_exemplars,
        "types": dict(families),
    }


def _resolve_family(
    sample: str, families: dict[str, str]
) -> tuple[Optional[str], Optional[str]]:
    """Match a sample name to its declared family per suffix rules."""
    for suffix in ("_total", "_count", "_sum", "_bucket", ""):
        if suffix and not sample.endswith(suffix):
            continue
        fam = sample[: len(sample) - len(suffix)] if suffix else sample
        ftype = families.get(fam)
        if ftype is not None:
            return fam, ftype
    return None, None


def telemetry_response(path: str, registry: MetricsRegistry) -> Optional[httpd.Reply]:
    """The reply to ``GET /metrics`` or ``/metrics.json``; None for any other path."""
    if path == "/metrics":
        return 200, CONTENT_TYPE, to_openmetrics(registry)
    if path == "/metrics.json":
        return 200, httpd.JSON, json.dumps({"snapshot": registry.snapshot()}, sort_keys=True)
    return None
