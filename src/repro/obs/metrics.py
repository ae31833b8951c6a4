"""Process-wide counters, gauges and histograms for the hot paths.

The library's kernels already accumulate exact data-dependent work into
per-run structures (``UpdateStats``, BFS level lists, link-cut hop counts).
This module aggregates those into one *process-wide* registry so a whole
session — many streams, many kernels — is observable at a glance and can be
snapshotted into JSON next to a trace.

Design points:

* ticking happens at **phase granularity**, not per arc: ``apply_stream``
  folds a representation's ``UpdateStats`` into the registry once per
  stream, BFS once per traversal, and so on.  The per-update hot loops stay
  untouched, which is what keeps the disabled/enabled overhead invisible;
* metrics are **always on** (they are a handful of integer adds per kernel
  call); tracing is the opt-in part of the subsystem;
* naming is dotted and stable: ``adjacency.<kind>.<counter>``,
  ``update_engine.arc_ops``, ``bfs.edges_scanned``, ``connectivity.hops``,
  ``sim.evaluations``, ``sim.cache_hit_rate`` — dashboards and tests key on
  these.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from threading import Lock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "snapshot_delta",
    "BUCKET_BOUNDS",
]

#: Geometric bucket ladder shared by every histogram: half-octave steps
#: (factor √2) from 100 ns up to ~1.2e9, which covers both the duration
#: metrics (seconds) and the count-valued ones (arc ops, hops) the kernels
#: observe.  Values at or below the first bound share bucket 0, values
#: above the last share the overflow bucket; the observed min/max tighten
#: the edge buckets during interpolation, so outliers stay representable.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    1e-7 * math.sqrt(2.0) ** i for i in range(108)
)

#: Bucket count = one per bound plus the overflow bucket.
_N_BUCKETS = len(BUCKET_BOUNDS) + 1


def interpolated_quantile(
    buckets: list[int], count: int, vmin: float, vmax: float, q: float
) -> float:
    """Quantile ``q`` from bucket counts, linearly interpolated within buckets.

    Earlier revisions snapped a quantile to the upper bound of the bucket
    holding its rank, which made p50/p99 step functions of the bucket
    ladder.  Here the target rank is placed *proportionally* between the
    bucket's bounds (the edge buckets are clamped to the observed
    ``vmin``/``vmax``), so a uniform distribution reports quantiles within a bucket's resolution
    of the exact answer instead of up to a full bucket off.
    """
    if count <= 0:
        return 0.0
    q = min(max(q, 0.0), 1.0)
    target = q * count
    cum = 0
    for i, n in enumerate(buckets):
        if not n:
            continue
        if cum + n >= target:
            lo = vmin if i == 0 else BUCKET_BOUNDS[i - 1]
            hi = vmax if i >= len(BUCKET_BOUNDS) else BUCKET_BOUNDS[i]
            lo = max(lo, vmin)
            hi = min(hi, vmax)
            if hi < lo:
                hi = lo
            frac = (target - cum) / n
            return min(max(lo + (hi - lo) * frac, vmin), vmax)
        cum += n
    return vmax


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += int(n)

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """Last-written value (footprint bytes, live arc count, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Streaming summary of observed values with bucketed quantiles.

    Tracks count / total / min / max exactly plus per-bucket counts on the
    shared geometric ladder (:data:`BUCKET_BOUNDS`), from which
    :meth:`quantile` reports linearly interpolated p50/p99-style
    estimates — the resolution ``/metrics`` and the reports surface.  The
    raw distributions are still analysed offline from traces; the
    in-process histogram answers "how many, how much, how extreme, and
    roughly where the mass sits".
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.reset()

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self.buckets[bisect_left(BUCKET_BOUNDS, v)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile in ``[min, max]`` (0.0 when empty)."""
        if not self.count:
            return 0.0
        return interpolated_quantile(self.buckets, self.count, self.min, self.max, q)

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: list[int] = [0] * _N_BUCKETS

    def summary(self) -> dict:
        """JSON-safe summary; an empty histogram reports well-defined zeros.

        ``min``/``max`` are ``±inf`` sentinels internally while empty;
        leaking them would put non-finite floats (or ``NaN`` via
        arithmetic on them) into JSON artifacts, so the empty summary
        pins every field to zero instead.  Non-empty summaries carry the
        interpolated ``p50``/``p99`` plus the raw bucket counts so
        summaries merge across processes without losing quantile
        resolution.
        """
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named metric store with lazy creation and JSON snapshots."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = Lock()

    # -- accessors (get-or-create) ------------------------------------- #

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram(name))
        return h

    # -- convenience tickers ------------------------------------------- #

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set(self, name: str, v: float) -> None:
        self.gauge(name).set(v)

    def observe(self, name: str, v: float) -> None:
        self.histogram(name).observe(v)

    def inc_many(self, prefix: str, values: dict) -> None:
        """Tick several counters under one dotted prefix (skips zeros)."""
        for key, n in values.items():
            if n:
                self.counter(f"{prefix}.{key}").inc(n)

    # -- inspection ----------------------------------------------------- #

    def top_counters(self, k: int = 10) -> list[tuple[str, int]]:
        """The ``k`` largest counters, descending (name tie-break)."""
        ranked = sorted(self._counters.items(), key=lambda kv: (-kv[1].value, kv[0]))
        return [(name, c.value) for name, c in ranked[:k] if c.value]

    def snapshot(self) -> dict:
        """JSON-safe snapshot of every metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(
        self,
        snapshot: dict,
        *,
        prefix: str = "",
        rollup: str | None = None,
    ) -> None:
        """Fold another registry's :meth:`snapshot` (or delta) into this one.

        Used by the process backend to aggregate worker telemetry: counters
        *add* (under ``prefix.`` when given, and again under ``rollup.`` so
        a combined total exists next to the per-worker series), gauges
        *overwrite* under the prefix and take the *max* under the rollup
        (the rollup of a last-value metric is its high-water mark), and
        histogram summaries merge count/total/min/max exactly.
        """

        def names(base: str) -> list[str]:
            out = [f"{prefix}.{base}" if prefix else base]
            if rollup:
                out.append(f"{rollup}.{base}")
            return out

        for base, value in snapshot.get("counters", {}).items():
            if value:
                for name in names(base):
                    self.counter(name).inc(int(value))
        for base, value in snapshot.get("gauges", {}).items():
            target = f"{prefix}.{base}" if prefix else base
            self.gauge(target).set(float(value))
            if rollup:
                g = self.gauge(f"{rollup}.{base}")
                g.set(max(g.value, float(value)))
        for base, summary in snapshot.get("histograms", {}).items():
            count = int(summary.get("count", 0))
            if not count:
                continue
            buckets = summary.get("buckets")
            for name in names(base):
                h = self.histogram(name)
                h.count += count
                h.total += float(summary.get("total", 0.0))
                h.min = min(h.min, float(summary.get("min", 0.0)))
                h.max = max(h.max, float(summary.get("max", 0.0)))
                if isinstance(buckets, list):
                    for i, n in enumerate(buckets[: len(h.buckets)]):
                        if n:
                            h.buckets[i] += int(n)
                else:
                    # A summary without bucket data (older artifact):
                    # attribute its mass to the bucket of its mean so the
                    # merged quantiles stay defined, if coarsely.
                    h.buckets[
                        bisect_left(BUCKET_BOUNDS, float(summary.get("total", 0.0)) / count)
                    ] += count

    def reset(self) -> None:
        """Zero every metric (names stay registered)."""
        for c in self._counters.values():
            c.reset()
        for g in self._gauges.values():
            g.reset()
        for h in self._histograms.values():
            h.reset()


def snapshot_delta(before: dict, after: dict) -> dict:
    """What happened between two :meth:`MetricsRegistry.snapshot` calls.

    Counters difference (only positive deltas survive); gauges keep the
    ``after`` value when it changed; histogram summaries difference their
    count/total and keep the ``after`` extremes (exact extremes of an
    interval are not recoverable from two endpoint summaries — for the
    worker-telemetry use case the registry is fresh per process, so the
    approximation is exact in practice).  The result is itself snapshot-
    shaped, so it feeds straight into :meth:`MetricsRegistry
    .merge_snapshot`.
    """
    counters = {}
    before_c = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        delta = value - before_c.get(name, 0)
        if delta > 0:
            counters[name] = delta
    gauges = {}
    before_g = before.get("gauges", {})
    for name, value in after.get("gauges", {}).items():
        if name not in before_g or before_g[name] != value:
            gauges[name] = value
    histograms = {}
    before_h = before.get("histograms", {})
    for name, summary in after.get("histograms", {}).items():
        prior = before_h.get(name, {})
        count = int(summary.get("count", 0)) - int(prior.get("count", 0))
        if count > 0:
            entry = {
                "count": count,
                "total": float(summary.get("total", 0.0)) - float(prior.get("total", 0.0)),
                "min": summary.get("min", 0.0),
                "max": summary.get("max", 0.0),
            }
            after_b = summary.get("buckets")
            if isinstance(after_b, list):
                prior_b = prior.get("buckets") or [0] * len(after_b)
                entry["buckets"] = [
                    max(0, int(a) - int(b))
                    for a, b in zip(after_b, list(prior_b) + [0] * len(after_b))
                ]
            histograms[name] = entry
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


#: The process-wide registry every instrumented module ticks into.
METRICS = MetricsRegistry()
