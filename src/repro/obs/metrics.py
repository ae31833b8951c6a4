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
    estimates — the resolution ``/metrics.json`` and the reports surface.  The
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
        interpolated ``p50``/``p99``; the bucket counts stay on
        :attr:`buckets`, which :meth:`quantile` interpolates.
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

    def reset(self) -> None:
        """Zero every metric (names stay registered)."""
        for c in self._counters.values():
            c.reset()
        for g in self._gauges.values():
            g.reset()
        for h in self._histograms.values():
            h.reset()


#: The process-wide registry every instrumented module ticks into.
METRICS = MetricsRegistry()
