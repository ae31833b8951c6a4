"""Continuous telemetry: background collection, time-series windows, watchdog.

Everything in :mod:`repro.obs` so far is *post-hoc*: traces and manifests
are written while a run executes but read after it finishes.
A long-running service (the streaming-connectivity server the ROADMAP
builds toward) needs the complementary *live* view — what is the process
doing right now, and is anything wedged.  This module provides it in three
pieces:

* :class:`TelemetryCollector` — a daemon thread that scrapes the
  process-wide :data:`~repro.obs.metrics.METRICS` registry on a fixed
  interval and records each metric into a bounded ring-buffer window;
* :class:`TimeSeriesStore` / :class:`MetricWindow` — the per-metric
  windows, with min/max/mean/p50/p99 rollups (exact, linearly
  interpolated over the windowed samples; counters roll up their
  per-interval *rates*, gauges their levels);
* :class:`Watchdog` — consumes :class:`~repro.parallel.pool.WorkerPool`
  heartbeats to detect dead, stalled, or memory-leaking workers and emits
  structured ``type="alert"`` events into the trace stream.  It reuses
  the pool's existing failure vocabulary — alerts name
  :class:`~repro.errors.WorkerCrashError`, the same type the pool raises
  when the condition matures into a round failure — instead of inventing
  a parallel taxonomy.

The lifecycle mirrors tracing: :func:`enable_live_telemetry` installs a
process-wide collector, :func:`disable_live_telemetry` stops and removes
it.  Disabled is the default and costs exactly nothing — no hot path
consults the collector; when it is not running there is no thread, no
timer, and no per-call check anywhere in the kernels.

>>> from repro.obs.live import TelemetryCollector
>>> from repro.obs.metrics import MetricsRegistry
>>> reg = MetricsRegistry()
>>> col = TelemetryCollector(reg, interval=3600)   # tick manually
>>> reg.inc("demo.ops", 10)
>>> col.tick(now=0.0)
>>> reg.inc("demo.ops", 30)
>>> col.tick(now=2.0)
>>> col.store.rollup("demo.ops")["last"]
40
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import emit_event

__all__ = [
    "MetricWindow",
    "TimeSeriesStore",
    "TelemetryCollector",
    "Watchdog",
    "enable_live_telemetry",
    "disable_live_telemetry",
    "live_telemetry_enabled",
    "current_collector",
]

#: Default scrape interval in seconds.
DEFAULT_INTERVAL = 1.0

#: Default per-metric window length (samples retained per metric).
DEFAULT_WINDOW = 512

#: Default cap on distinct tracked series (bounds collector memory).
DEFAULT_MAX_SERIES = 2048


def _exact_quantile(ordered: list[float], q: float) -> float:
    """Quantile of an already-sorted sample list, linearly interpolated."""
    n = len(ordered)
    if not n:
        return 0.0
    pos = min(max(q, 0.0), 1.0) * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


class MetricWindow:
    """Bounded ring buffer of (monotonic time, value) samples for one metric.

    ``kind`` steers the rollup: a ``counter`` (or a histogram's cumulative
    observation count) is monotone, so its rollup describes the
    *per-interval rates* derived from consecutive samples; a ``gauge``
    rollup describes the sampled levels directly.
    """

    __slots__ = ("name", "kind", "samples")

    def __init__(self, name: str, kind: str, maxlen: int) -> None:
        self.name = name
        self.kind = kind
        self.samples: deque[tuple[float, float]] = deque(maxlen=maxlen)

    def record(self, t: float, value: float) -> None:
        """Append one sample (evicting the oldest once the window is full)."""
        self.samples.append((t, float(value)))

    def series(self) -> list[float]:
        """The rollup input series: interval rates for counters, levels for gauges."""
        pts = list(self.samples)
        if self.kind == "gauge":
            return [v for _, v in pts]
        rates: list[float] = []
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            dt = t1 - t0
            if dt > 0:
                rates.append(max(0.0, v1 - v0) / dt)
        return rates

    def rollup(self) -> dict[str, Any]:
        """min/max/mean/p50/p99 over the window, plus the last raw sample."""
        pts = list(self.samples)
        last = pts[-1][1] if pts else 0.0
        series = self.series()
        out: dict[str, Any] = {
            "kind": self.kind,
            "samples": len(pts),
            "last": int(last) if self.kind != "gauge" and last == int(last) else last,
        }
        if series:
            ordered = sorted(series)
            out.update(
                min=ordered[0],
                max=ordered[-1],
                mean=sum(series) / len(series),
                p50=_exact_quantile(ordered, 0.50),
                p99=_exact_quantile(ordered, 0.99),
            )
        else:
            out.update(min=0.0, max=0.0, mean=0.0, p50=0.0, p99=0.0)
        return out


class TimeSeriesStore:
    """Per-metric :class:`MetricWindow` map with a bounded series count.

    Insertion order is preserved (rollups render stably); series beyond
    ``max_series`` are dropped and counted rather than evicting existing
    windows — a metric-name explosion must not silently rotate history
    away.
    """

    def __init__(
        self, *, window: int = DEFAULT_WINDOW, max_series: int = DEFAULT_MAX_SERIES
    ) -> None:
        self.window = int(window)
        self.max_series = int(max_series)
        self._windows: "OrderedDict[str, MetricWindow]" = OrderedDict()
        self.n_dropped_series = 0
        self._lock = threading.Lock()

    def record(self, kind: str, name: str, t: float, value: float) -> None:
        """Record one sample for ``name`` (creating its window on first use)."""
        w = self._windows.get(name)
        if w is None:
            with self._lock:
                w = self._windows.get(name)
                if w is None:
                    if len(self._windows) >= self.max_series:
                        self.n_dropped_series += 1
                        return
                    w = MetricWindow(name, kind, self.window)
                    self._windows[name] = w
        w.record(t, value)

    def window_of(self, name: str) -> Optional[MetricWindow]:
        """The window tracking ``name``, if any."""
        return self._windows.get(name)

    def names(self) -> list[str]:
        """Tracked series names, in first-seen order."""
        return list(self._windows)

    def rollup(self, name: str) -> dict[str, Any]:
        """Rollup for one metric ({} when the metric is not tracked)."""
        w = self._windows.get(name)
        return w.rollup() if w is not None else {}

    def rollups(self) -> dict[str, dict[str, Any]]:
        """Rollups for every tracked metric, keyed by name."""
        return {name: w.rollup() for name, w in list(self._windows.items())}

    def __len__(self) -> int:
        return len(self._windows)


class Watchdog:
    """Worker-health monitor over a pool's heartbeat channel.

    ``pool`` is anything exposing ``heartbeats()`` (per-worker heartbeat
    dicts as :class:`~repro.parallel.pool.WorkerPool` records them) and
    ``worker_health()`` (per-worker process liveness).  :meth:`check`
    classifies each worker and, for a newly detected condition, emits one
    ``type="alert"`` trace event and ticks ``obs.watchdog.*`` counters:

    * ``worker_dead`` — the process is gone (the condition
      :class:`~repro.errors.WorkerCrashError` reports when a round is
      active; the watchdog sees it even between rounds);
    * ``worker_stalled`` — heartbeats show the worker busy on the same
      task for longer than ``stall_after`` seconds;
    * ``worker_memory`` — the worker's RSS exceeds ``rss_limit_bytes``.

    Alerts are de-duplicated per (worker, kind, task) episode so a stuck
    worker produces one alert, not one per scrape.

    ``pool`` may be None for an SLO-only watchdog: worker classification is
    skipped and :meth:`check` only evaluates the trackers registered via
    :meth:`attach_slo`, whose ``slo_burn_*`` alerts are folded into
    :attr:`alerts` alongside the worker ones.
    """

    def __init__(
        self,
        pool: Any = None,
        *,
        stall_after: float = 5.0,
        rss_limit_bytes: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.pool = pool
        self.stall_after = float(stall_after)
        self.rss_limit_bytes = rss_limit_bytes
        self.registry = registry if registry is not None else METRICS
        self.clock = clock
        self.alerts: list[dict[str, Any]] = []
        self._episodes: set[tuple[Any, ...]] = set()
        #: Attached SLO trackers and how many of their alerts we've copied.
        self._slos: list[Any] = []
        self._slo_seen: dict[int, int] = {}

    def attach_slo(self, tracker: Any) -> Any:
        """Fold an :class:`~repro.obs.slo.SloTracker`'s alerts into this watchdog.

        Every :meth:`check` also runs ``tracker.check()`` and copies any
        alerts the tracker raised since the last check (including ones
        raised out-of-band) into :attr:`alerts`.  Returns the tracker.
        """
        self._slos.append(tracker)
        self._slo_seen[id(tracker)] = len(tracker.alerts)
        return tracker

    # -- classification ------------------------------------------------- #

    def _alert(
        self, kind: str, worker: int, episode: tuple[Any, ...], **fields: Any
    ) -> Optional[dict[str, Any]]:
        if episode in self._episodes:
            return None
        self._episodes.add(episode)
        alert: dict[str, Any] = {
            "kind": kind,
            "worker": worker,
            "error_type": "WorkerCrashError",
            **fields,
        }
        self.alerts.append(alert)
        self.registry.inc("obs.watchdog.alerts")
        self.registry.inc(f"obs.watchdog.{kind}")
        emit_event(f"watchdog.{kind}", type="alert", **alert)
        return alert

    def check(self, now: Optional[float] = None) -> list[dict[str, Any]]:
        """Classify every worker once; returns the *newly raised* alerts."""
        t = self.clock() if now is None else now
        new: list[dict[str, Any]] = []
        for tracker in self._slos:
            tracker.check()  # tracker uses its own clock (may differ from ours)
            seen = self._slo_seen.get(id(tracker), 0)
            fresh = list(tracker.alerts[seen:])
            self._slo_seen[id(tracker)] = seen + len(fresh)
            self.alerts.extend(fresh)
            new.extend(fresh)
        if self.pool is None:
            return new
        health: Iterable[Mapping[str, Any]] = self.pool.worker_health()
        beats: Mapping[int, Mapping[str, Any]] = self.pool.heartbeats()
        for h in health:
            wid = int(h["worker"])
            if not h.get("alive", True):
                a = self._alert(
                    "worker_dead", wid, ("dead", wid),
                    exitcode=h.get("exitcode"),
                )
                if a:
                    new.append(a)
                continue
            hb = beats.get(wid)
            if hb is None:
                continue
            task_id = hb.get("task_id")
            if task_id is not None:
                # Busy age, clock-skew free: the worker reports how long it
                # has been on the task; the parent adds heartbeat staleness.
                busy = float(hb.get("busy_seconds", 0.0))
                stale = max(0.0, t - float(hb.get("received", t)))
                if busy + stale > self.stall_after:
                    a = self._alert(
                        "worker_stalled", wid, ("stall", wid, task_id),
                        task_id=task_id,
                        task=hb.get("task"),
                        busy_seconds=round(busy + stale, 3),
                        stall_after=self.stall_after,
                    )
                    if a:
                        new.append(a)
            rss = hb.get("rss_bytes")
            if (
                self.rss_limit_bytes is not None
                and rss is not None
                and int(rss) > self.rss_limit_bytes
            ):
                a = self._alert(
                    "worker_memory", wid, ("memory", wid),
                    rss_bytes=int(rss),
                    rss_limit_bytes=self.rss_limit_bytes,
                )
                if a:
                    new.append(a)
            elif self.rss_limit_bytes is not None and rss is not None:
                # RSS back under the limit: close the episode so a future
                # breach alerts again.
                self._episodes.discard(("memory", wid))
        return new


class TelemetryCollector:
    """Background scraper turning the metrics registry into time series.

    One daemon thread wakes every ``interval`` seconds, snapshots the
    registry, and records every counter (cumulative value), gauge (level)
    and histogram (cumulative observation count as ``<name>.count``) into
    the bounded :class:`TimeSeriesStore`.  Attached :class:`Watchdog`\\ s
    are checked on the same cadence, so worker-health detection needs no
    thread of its own.

    ``tick()`` is public and deterministic: tests (and one-shot scrapes)
    drive the collector without the thread by calling it directly.  The
    collector observes its own cost into ``obs.live.scrape_seconds`` —
    the overhead contract (<2% on a live workload, exactly 0 when
    disabled) is gated in ``benchmarks/test_obs_overhead.py``.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        interval: float = DEFAULT_INTERVAL,
        window: int = DEFAULT_WINDOW,
        max_series: int = DEFAULT_MAX_SERIES,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry if registry is not None else METRICS
        self.interval = float(interval)
        self.clock = clock
        self.store = TimeSeriesStore(window=window, max_series=max_series)
        self.n_ticks = 0
        self._watchdogs: list[Watchdog] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------ #

    @property
    def running(self) -> bool:
        """True while the scrape thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TelemetryCollector":
        """Launch the scrape thread (idempotent; returns ``self``)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry-collector", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, final_tick: bool = True) -> None:
        """Stop the scrape thread (optionally scraping once more first)."""
        thread = self._thread
        self._stop.set()
        if thread is not None:
            thread.join(timeout=max(1.0, 2 * self.interval))
            self._thread = None
        if final_tick:
            self.tick()

    def __enter__(self) -> "TelemetryCollector":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception:  # pragma: no cover - keep scraping on bad tick
                self.registry.inc("obs.live.tick_errors")

    # -- scraping ------------------------------------------------------- #

    def attach_watchdog(self, watchdog: Watchdog) -> Watchdog:
        """Check ``watchdog`` on every tick; returns it."""
        self._watchdogs.append(watchdog)
        return watchdog

    def tick(self, now: Optional[float] = None) -> None:
        """One scrape: snapshot the registry, record windows, run watchdogs."""
        t = self.clock() if now is None else now
        t0 = time.perf_counter()
        snap = self.registry.snapshot()
        store = self.store
        for name, value in snap["counters"].items():
            store.record("counter", name, t, float(value))
        for name, value in snap["gauges"].items():
            store.record("gauge", name, t, float(value))
        for name, summary in snap["histograms"].items():
            store.record("counter", f"{name}.count", t, float(summary.get("count", 0)))
        for wd in self._watchdogs:
            wd.check(t)
        self.n_ticks += 1
        self.registry.inc("obs.live.ticks")
        self.registry.observe("obs.live.scrape_seconds", time.perf_counter() - t0)


#: The process-wide collector (None = live telemetry disabled).
_COLLECTOR: Optional[TelemetryCollector] = None


def enable_live_telemetry(
    *,
    interval: float = DEFAULT_INTERVAL,
    registry: Optional[MetricsRegistry] = None,
    window: int = DEFAULT_WINDOW,
    max_series: int = DEFAULT_MAX_SERIES,
) -> TelemetryCollector:
    """Install and start the process-wide collector; returns it.

    Idempotent in effect: an existing collector is stopped and replaced,
    mirroring :func:`~repro.obs.trace.enable_tracing`.
    """
    global _COLLECTOR
    if _COLLECTOR is not None:
        _COLLECTOR.stop(final_tick=False)
    _COLLECTOR = TelemetryCollector(
        registry, interval=interval, window=window, max_series=max_series
    )
    _COLLECTOR.start()
    return _COLLECTOR


def disable_live_telemetry() -> None:
    """Stop and remove the process-wide collector (no-op when absent)."""
    global _COLLECTOR
    if _COLLECTOR is not None:
        _COLLECTOR.stop(final_tick=False)
        _COLLECTOR = None


def live_telemetry_enabled() -> bool:
    """True while a process-wide collector is installed."""
    return _COLLECTOR is not None


def current_collector() -> Optional[TelemetryCollector]:
    """The process-wide collector, or None when live telemetry is off."""
    return _COLLECTOR
