"""The service's latency record: two histograms and the request traces.

How fast reads and writes are is answered by the ``service.query.seconds``
and ``service.updates.batch_seconds`` histograms of the process registry
(what ``bench/serve.py`` reads), and which requests were slow by the
``kind="update"`` / ``kind="query"`` traces the
:class:`~repro.obs.reqtrace.RequestTracer` keeps for ``GET /debug/slow``.
"""

import json
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.api import DynamicGraph
from repro.generators.parallel import iter_update_chunks
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.reqtrace import RequestTracer
from repro.service import GraphService
from repro.service.drainer import UpdateDrainer
from repro.service.epoch import EpochStore

SCALE = 6
N = 1 << SCALE
QUERY, UPDATE = "service.query.seconds", "service.updates.batch_seconds"


def tracer(**kw):
    kw.setdefault("head_every", 0)
    return RequestTracer(registry=MetricsRegistry(), **kw)


def batches(seed=5):
    return list(iter_update_chunks(SCALE, N, seed=seed, chunk_edges=16))


def count(name):
    return METRICS.histogram(name).count


@contextmanager
def serving(rt):
    handle = GraphService(DynamicGraph(N), query_threads=1, reqtrace=rt).start_background()
    try:
        yield handle
    finally:
        handle.close()


def get(url):
    with urllib.request.urlopen(url, timeout=30) as r:
        return json.loads(r.read())


def drain(rt, streams, *, throttle=0.0):
    """Apply ``streams`` through a drainer traced by ``rt``; wait for all of them."""
    drainer = UpdateDrainer(DynamicGraph(N), EpochStore(), reqtrace=rt)
    drainer.throttle = throttle
    drainer.start()
    for s in streams:
        drainer.submit(s)
    drainer.close()
    return drainer


def updates(rt):
    return [r for r in rt.recent() if r["kind"] == "update"]


class TestBurnRates:
    def test_all_good_is_zero_burn(self):
        rt = tracer()
        before = count(QUERY)
        with serving(rt) as handle:
            for v in range(5):
                get(f"{handle.url}/connected?u=0&v={v}")
        assert count(QUERY) == before + 5
        assert [r["status"] for r in rt.recent()] == [200] * 5
        assert all(r["error"] is None for r in rt.recent())

    def test_all_slow_burns_the_full_budget_ratio(self):
        rt = tracer(slow_threshold_seconds=0.0)
        with serving(rt) as handle:
            for v in range(5):
                get(f"{handle.url}/component?v={v}")
            slow = get(handle.url + "/debug/slow")["slow"]
        assert len(slow) == 5 and all(r["slow"] and r["kind"] == "query" for r in slow)
        assert all(r["sampled"] == "tail" and r["events"] for r in slow)

    def test_errors_burn_availability_not_latency(self):
        rt = tracer()
        before = count(QUERY)
        with serving(rt) as handle:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{handle.url}/connected?u=0&v={N}", timeout=30)
            assert exc.value.code == 400
        assert count(QUERY) == before  # only answered requests are timed
        (record,) = rt.recent()
        assert (record["status"], record["error"]) == (400, "GraphError")

    def test_old_events_age_out_of_the_window(self):
        rt = tracer(slow_threshold_seconds=0.0, max_slow=3)
        with serving(rt) as handle:
            for v in range(8):
                get(f"{handle.url}/component?v={v}")
        slow = rt.slow()
        assert len(slow) == 3  # bounded: the oldest aged out
        assert [r["request_id"] for r in slow] == [6, 7, 8]

    def test_empty_windows_rejected(self):
        rt = tracer(slow_threshold_seconds=0.0, max_slow=0)
        drain(rt, batches())
        assert rt.slow() == []  # a zero-sized store keeps nothing ...
        assert rt.registry.counter("obs.reqtrace.slow").value == len(batches())  # ... counted


class TestEpisodeAlerts:
    def test_alert_fires_once_per_episode(self):
        rt = tracer()
        streams = batches()
        before = count(UPDATE)
        drainer = drain(rt, streams)
        assert drainer.n_batches == len(streams)
        assert len(updates(rt)) == len(streams)  # one update trace per batch
        assert count(UPDATE) == before + len(streams)
        assert {r["name"] for r in updates(rt)} == {"service.apply_batch"}

    def test_short_window_alone_does_not_alert(self):
        rt = tracer(slow_threshold_seconds=60.0)
        drain(rt, batches())
        assert rt.slow() == []  # fast batches are summarised, not kept
        assert updates(rt) and not any(r["slow"] for r in updates(rt))

    def test_recovery_rearms_and_second_episode_fires(self):
        rt = tracer(slow_threshold_seconds=0.05)
        throttled = batches(seed=5)
        drain(rt, throttled, throttle=0.08)  # fault injection: every batch slow
        assert len(rt.slow()) == len(throttled)
        drain(rt, batches(seed=6))  # recovered: nothing new is slow
        assert len(rt.slow()) == len(throttled)
        drain(rt, throttled, throttle=0.08)  # a second slow episode
        assert len(rt.slow()) == 2 * len(throttled)
        assert all(r["kind"] == "update" and r["epoch"] is not None for r in rt.slow())

    def test_latency_and_availability_are_independent_episodes(self):
        rt = tracer()
        queries, writes = count(QUERY), count(UPDATE)
        drain(rt, batches())
        assert count(QUERY) == queries  # batches never tick the read histogram
        with serving(rt) as handle:
            get(handle.url + "/components")
        assert count(QUERY) == queries + 1
        assert count(UPDATE) == writes + len(batches())

    def test_alerts_tick_registry_counters(self):
        rt = tracer(slow_threshold_seconds=0.0)
        drain(rt, batches())
        counters = rt.registry.snapshot()["counters"]
        assert counters["obs.reqtrace.requests"] == len(batches())
        assert counters["obs.reqtrace.slow"] == len(batches())


class TestWatchdogIntegration:
    def test_poolless_watchdog_forwards_slo_alerts(self):
        # No process pool: update batches still reach /debug/slow.
        rt = tracer(slow_threshold_seconds=0.0)
        with serving(rt) as handle:
            for s in batches():
                handle.submit(s)
            handle.service.drainer.close()
            debug = get(handle.url + "/debug/slow")
        kinds = [r["kind"] for r in debug["slow"]]
        assert kinds.count("update") == len(batches())

    def test_out_of_band_tracker_alerts_are_still_collected(self):
        # A drainer outside any service records its batches the same way.
        rt = tracer(slow_threshold_seconds=0.0)
        drain(rt, batches())
        names = {e["name"] for e in rt.slow()[-1]["events"]}
        assert {"service.apply_batch", "service.drain.apply", "service.drain.rotate"} <= names

    def test_attach_skips_alerts_from_before_attachment(self):
        drain(tracer(slow_threshold_seconds=0.0), batches())
        fresh = tracer(slow_threshold_seconds=0.0)
        assert count(UPDATE) > 0
        assert fresh.slow() == [] and fresh.recent() == []  # history is not replayed


class TestState:
    def test_state_is_json_ready_and_complete(self):
        rt = tracer(head_every=1, slow_threshold_seconds=0.0)
        with serving(rt) as handle:
            get(handle.url + "/connected?u=0&v=1")
            with urllib.request.urlopen(handle.url + "/debug/slow?sampled=1", timeout=30) as r:
                state = json.loads(r.read())
        assert sorted(state) == ["config", "enabled", "recent", "sampled", "slow"]
        assert state["enabled"] is True and state["config"] == rt.config()
        (record,) = state["slow"]
        assert record["kind"] == "query" and record["status"] == 200
        assert json.loads(json.dumps(record)) == record
