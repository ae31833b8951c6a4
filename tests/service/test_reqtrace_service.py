"""Request tracing and the latency record through the live service, end to end."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.api import DynamicGraph
from repro.errors import WorkerCrashError
from repro.generators.parallel import iter_update_chunks
from repro.obs import METRICS, activate, span
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import RequestTracer
from repro.parallel.pool import TaskSpec, WorkerPool
from repro.service import GraphService

SCALE = 9
N = 1 << SCALE


def get_json(url):
    with urllib.request.urlopen(url, timeout=30) as r:
        assert r.status == 200
        return json.loads(r.read())


@pytest.fixture(scope="module")
def traced():
    """Live service with keep-every-trace sampling."""
    batches = list(iter_update_chunks(SCALE, 2 * N, seed=23, chunk_edges=512))
    service = GraphService(
        DynamicGraph(N),
        reqtrace=RequestTracer(head_every=1, slow_threshold_seconds=60.0),
    )
    handle = service.start_background()
    for c in batches:
        handle.submit(c)
    service.drainer.close()
    yield handle, service, batches
    handle.close()


def request_tree(service, name):
    """The most recent kept span tree for route ``name``."""
    records = [r for r in service.reqtrace.sampled() if r["name"] == name]
    assert records, f"no kept trace for {name}"
    return records[-1]


class TestSpanTree:
    def test_sharded_components_is_one_connected_tree(self, traced):
        # A serial /components: route -> executor -> epoch pin, labels
        # computed under the pin (a fresh service misses the label memo once).
        _, _, batches = traced
        service = GraphService(
            DynamicGraph(N),
            reqtrace=RequestTracer(head_every=1, slow_threshold_seconds=60.0),
        )
        with service.start_background() as handle:
            for c in batches:
                handle.submit(c)
            service.drainer.close()
            misses = METRICS.counter("service.epoch.cache_misses").value
            get_json(handle.url + "/components")
            assert METRICS.counter("service.epoch.cache_misses").value == misses + 1
        record = request_tree(service, "service.components")
        by_name = {e["name"]: e for e in record["events"]}
        chain = ["service.epoch.read", "service.exec.components", "service.components"]
        for child, parent in zip(chain, chain[1:]):
            assert by_name[child]["parent_id"] == by_name[parent]["span_id"]
        assert not [n for n in by_name if n.startswith("parallel.")]
        # single connected tree: every parent resolves inside the record
        ids = {e["span_id"] for e in record["events"]}
        roots = [e for e in record["events"] if e["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "service.components"
        assert all(
            e["parent_id"] in ids for e in record["events"] if e["parent_id"] is not None
        )
        # every span is stamped with the request identity
        assert all(
            e["attrs"]["trace_id"] == record["trace_id"]
            for e in record["events"]
            if e["parent_id"] is not None
        )

    def test_tree_exports_through_the_chrome_exporter(self, traced):
        handle, service, _ = traced
        get_json(handle.url + "/components")
        record = request_tree(service, "service.components")
        doc = to_chrome_trace(record["events"])
        assert validate_chrome_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert sorted(e["name"] for e in spans) == sorted(
            e["name"] for e in record["events"]
        )
        # no worker took part: every span is on the one parent-process lane
        assert {e["tid"] for e in spans} == {0}

    def test_drainer_batches_traced_with_epoch(self, traced):
        _, service, batches = traced
        applies = [
            r for r in service.reqtrace.sampled() if r["name"] == "service.apply_batch"
        ]
        assert applies, "drainer batches were not traced"
        assert applies[-1]["kind"] == "update"
        assert applies[-1]["epoch"] is not None
        names = {e["name"] for e in applies[-1]["events"]}
        assert {"service.drain.apply", "service.drain.rotate"} <= names
        # the kernels' own spans ride along, no second API
        assert {"update_engine.apply_stream", "api.snapshot"} <= names

    def test_exec_span_runs_on_executor_thread(self, traced):
        handle, service, _ = traced
        get_json(handle.url + "/connected?u=0&v=1")
        record = request_tree(service, "service.connected")
        execs = [e for e in record["events"] if e["name"] == "service.exec.connected"]
        assert execs and execs[0]["attrs"]["thread"] != "MainThread"

    def test_bfs_kernel_span_lands_under_the_request(self, traced):
        handle, service, _ = traced
        get_json(handle.url + "/bfs?source=3")
        record = request_tree(service, "service.bfs")
        by_name = {e["name"]: e for e in record["events"]}
        chain = ["core.bfs", "service.epoch.read", "service.exec.bfs", "service.bfs"]
        for child, parent in zip(chain, chain[1:]):
            assert by_name[child]["parent_id"] == by_name[parent]["span_id"]
        assert by_name["core.bfs"]["attrs"]["trace_id"] == record["trace_id"]

    def test_traced_bodies_bit_identical_to_untraced(self, traced):
        handle, service, batches = traced
        untraced = GraphService(DynamicGraph(N), reqtrace=False)
        plain = untraced.start_background()
        try:
            for c in batches:
                plain.submit(c)
            untraced.drainer.close()
            for path in (
                "/components?full=1",
                "/connected?u=0&v=1",
                "/component?v=7",
                "/bfs?source=3&full=1",
            ):
                assert get_json(handle.url + path) == get_json(plain.url + path)
        finally:
            plain.close()


class TestEndpoints:
    def test_debug_slow_shape(self, traced):
        handle, service, _ = traced
        get_json(handle.url + "/connected?u=0&v=1")
        debug = get_json(handle.url + "/debug/slow")
        assert debug["enabled"] is True
        assert debug["config"]["head_every"] == 1
        assert isinstance(debug["slow"], list)
        assert debug["recent"]  # summaries for every request
        assert "sampled" not in debug
        with_sampled = get_json(handle.url + "/debug/slow?sampled=1")
        assert with_sampled["sampled"]  # head_every=1 keeps everything

    def test_read_and_write_latency_in_metrics_json(self, traced):
        # Read and write latency both live in /metrics.json; /slo is no route.
        handle, _, batches = traced
        get_json(handle.url + "/connected?u=0&v=1")
        histograms = get_json(handle.url + "/metrics.json")["snapshot"]["histograms"]
        assert histograms["service.query.seconds"]["count"] >= 1
        assert histograms["service.updates.batch_seconds"]["count"] >= len(batches)
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(handle.url + "/slo", timeout=30)
        assert exc.value.code == 404

    def test_stats_carry_gauges_and_trace_fields(self, traced):
        handle, _, _ = traced
        get_json(handle.url + "/connected?u=0&v=1")
        stats = get_json(handle.url + "/stats")
        assert stats["queries_inflight"] == 0  # nothing mid-flight at rest
        assert stats["update_queue_depth"] == 0
        assert stats["reqtrace"] is True
        assert stats["slow_captured"] >= 0

    def test_metrics_json_carries_service_gauges(self, traced):
        # A scraper of /metrics.json reads the service's gauges at rest.
        handle, _, _ = traced
        get_json(handle.url + "/connected?u=0&v=1")
        gauges = get_json(handle.url + "/metrics.json")["snapshot"]["gauges"]
        assert gauges["service.queries.inflight"] == 0.0
        assert gauges["service.update_queue.depth"] == 0.0


class TestPoolRestart:
    def test_trace_context_survives_restart_without_orphans(self):
        tracer = RequestTracer(head_every=1, registry=MetricsRegistry())
        pool = WorkerPool(2, timeout=60.0).start()
        try:
            trace = tracer.start("service.components")
            with activate(trace.root):
                with span("shard.round1"):
                    with pytest.raises(WorkerCrashError):
                        pool.run_tasks(
                            [TaskSpec("selftest.exit", {})]
                            + [TaskSpec("selftest.echo", {"value": 1})] * 3
                        )
                pool.restart()
                with span("shard.round2"):
                    out = pool.run_tasks(
                        [TaskSpec("selftest.echo", {"value": k}) for k in range(4)]
                    )
            assert [o["echo"] for o in out] == [0, 1, 2, 3]
            record = tracer.finish(trace)
            events = record["events"]
            # Only the parent's spans: workers never trace, so neither
            # generation's tasks land in the request tree.
            assert sorted(e["name"] for e in events) == [
                "service.components", "shard.round1", "shard.round2",
            ]
            # no orphans anywhere: every span parents inside the tree
            ids = {e["span_id"] for e in events}
            assert all(
                e["parent_id"] in ids
                for e in events
                if e["parent_id"] is not None
            )
            assert validate_chrome_trace(to_chrome_trace(events)) == []
        finally:
            pool.shutdown()


class TestSlowStoreFaults:
    def test_throttled_batches_kept_fast_ones_not(self):
        tracer = RequestTracer(
            head_every=0, slow_threshold_seconds=0.05, registry=MetricsRegistry()
        )
        service = GraphService(DynamicGraph(N), reqtrace=tracer)
        handle = service.start_background()
        try:
            def drain(seed):
                batches = list(iter_update_chunks(SCALE, N, seed=seed, chunk_edges=64))
                before = len(tracer.recent())
                for c in batches:
                    handle.submit(c)
                deadline = time.monotonic() + 60
                while len(tracer.recent()) < before + len(batches):
                    assert time.monotonic() < deadline, "drain stalled"
                    time.sleep(0.01)
                return len(batches)

            service.drainer.throttle = 0.08  # fault injection: every batch breaches
            n_slow = drain(seed=5)
            slow = get_json(handle.url + "/debug/slow")["slow"]
            # one kept update trace per slow batch, each with its epoch
            assert len(slow) == n_slow
            assert all(r["kind"] == "update" and r["slow"] for r in slow)
            assert all(r["epoch"] is not None for r in slow)

            # recovery: fast batches are summarised, not kept
            service.drainer.throttle = 0.0
            drain(seed=6)
            assert len(get_json(handle.url + "/debug/slow")["slow"]) == n_slow

            # a second breach is a second run of slow traces
            service.drainer.throttle = 0.08
            drain(seed=7)
            assert len(get_json(handle.url + "/debug/slow")["slow"]) > n_slow
        finally:
            handle.close()
