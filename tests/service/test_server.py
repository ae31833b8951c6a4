"""HTTP front end: endpoints, error codes, the ``/metrics.json`` snapshot, bit-identity."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import DynamicGraph
from repro.core.bfs import bfs
from repro.core.components import connected_components
from repro.generators.parallel import iter_update_chunks
from repro.obs import METRICS
from repro.service import GraphService

SCALE = 9
N = 1 << SCALE


def fetch(url, timeout=30.0):
    with urllib.request.urlopen(url, timeout=timeout) as r:
        body = r.read().decode()
        ctype = r.headers.get("Content-Type", "")
        return r.status, ctype, body


def get_json(url):
    status, _, body = fetch(url)
    return status, json.loads(body)


@pytest.fixture(scope="module")
def served():
    """A service with a fully-drained scale-9 stream, plus its batch list."""
    batches = list(iter_update_chunks(SCALE, 2 * N, seed=41, chunk_edges=512))
    service = GraphService(DynamicGraph(N), query_threads=4)
    handle = service.start_background()
    for c in batches:
        handle.submit(c)
    service.drainer.close()  # drain deterministically before queries
    yield handle, service, batches
    handle.close()


class TestEndpoints:
    def test_healthz(self, served):
        handle, _, _ = served
        status, body = get_json(handle.url + "/healthz")
        assert status == 200 and body["ok"] is True

    def test_stats_reflect_drained_stream(self, served):
        handle, service, batches = served
        _, stats = get_json(handle.url + "/stats")
        assert stats["update_queue_depth"] == 0
        assert stats["epoch_lag"] == 0
        assert stats["batches_applied"] == len(batches)
        assert stats["updates_applied"] == sum(len(c) for c in batches)

    def test_connected_matches_labels(self, served):
        handle, service, _ = served
        labels = connected_components(service.graph.snapshot()).labels
        for u, v in [(0, 1), (3, 200), (N - 1, N - 2)]:
            _, body = get_json(f"{handle.url}/connected?u={u}&v={v}")
            assert body["connected"] == bool(labels[u] == labels[v])

    def test_components_bit_identical_to_serial(self, served):
        handle, service, _ = served
        _, body = get_json(handle.url + "/components?full=1")
        expected = connected_components(service.graph.snapshot())
        assert np.array_equal(np.asarray(body["labels"]), expected.labels)
        assert body["n_components"] == expected.n_components

    def test_bfs_bit_identical_to_serial(self, served):
        handle, service, _ = served
        _, body = get_json(handle.url + "/bfs?source=7&full=1")
        expected = bfs(service.graph.snapshot(), 7)
        assert np.array_equal(np.asarray(body["dist"]), expected.dist)
        assert body["n_reached"] == expected.n_reached
        assert body["n_levels"] == expected.n_levels

    def test_component_size(self, served):
        handle, service, _ = served
        labels = connected_components(service.graph.snapshot()).labels
        _, body = get_json(handle.url + "/component?v=5")
        assert body["label"] == int(labels[5])
        assert body["size"] == int(np.count_nonzero(labels == labels[5]))

    def test_metrics_payload_validates(self, served):
        handle, _, _ = served
        get_json(handle.url + "/connected?u=0&v=1")
        status, ctype, body = fetch(handle.url + "/metrics.json")
        assert status == 200 and ctype.startswith("application/json")
        (snapshot,) = json.loads(body).values()
        assert sorted(snapshot) == ["counters", "gauges", "histograms"]
        assert snapshot["counters"]["service.queries"] >= 1
        assert snapshot["histograms"]["service.query.seconds"]["count"] >= 1

    def test_stop_releases_socket(self):
        handle = GraphService(DynamicGraph(4), query_threads=1).start_background()
        url = handle.url
        handle.close()
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(url + "/healthz", timeout=0.5)


class TestMetricsJson:
    """``/metrics.json``: the process registry's snapshot, nothing else."""

    def test_metrics_json_body_is_the_registry_snapshot(self, served):
        handle, _, _ = served
        before = json.dumps({"snapshot": METRICS.snapshot()}, sort_keys=True)
        _, _, body = fetch(handle.url + "/metrics.json")
        assert body == before == json.dumps({"snapshot": METRICS.snapshot()}, sort_keys=True)

    def test_metrics_json_includes_rollups(self, served):
        handle, _, _ = served
        METRICS.inc("updates.applied", 7)
        _, payload = get_json(handle.url + "/metrics.json")
        assert list(payload) == ["snapshot"]  # the registry snapshot alone
        assert payload["snapshot"]["counters"]["updates.applied"] >= 7


class TestErrors:
    def test_unknown_vertex_is_400(self, served):
        handle, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(f"{handle.url}/connected?u=0&v={N + 5}")
        assert exc.value.code == 400
        assert "out of range" in json.loads(exc.value.read())["error"]

    def test_missing_parameter_is_400(self, served):
        handle, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(handle.url + "/bfs")
        assert exc.value.code == 400

    def test_unknown_route_is_404(self, served):
        handle, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(handle.url + "/nope")
        assert exc.value.code == 404

    def test_retired_routes_are_404(self, served):
        # The registry is served as /metrics.json only: /metrics and /slo are no routes.
        handle, _, _ = served
        for path in ("/slo", "/metrics"):
            with pytest.raises(urllib.error.HTTPError) as exc:
                fetch(handle.url + path)
            assert exc.value.code == 404

    def test_non_get_is_405(self, served):
        handle, _, _ = served
        req = urllib.request.Request(
            handle.url + "/stats", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 405


class TestConcurrentServing:
    def test_queries_succeed_while_stream_drains(self):
        """Readers and the writer make progress together, answers stay sane."""
        batches = list(iter_update_chunks(SCALE, 4 * N, seed=43, chunk_edges=256))
        service = GraphService(DynamicGraph(N), query_threads=4)
        errors: list[BaseException] = []
        answers: list[dict] = []
        with service.start_background() as handle:
            def query_loop():
                try:
                    for _ in range(20):
                        _, body = get_json(f"{handle.url}/connected?u=1&v=2")
                        answers.append(body)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            readers = [threading.Thread(target=query_loop) for _ in range(3)]
            for t in readers:
                t.start()
            for c in batches:
                handle.submit(c)
            for t in readers:
                t.join(timeout=60)
            service.drainer.close()
            assert not errors
            assert len(answers) == 60
            # epochs answered monotonically, and every answer names one
            assert all("epoch" in a for a in answers)
            _, stats = get_json(handle.url + "/stats")
            assert stats["updates_applied"] == sum(len(c) for c in batches)
            # no epoch leak once queries drained: current only
            assert service.store.n_live == 1

    def test_sharded_service_recovers_from_worker_crash(self):
        """Served labels stay bit-identical to the kernel across a forced rotation."""
        batches = list(iter_update_chunks(SCALE, N, seed=47, chunk_edges=512))
        service = GraphService(DynamicGraph(N))
        with service.start_background() as handle:
            for c in batches:
                handle.submit(c)
            service.drainer.close()
            _, before = get_json(handle.url + "/components?full=1")
            expected = connected_components(service.graph.snapshot()).labels
            assert np.array_equal(np.asarray(before["labels"]), expected)
            # Join two components, then publish a fresh epoch (and label memo).
            labels = expected
            u = 0
            v = int(np.flatnonzero(labels != labels[u])[0])
            service.graph.insert_edge(u, v)
            service.drainer.rotate(force=True)
            _, after = get_json(handle.url + "/components?full=1")
            expected = connected_components(service.graph.snapshot()).labels
            assert after["epoch"] > before["epoch"]
            assert after["n_components"] == before["n_components"] - 1
            assert np.array_equal(np.asarray(after["labels"]), expected)
