"""HTTP front end: endpoints, error codes, metrics payload, bit-identity."""

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
from repro.obs import validate_openmetrics
from repro.service import GraphService, ShardRouter

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
        status, ctype, body = fetch(handle.url + "/metrics")
        assert status == 200
        assert "openmetrics" in ctype
        stats = validate_openmetrics(body)
        assert stats["n_samples"] > 0
        assert "service_queries_total" in body


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
        """A shard crash mid-query is retried on a restarted pool."""
        batches = list(iter_update_chunks(SCALE, N, seed=47, chunk_edges=512))
        router = ShardRouter(workers=2)
        service = GraphService(DynamicGraph(N), router=router)
        with service.start_background() as handle:
            for c in batches:
                handle.submit(c)
            service.drainer.close()
            # First sharded query: healthy path, bit-identical labels.
            _, body = get_json(handle.url + "/components?full=1")
            expected = connected_components(service.graph.snapshot()).labels
            assert np.array_equal(np.asarray(body["labels"]), expected)
            # Kill a worker out from under the service, then query again:
            # the WorkerCrashError path restarts the pool and retries.
            router.pool._procs[0].terminate()
            router.pool._procs[0].join(timeout=10)
            service.graph.insert_edge(0, 1)  # force a fresh epoch + cache
            service.drainer.rotate(force=True)
            _, body = get_json(handle.url + "/components?full=1")
            expected = connected_components(service.graph.snapshot()).labels
            assert np.array_equal(np.asarray(body["labels"]), expected)
            assert router.n_crashes >= 1
