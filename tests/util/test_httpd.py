"""The one HTTP wire: malformed-request matrix over raw sockets, two handlers."""

import json
import socket
import subprocess
import sys
from functools import partial
from http import HTTPStatus

import pytest

from repro.api import DynamicGraph
from repro.errors import GraphError, ServiceError
from repro.obs import METRICS
from repro.service import GraphService
from repro.util import httpd

N = 16


async def telemetry_handler(path, params):
    """The telemetry route alone, as any process can serve it."""
    if path == "/healthz":
        return 200, "text/plain", "ok\n"
    if path == "/metrics.json":
        return 200, httpd.JSON, json.dumps({"snapshot": METRICS.snapshot()}, sort_keys=True)
    return httpd.not_found(path)


@pytest.fixture(scope="module", params=["service", "telemetry"])
def server(request):
    """A ``GraphService`` handle or a bare telemetry handler: the same wire."""
    if request.param == "service":
        handle = GraphService(DynamicGraph(N), query_threads=1).start_background()
    else:
        handle = httpd.BackgroundServer(partial(httpd.start_server, telemetry_handler))
    yield handle
    handle.close()


@pytest.fixture(scope="module")
def service():
    with GraphService(DynamicGraph(N), query_threads=1).start_background() as handle:
        yield handle


def exchange(server, data, *, hang_up=False, timeout=10.0):
    """Send raw bytes, read until the server closes; a hang is a test failure."""
    chunks = []
    with socket.create_connection((server.host, server.port), timeout=timeout) as sock:
        sock.sendall(data)
        if hang_up:
            sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # request bytes the server never read turn its close into an RST
    return b"".join(chunks)


def check_reply(raw, status, error=None):
    """Assert the reply invariants; returns (headers, body text)."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    assert sep, f"no complete reply head in {raw[:80]!r}"
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0] == f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert int(headers["Content-Length"]) == len(body)
    assert headers["Connection"] == "close"
    text = body.decode("utf-8")
    if 400 <= status < 500:
        assert headers["Content-Type"] == httpd.JSON
        message = json.loads(text)["error"]
        assert error is None or message == error
    return headers, text


MALFORMED = "malformed request"

MATRIX = [
    pytest.param(b"GARBAGE\r\n\r\n", 400, MALFORMED, id="garbage-request-line"),
    pytest.param(b"GET /healthz\r\n\r\n", 400, MALFORMED, id="two-part-request-line"),
    pytest.param(b"GET  /healthz HTTP/1.1\r\n\r\n", 400, MALFORMED, id="double-space"),
    pytest.param(b"GET /healthz FTP/1.0\r\n\r\n", 400, MALFORMED, id="not-http"),
    pytest.param(b"GET //[ HTTP/1.1\r\n\r\n", 400, MALFORMED, id="unsplittable-target"),
    pytest.param(
        b"POST /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 405, "GET only",
        id="post-with-body",
    ),
    pytest.param(b"HEAD /healthz HTTP/1.1\r\n\r\n", 405, "GET only", id="head"),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n", 400, MALFORMED,
        id="70000-byte-header",
    ),
    pytest.param(
        "GET /café HTTP/1.1\r\n\r\n".encode("utf-8"), 404, None, id="non-ascii-target"
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nHost: x\r\n", 400, MALFORMED, id="head-cut-off-stalled"
    ),
    pytest.param(b"GET /nope HTTP/1.1\r\n\r\n", 404, "no route /nope", id="unknown-path"),
]


class TestMalformedRequestMatrix:
    @pytest.mark.parametrize("request_bytes,status,error", MATRIX)
    def test_layer_answers_and_closes(
        self, server, request_bytes, status, error, monkeypatch, capfd
    ):
        monkeypatch.setattr(httpd, "READ_TIMEOUT", 0.3)
        check_reply(exchange(server, request_bytes), status, error)
        assert capfd.readouterr().err == ""

    def test_head_cut_off_by_client_hangup(self, server, capfd):
        raw = exchange(server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n", hang_up=True)
        check_reply(raw, 400, MALFORMED)
        assert capfd.readouterr().err == ""

    def test_client_reset_mid_head_is_silent(self, server, capfd):
        sock = socket.create_connection((server.host, server.port), timeout=10.0)
        sock.sendall(b"GET /healthz HTT")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\x00\x00\x00" * 2)
        sock.close()  # linger 0: an RST, not a FIN
        # the next request is served and nothing was logged
        check_reply(exchange(server, b"GET /healthz HTTP/1.1\r\n\r\n"), 200)
        assert capfd.readouterr().err == ""

    def test_metrics_ignores_query_string(self, server):
        headers, text = check_reply(
            exchange(server, b"GET /metrics.json?x=1 HTTP/1.1\r\n\r\n"), 200
        )
        assert headers["Content-Type"] == httpd.JSON
        assert set(json.loads(text)["snapshot"]) == {"counters", "gauges", "histograms"}

    def test_metrics_json(self, server):
        headers, text = check_reply(
            exchange(server, b"GET /metrics.json HTTP/1.1\r\n\r\n"), 200
        )
        assert headers["Content-Type"] == httpd.JSON
        assert set(json.loads(text)) == {"snapshot"}

    @pytest.mark.parametrize("target,fragment", [
        ("/connected?u=a&v=1", "must be an integer"),
        ("/connected?u=1", "missing required parameter"),
        (f"/connected?u=0&v={N}", "out of range"),
        ("/bfs?source=-1", None),
    ], ids=["bad-integer", "missing-parameter", "vertex-out-of-range", "negative-source"])
    def test_service_bad_input_is_400(self, service, target, fragment):
        raw = exchange(service, f"GET {target} HTTP/1.1\r\n\r\n".encode())
        _, text = check_reply(raw, 400)
        assert fragment is None or fragment in json.loads(text)["error"]


async def toy_handler(path, params):
    if path == "/boom":
        raise RuntimeError("kaboom")
    if path == "/bad":
        raise GraphError("bad input")
    if path == "/down":
        raise ServiceError("not yet")
    return 200, "text/plain", "fine\n"


def toy_server():
    return httpd.BackgroundServer(partial(httpd.start_server, toy_handler))


class TestHandlerErrors:
    @pytest.fixture
    def failing(self):
        with toy_server() as server:
            yield server

    def errors(self):
        return METRICS.counter("service.http.errors").value

    def test_unexpected_exception_is_500_and_server_survives(self, failing, capfd):
        before = self.errors()
        _, text = check_reply(exchange(failing, b"GET /boom HTTP/1.1\r\n\r\n"), 500)
        assert json.loads(text)["error"] == "RuntimeError: kaboom"
        assert self.errors() == before + 1
        _, text = check_reply(exchange(failing, b"GET / HTTP/1.1\r\n\r\n"), 200)
        assert text == "fine\n"
        assert capfd.readouterr().err == ""

    def test_graph_and_service_errors_map_without_a_tick(self, failing):
        before = self.errors()
        check_reply(exchange(failing, b"GET /bad HTTP/1.1\r\n\r\n"), 400, "bad input")
        _, text = check_reply(exchange(failing, b"GET /down HTTP/1.1\r\n\r\n"), 503)
        assert json.loads(text)["error"] == "not yet"
        assert self.errors() == before

    def test_close_drops_a_stalled_connection_silently(self, capfd):
        server = toy_server()
        with socket.create_connection((server.host, server.port), timeout=10.0) as stalled:
            stalled.sendall(b"GET / HTT")
            # accepted in order: once this one is answered, `stalled` is being read
            check_reply(exchange(server, b"GET / HTTP/1.1\r\n\r\n"), 200)
            server.close()
            assert stalled.recv(64) == b""
        assert capfd.readouterr().err == ""

    def test_error_status_is_the_one_mapping(self):
        assert httpd.error_status(GraphError("x")) == 400
        assert httpd.error_status(ServiceError("x")) == 503
        assert httpd.error_status(RuntimeError("x")) == 500


def test_parallel_and_obs_do_not_import_the_service():
    """``repro.service`` sits above both: neither package may load it."""
    code = (
        "import sys, repro.parallel, repro.obs, repro.util.httpd\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.service')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
