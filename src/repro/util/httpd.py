"""The one HTTP wire: an asyncio GET-only server and its background handle.

``repro serve`` (:class:`~repro.service.server.GraphService`) sits on this
module, and so does any other handler, so a malformed request, an oversized
head or a stalled client gets the same answer from each.  A *handler* is
``async (path, params) -> (status, content_type, body)``; the wire side of
it lives here and nowhere else:

* the request head is read under :data:`MAX_REQUEST_BYTES` and
  :data:`READ_TIMEOUT`; a head that breaks either, ends early, or whose
  request line is not ``METHOD SP target SP HTTP/x`` is ``400 malformed
  request``, and any method but ``GET`` is ``405``;
* an exception out of the handler becomes a status through
  :func:`error_status` — the one mapping, which the service's request
  accounting calls too — and a JSON ``{"error": ...}`` body; a 500 also
  ticks ``service.http.errors`` and the server keeps serving;
* every reply carries ``Content-Length`` and ``Connection: close`` and the
  server closes the socket after it: one request per connection.
"""

from __future__ import annotations

import asyncio
import json
import threading
from functools import partial
from http import HTTPStatus
from typing import Any, Awaitable, Callable, Coroutine, TypeVar
from urllib.parse import parse_qs, urlsplit

from repro.errors import GraphError, ServiceError

__all__ = ["error_status", "error_reply", "not_found", "start_server", "BackgroundServer"]

#: Largest request head accepted, in bytes (the stream reader's ``limit``).
MAX_REQUEST_BYTES = 65536
#: Seconds a client gets to finish its request head before a 400.
READ_TIMEOUT = 30.0
#: Content type of every JSON reply, error bodies included.
JSON = "application/json; charset=utf-8"

Reply = tuple[int, str, str]
Handler = Callable[[str, dict[str, list[str]]], Awaitable[Reply]]
Starter = Callable[[str, int], Coroutine[Any, Any, asyncio.AbstractServer]]
_Self = TypeVar("_Self", bound="BackgroundServer")


def error_status(exc: BaseException) -> int:
    """Status code an exception raised while answering a request maps to."""
    if isinstance(exc, GraphError):
        return 400
    if isinstance(exc, ServiceError):
        return 503
    return 500


def error_reply(status: int, message: str) -> Reply:
    """A JSON ``{"error": message}`` reply."""
    return status, JSON, json.dumps({"error": message})


def not_found(path: str) -> Reply:
    """The 404 a handler returns for a path it does not route."""
    return error_reply(404, f"no route {path}")


async def _respond(handler: Handler, reader: asyncio.StreamReader) -> Reply:
    """Read one request head, route it, and map any failure to a reply."""
    try:
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), READ_TIMEOUT)
        method, target, version = head.split(b"\r\n", 1)[0].decode("latin-1").split(" ")
        if not version.startswith("HTTP/"):
            raise ValueError(version)
        url = urlsplit(target)
        params = parse_qs(url.query)
    except (
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        asyncio.TimeoutError,
        ValueError,
    ):
        return error_reply(400, "malformed request")
    if method != "GET":
        return error_reply(405, "GET only")
    try:
        return await handler(url.path, params)
    except Exception as exc:  # noqa: BLE001 - last-resort 500, keep serving
        status = error_status(exc)
        if status != 500:
            return error_reply(status, str(exc))
        from repro.obs.metrics import METRICS  # obs imports this module: no cycle

        METRICS.inc("service.http.errors")
        return error_reply(500, f"{type(exc).__name__}: {exc}")


async def _serve(
    handler: Handler, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """One connection, one request, one reply, then a server-side close."""
    try:
        status, ctype, body = await _respond(handler, reader)
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
    except (OSError, asyncio.CancelledError):
        # OSError: the client hung up.  Cancelled: only BackgroundServer.close()
        # cancels a connection, and it awaits the task; a task that ends
        # cancelled makes asyncio < 3.12 log a traceback.
        pass
    finally:
        writer.close()


async def start_server(
    handler: Handler, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind ``handler`` on the running event loop."""
    return await asyncio.start_server(partial(_serve, handler), host, port, limit=MAX_REQUEST_BYTES)


class BackgroundServer:
    """A server on its own daemon event-loop thread, bound once constructed.

    ``start`` is ``async (host, port) -> asyncio.AbstractServer`` (for a bare
    handler, ``partial(start_server, handler)``); ``port=0`` binds an
    ephemeral port and :attr:`port` / :attr:`url` report the bound address.
    """

    def __init__(self, start: Starter, host: str = "127.0.0.1", port: int = 0) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-http-loop", daemon=True
        )
        self._thread.start()
        bound = asyncio.run_coroutine_threadsafe(start(host, port), self._loop)
        self._server = bound.result(timeout=30.0)
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = str(sock[0]), int(sock[1])
        self.url = f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop accepting, drop connections still open, stop the loop thread."""

        async def _shutdown() -> None:
            self._server.close()
            open_connections = asyncio.all_tasks() - {asyncio.current_task()}
            for task in open_connections:
                task.cancel()
            await asyncio.gather(*open_connections, return_exceptions=True)
            await self._server.wait_closed()

        asyncio.run_coroutine_threadsafe(_shutdown(), self._loop).result(timeout=30.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30.0)
        self._loop.close()

    def __enter__(self: _Self) -> _Self:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
