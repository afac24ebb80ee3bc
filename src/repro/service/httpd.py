"""The one HTTP/1.1 responder: the cluster gateway and the node metrics port.

A deliberately small, stdlib-asyncio server: :func:`start_server` accepts
connections, and each connection answers its keep-alive requests in order
through one handler coroutine ``handle(method, path, body)`` returning
``(status, payload, extra_headers)``.  A ``str`` payload goes out as
Prometheus text, anything else as JSON.

Everything read from the network is bounded:

* a request must arrive completely within :data:`IDLE_TIMEOUT` seconds of
  the connection starting to wait for it -- one timer per request, so a
  half-sent request (or an idle keep-alive connection) is closed instead of
  held open forever;
* at most :data:`MAX_HEADERS` header lines, each within the stream reader's
  line limit, and a body of at most :data:`MAX_BODY_BYTES`.

A request that breaks the grammar -- a malformed request or header line, a
non-numeric or out-of-range ``Content-Length``, too many headers -- is
answered ``400`` with the JSON error envelope
(``{"ok": false, "error": {"code": "bad_request", ...}}``), then the
connection closes.
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Awaitable, Callable
from http import HTTPStatus
from typing import Any

from repro.service import protocol

__all__ = ["IDLE_TIMEOUT", "MAX_BODY_BYTES", "MAX_HEADERS", "envelope_error", "start_server"]

#: Largest accepted request body; same ceiling as one NDJSON frame.
MAX_BODY_BYTES = protocol.MAX_FRAME_BYTES

#: Most header lines one request may carry.
MAX_HEADERS = 100

#: Seconds a request may take to arrive, from the moment the connection
#: waits for it until its body is read.
IDLE_TIMEOUT = 30.0

#: ``(status, payload, extra headers)``
Response = tuple[int, Any, dict[str, str]]
Handler = Callable[[str, str, bytes], Awaitable[Response]]


class BadRequest(Exception):
    """A request that breaks the HTTP grammar (answered 400, then closed)."""


def envelope_error(code: str, message: str, data: dict[str, Any] | None = None) -> dict:
    """The JSON error envelope every HTTP error answer carries."""
    return {"ok": False, "error": protocol.error_object(code, message, data)}


def encode_response(status: int, payload: Any, headers: dict[str, str], keep_alive: bool) -> bytes:
    """One response: status line, headers and body."""
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def start_server(handle: Handler, host: str, port: int) -> asyncio.AbstractServer:
    """Listen on ``host:port``, answering every request through ``handle``."""
    return await asyncio.start_server(
        lambda reader, writer: _serve_connection(reader, writer, handle), host, port
    )


async def _serve_connection(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, handle: Handler
) -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            timer = loop.call_later(IDLE_TIMEOUT, writer.transport.abort)
            try:
                request = await _read_request(reader)
            except BadRequest as error:
                answer = envelope_error(protocol.BAD_REQUEST, str(error))
                writer.write(encode_response(400, answer, {}, keep_alive=False))
                await writer.drain()
                return
            finally:
                timer.cancel()
            if request is None:
                return
            method, path, headers, body = request
            status, payload, extra = await handle(method, path, body)
            keep_alive = headers.get("connection", "").lower() != "close"
            writer.write(encode_response(status, payload, extra, keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.CancelledError):
        # The peer vanished, or the server is stopping with this connection
        # open.  Returning normally (instead of propagating the cancellation)
        # keeps asyncio.streams' connection callback from logging a
        # traceback per open connection.
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """``(method, path, headers, body)``, or None once the peer stops sending."""
    line = await _readline(reader)
    if line is None:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise BadRequest("malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for count in range(MAX_HEADERS + 1):
        line = await _readline(reader)
        if line is None:
            return None
        if line in (b"\r\n", b"\n"):
            break
        if count == MAX_HEADERS:
            raise BadRequest(f"more than {MAX_HEADERS} header lines")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise BadRequest("malformed header line")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise BadRequest("Content-Length is not a number") from None
    if not 0 <= length <= MAX_BODY_BYTES:
        raise BadRequest(f"Content-Length must be between 0 and {MAX_BODY_BYTES}")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        return None
    return method.upper(), target.split("?", 1)[0], headers, body


async def _readline(reader: asyncio.StreamReader) -> bytes | None:
    """One complete line, or None at end of stream."""
    try:
        line = await reader.readline()
    except ValueError:  # the line outgrew the reader's limit
        raise BadRequest("header line too long") from None
    return line if line.endswith(b"\n") else None
