"""A minimal asyncio HTTP/1.1 front for the serving daemon.

Stdlib-only by design (the project adds no dependencies): enough
HTTP/1.1 to serve JSON over keep-alive connections from load
generators and probes — request line, headers, ``Content-Length``
bodies, ``Connection: close`` / HTTP/1.0 honoured, nothing else (no
chunked encoding, no TLS; front a real proxy with it in anger).

Routes::

    GET  /healthz   liveness (200 while the process runs)
    GET  /readyz    readiness (503 before warmup and while draining)
    GET  /stats     counters, queue depth, breaker state, percentiles
    POST /query     {"query": str, "timeout"?: s, "limit"?: n}
    POST /update    {"add_edges": [[v,u,label],...], ...} — hot swap
    POST /reload    {"path": str} — hot-swap from a saved index file
    POST /pause     test hook: pause batch dispatch
    POST /resume    test hook: resume batch dispatch
    POST /shutdown  begin the graceful drain (SIGTERM equivalent)

Every response is JSON; error responses carry a structured ``error``
kind (``overloaded``, ``draining``, ``deadline``, ``serving``,
``parse``) so clients can tell shed from failure without string
matching.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING

from repro.serve.daemon.admission import Response

if TYPE_CHECKING:
    from repro.serve.daemon.lifecycle import ServingDaemon

#: Reason phrases for the statuses the daemon emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Bound on one request head+body (a front door should not buffer
#: arbitrarily large payloads into memory).
MAX_BODY_BYTES = 4 * 1024 * 1024


async def _read_request(
    line: bytes, reader: asyncio.StreamReader
) -> tuple[str, str, bytes, bool]:
    """Parse the request whose request line is ``line``.

    Returns ``(method, target, body, keep_alive)``; ``keep_alive`` is
    the HTTP default for the request's version (1.1 persists, 1.0 does
    not) unless its ``Connection`` header says otherwise.
    """
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {line!r}")
    method, target, version = parts
    connection = ""
    length = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value.strip())
        elif name == "connection":
            connection = value.strip().lower()
    if length > MAX_BODY_BYTES:
        raise ValueError(f"request body too large: {length} bytes")
    body = await reader.readexactly(length) if length else b""
    keep_alive = connection == "keep-alive" if version == "HTTP/1.0" else connection != "close"
    return method, target, body, keep_alive


def _write_response(
    writer: asyncio.StreamWriter, status: int, payload: dict, keep_alive: bool
) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)


async def _route(daemon: ServingDaemon, method: str, target: str, body: bytes) -> Response:
    """Dispatch one parsed request to the daemon."""
    if method == "GET":
        if target == "/healthz":
            return 200, {"ok": True, "draining": daemon.draining}
        if target == "/readyz":
            if daemon.ready and not daemon.draining:
                return 200, {"ready": True}
            return 503, {"ready": False, "draining": daemon.draining}
        if target == "/stats":
            return 200, daemon.stats_snapshot()
        return 404, {"error": "not_found", "target": target}
    if method != "POST":
        return 405, {"error": "method_not_allowed", "method": method}
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return 400, {"error": "bad_json", "detail": str(exc)}
    if not isinstance(payload, dict):
        return 400, {"error": "bad_json", "detail": "body must be a JSON object"}
    if target == "/query":
        return await daemon.submit(
            payload.get("query", ""), payload.get("timeout"), payload.get("limit")
        )
    if target == "/update":
        return await daemon.apply_update(payload)
    if target == "/reload":
        return await daemon.reload_index(payload.get("path"))
    if target == "/pause":
        daemon.dispatch_gate.clear()
        return 200, {"paused": True}
    if target == "/resume":
        daemon.dispatch_gate.set()
        return 200, {"paused": False}
    if target == "/shutdown":
        daemon.request_stop()
        return 200, {"stopping": True}
    return 404, {"error": "not_found", "target": target}


async def _handle_connection(
    daemon: ServingDaemon, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Serve one connection until the peer closes it or asks us to.

    A request's ``Connection: close`` (or HTTP/1.0 without
    ``keep-alive``) is honoured by echoing ``close`` and closing after
    the response; a draining daemon closes every connection after the
    response it is writing, and :meth:`ServingDaemon.close` closes the
    ones idling between requests.
    """
    daemon.stats.connections_accepted += 1
    try:
        keep_alive = True
        while keep_alive:
            daemon.idle_connections.add(writer)
            try:
                line = await reader.readline()
            finally:
                daemon.idle_connections.discard(writer)
            if not line:
                break
            try:
                method, target, body, keep_alive = await _read_request(line, reader)
            except (ValueError, asyncio.IncompleteReadError) as exc:
                _write_response(writer, 400, {"error": "bad_request", "detail": str(exc)}, False)
                await writer.drain()
                break
            status, payload = await _route(daemon, method, target, body)
            keep_alive = keep_alive and not daemon.draining
            _write_response(writer, status, payload, keep_alive)
            await writer.drain()
    except (ConnectionError, OSError, asyncio.CancelledError):
        # The peer vanished (or the server is closing): nothing to
        # answer and nobody to answer it to.
        return
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # CancelledError included: handler tasks cancelled at event-
            # loop shutdown must still end *normally* — on 3.11 the
            # streams callback calls task.exception() on the finished
            # handler, which raises (and noisily logs) for a task that
            # ends cancelled.
            pass


async def start_http_server(daemon: ServingDaemon) -> asyncio.AbstractServer:
    """Bind and start serving; the caller owns the returned server."""

    async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        await _handle_connection(daemon, reader, writer)

    return await asyncio.start_server(handler, daemon.config.host, daemon.config.port)
