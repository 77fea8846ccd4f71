"""A small blocking client for the serving daemon.

Used by the daemon bench's load generator, the CI smoke script, and
tests — anything that needs to talk to a running ``repro serve``
without pulling in an HTTP library.  The client keeps one persistent
HTTP/1.1 connection *per calling thread* (the daemon speaks
keep-alive), so a closed-loop caller pays the TCP handshake once, not
per request, and one client is still safe to share between threads:
the load generator's workers never touch each other's sockets.  A
reused connection the daemon has meanwhile closed (a restart, a drain)
is detected on the next call and retried exactly once on a fresh
connection; a failure on a fresh connection is the caller's to see.

Every method returns ``(status, payload)`` — the daemon's structured
responses pass through unmapped, so callers branch on
``payload.get("error")`` (``overloaded``, ``draining``, ``deadline``,
``serving``) exactly as documented in :mod:`repro.serve.daemon.http`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref

#: A client call resolves to ``(http status, decoded JSON payload)``.
ClientResponse = tuple[int, dict]


class DaemonClient:
    """Blocking JSON-over-HTTP client for one daemon address."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()  # .connection: this thread's HTTPConnection

    def close(self) -> None:
        """Close the calling thread's connection (the next call reconnects)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def _request(self, method: str, path: str, payload: dict | None = None) -> ClientResponse:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            # Close the socket when its thread is gone (or at exit).
            weakref.finalize(threading.current_thread(), connection.close)
        # An open socket may have been closed by the daemon since its
        # last response; that only shows on use, and earns one retry.
        reused = connection.sock is not None
        try:
            return self._exchange(connection, method, path, body, headers)
        except ConnectionError:
            if not reused:
                raise
        return self._exchange(connection, method, path, body, headers)

    @staticmethod
    def _exchange(
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict,
    ) -> ClientResponse:
        """One request/response; the socket is dropped on any failure
        (``HTTPConnection`` reconnects on its next request)."""
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        return response.status, json.loads(raw.decode("utf-8")) if raw else {}

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def healthz(self) -> ClientResponse:
        return self._request("GET", "/healthz")

    def readyz(self) -> ClientResponse:
        return self._request("GET", "/readyz")

    def stats(self) -> dict:
        _, payload = self._request("GET", "/stats")
        return payload

    def wait_ready(self, deadline_seconds: float = 30.0) -> bool:
        """Poll ``/readyz`` until it answers 200 (or the deadline passes)."""
        deadline = time.monotonic() + deadline_seconds
        while time.monotonic() < deadline:
            try:
                status, _ = self.readyz()
            except OSError:
                status = 0
            if status == 200:
                return True
            time.sleep(0.05)
        return False

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def query(
        self,
        text: str,
        timeout: float | None = None,
        limit: int | None = None,
    ) -> ClientResponse:
        payload: dict = {"query": text}
        if timeout is not None:
            payload["timeout"] = timeout
        if limit is not None:
            payload["limit"] = limit
        return self._request("POST", "/query", payload)

    def update(self, **changes) -> ClientResponse:
        """Hot-swap via graph updates: ``add_edges=[...]``, etc."""
        return self._request("POST", "/update", dict(changes))

    def reload(self, path: str) -> ClientResponse:
        return self._request("POST", "/reload", {"path": path})

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def pause(self) -> ClientResponse:
        return self._request("POST", "/pause")

    def resume(self) -> ClientResponse:
        return self._request("POST", "/resume")

    def shutdown(self) -> ClientResponse:
        return self._request("POST", "/shutdown")
