"""The serving daemon: lifecycle, admission, drain, and hot swap.

:class:`ServingDaemon` owns one :class:`~repro.db.GraphDatabase` and
runs the full robustness ladder over it (``docs/robustness.md``):

* **admission** — :meth:`submit` seats a request in the bounded queue
  or sheds it immediately with a structured ``overloaded`` reject;
* **deadlines** — every request carries one (its own, or the
  configured default), enforced before dispatch (expired requests are
  never served) and inside ``serve_batch(timeout=)``;
* **breaker** — the :class:`~repro.serve.daemon.breaker.CircuitBreaker`
  routes batches away from a failing process pool and probes it back;
* **drain** — :meth:`request_stop` (wired to SIGTERM) stops admission,
  lets the batch loop finish everything already admitted under
  :attr:`DaemonConfig.drain_deadline`, then force-fails the remainder
  — the daemon never exits holding unanswered futures;
* **hot swap** — :meth:`apply_update` / :meth:`reload_index` move the
  index under the session's writer lock; the serve-token handshake
  retires shipped worker snapshots, so in-flight queries finish on the
  old generation and new admissions see the new one, with no torn
  reads in between.

The daemon is transport-agnostic: :mod:`repro.serve.daemon.http` puts
a minimal HTTP/1.1 front on it, and tests drive :meth:`submit`
directly on the event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from dataclasses import dataclass

from repro.core import kernels
from repro.db.session import GraphDatabase
from repro.errors import ReproError
from repro.serve.daemon.admission import AdmissionQueue, DaemonStats, Request, Response
from repro.serve.daemon.batching import batch_loop
from repro.serve.daemon.breaker import CircuitBreaker
from repro.serve.procserve import DEFAULT_RETRIES


@dataclass
class DaemonConfig:
    """Knobs for one daemon instance (CLI flags map onto these 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in ServingDaemon.port
    capacity: int = 64  # admission queue bound (beyond it: shed)
    max_batch: int = 32  # cap on one coalesced batch
    workers: int = 4  # serve_batch worker count
    mode: str = "auto"  # serving mode under a closed breaker
    default_deadline: float | None = 10.0  # per-request deadline when unspecified
    drain_deadline: float = 10.0  # SIGTERM → forced-exit budget
    retries: int = DEFAULT_RETRIES
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0


class ServingDaemon:
    """A long-running server over one session (see module docstring)."""

    def __init__(self, db: GraphDatabase, config: DaemonConfig | None = None) -> None:
        self.db = db
        self.config = config or DaemonConfig()
        self.stats = DaemonStats()
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        # One cooldown story: the session's auto-mode demotion window
        # follows the breaker's, so the half-open probe is also the
        # session's successful-probe reset.
        self.db.degraded_cooldown = self.config.breaker_cooldown
        self.queue = AdmissionQueue(self.config.capacity)
        #: Test/bench hook: cleared to pause the batch loop (admissions
        #: then pile into the bounded queue deterministically).
        self.dispatch_gate = asyncio.Event()
        self.dispatch_gate.set()
        self.ready = False
        self.draining = False
        #: Set by :meth:`drain`: ``True`` when every admitted request was
        #: answered within the drain deadline, ``False`` on a forced exit.
        self.drained_clean: bool | None = None
        self._stop_event = asyncio.Event()
        self._batch_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        #: Keep-alive connections waiting for their next request line;
        #: :meth:`close` closes them so a persistent client cannot hold
        #: the server's ``wait_closed`` open.
        self.idle_connections: set[asyncio.StreamWriter] = set()
        #: The bound TCP port once the HTTP front is up.
        self.port: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the HTTP front, start the batch loop, flip readiness."""
        from repro.serve.daemon.http import start_http_server

        if not self.db.is_built:
            await asyncio.to_thread(self.db.build_index)
        self._batch_task = asyncio.create_task(batch_loop(self), name="repro-batch-loop")
        self._server = await start_http_server(self)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self.ready = True

    def request_stop(self) -> None:
        """Begin the graceful drain (idempotent; wired to SIGTERM/SIGINT)."""
        self.draining = True
        self._stop_event.set()

    async def run(self) -> None:
        """Serve until :meth:`request_stop`, then drain and exit."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # noqa: PERF203
                break  # non-unix event loop: rely on /shutdown
        try:
            await self._stop_event.wait()
            await self.drain()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.close()

    async def drain(self) -> None:
        """Finish admitted work under the drain deadline, then force-exit.

        New admissions are already rejected (``draining`` flips in
        :meth:`request_stop`); this pushes the STOP sentinel behind the
        queued requests and waits for the batch loop to serve everything
        up to it.  Past the deadline the loop is cancelled and whatever
        is still queued is failed fast with structured ``draining``
        errors — never silently dropped.
        """
        deadline = time.monotonic() + self.config.drain_deadline
        self.draining = True
        self.dispatch_gate.set()  # a paused daemon must still drain
        clean = True
        try:
            await asyncio.wait_for(
                self.queue.put_stop(), max(0.05, deadline - time.monotonic())
            )
            if self._batch_task is not None:
                await asyncio.wait_for(
                    self._batch_task, max(0.05, deadline - time.monotonic())
                )
        except TimeoutError:
            clean = False
            if self._batch_task is not None:
                self._batch_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._batch_task
        for request in self.queue.drain_pending():
            self.stats.failed += 1
            request.resolve(503, {"error": "draining", "detail": "daemon is shutting down"})
        self.drained_clean = clean

    async def close(self) -> None:
        """Tear down the HTTP front and the session's serving pool."""
        self.ready = False
        self.draining = True  # busy connections close after their response
        if self._server is not None:
            self._server.close()
            for writer in self.idle_connections:
                writer.close()  # its handler sees EOF and leaves the set later
            # Python 3.12's wait_closed also waits for handler tasks; a
            # peer stalled mid-request must not be able to wedge
            # shutdown, so the wait is bounded.
            with contextlib.suppress(TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), 5.0)
            self._server = None
        if self._batch_task is not None and not self._batch_task.done():
            self._batch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._batch_task
        await asyncio.to_thread(self.db.close)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    async def submit(
        self,
        text: str,
        timeout: float | None = None,
        limit: int | None = None,
    ) -> Response:
        """Admit one query and await its answer (the /query entry point).

        Returns a ``(status, payload)`` response for every outcome:
        ``200`` answers, ``400`` parse errors, ``503`` shed/draining,
        ``504`` deadline, ``500`` serving failure.
        """
        if self.draining:
            return 503, {"error": "draining", "detail": "daemon is shutting down"}
        if not self.ready:
            return 503, {"error": "not_ready"}
        try:
            # A repeated text is a statement-memo hit; only a new text
            # pays the parser (≈20 µs), still cheaper than a thread hop.
            query = self.db._resolve(text)
        except ReproError as exc:
            return 400, {"error": "parse", "detail": str(exc)}
        budget = self.config.default_deadline if timeout is None else timeout
        deadline = None if budget is None else time.monotonic() + budget
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        request = Request(query, text, deadline, limit, future)
        if not self.queue.offer(request):
            self.stats.shed += 1
            return 503, {
                "error": "overloaded",
                "detail": "admission queue is full",
                "queue_depth": self.queue.depth(),
                "capacity": self.queue.capacity,
            }
        self.stats.admitted += 1
        return await future

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    async def apply_update(self, payload: dict) -> Response:
        """Apply graph updates in place (the /update entry point).

        Runs :meth:`GraphDatabase.update` off-loop; the session's writer
        lock drains in-flight evaluations first and the serve token
        moves, so the swap is atomic from every reader's point of view.
        """
        try:
            add_edges = [tuple(edge) for edge in payload.get("add_edges", ())]
            remove_edges = [tuple(edge) for edge in payload.get("remove_edges", ())]
            add_vertices = list(payload.get("add_vertices", ()))
            remove_vertices = list(payload.get("remove_vertices", ()))
            await asyncio.to_thread(
                self.db.update,
                add_edges=add_edges,
                remove_edges=remove_edges,
                add_vertices=add_vertices,
                remove_vertices=remove_vertices,
            )
        except (ReproError, TypeError, ValueError) as exc:
            return 400, {"error": "update", "detail": str(exc)}
        self.stats.swaps += 1
        return 200, {
            "generation": self.db._engine_gen,
            "graph_version": self.db.graph.version,
        }

    async def reload_index(self, path: str | None) -> Response:
        """Hot-swap the whole index from a saved file (the /reload entry)."""
        if not path:
            return 400, {"error": "reload", "detail": "missing 'path'"}
        try:
            await asyncio.to_thread(self.db.reload, path)
        except (ReproError, OSError) as exc:
            return 400, {"error": "reload", "detail": str(exc)}
        self.stats.swaps += 1
        return 200, {
            "generation": self.db._engine_gen,
            "graph_version": self.db.graph.version,
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Everything ``/stats`` reports, as one JSON-ready dict."""
        snapshot = self.stats.snapshot()
        snapshot["ready"] = self.ready
        snapshot["draining"] = self.draining
        snapshot["queue"] = {
            "depth": self.queue.depth(),
            "capacity": self.queue.capacity,
            "max_depth": self.queue.max_depth,
        }
        snapshot["breaker"] = self.breaker.snapshot()
        snapshot["index"] = {
            "engine": self.db.engine_name,
            "generation": self.db._engine_gen,
            "graph_version": self.db.graph.version,
            "process_degraded": self.db._process_degraded,
            "kernels": kernels.active_backend(),
        }
        pool = self.db._proc_pool
        snapshot["pool"] = {
            "restarts_used": 0 if pool is None else pool.restarts_used,
            "map_failures": 0 if pool is None else pool.map_failures,
            "degraded": pool is not None and pool.degraded,
        }
        return snapshot
