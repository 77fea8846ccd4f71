"""Admission control for the serving daemon: bounded queue, shed, stats.

The daemon's first robustness rule is that *waiting is bounded*: a
request either gets a seat in the admission queue immediately or is
shed with a structured ``overloaded`` reject — the queue never grows
without bound, so a traffic spike degrades into fast rejections
instead of unbounded memory growth and collapse (the
admission → deadline → breaker → drain ladder in
``docs/robustness.md``).

:class:`Request` is one admitted query: the resolved AST, its absolute
deadline, and the :class:`asyncio.Future` the HTTP handler awaits.
Every request resolves to a ``(status, payload)`` pair — success and
every failure mode alike — so the transport layer never has to map
exceptions to responses.

:class:`LatencyRecorder` keeps a bounded ring of completion latencies
for the ``/stats`` percentiles; :class:`DaemonStats` is the counter
bundle every layer of the daemon increments.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque

from repro.query.ast import CPQ

#: Response payloads are JSON-ready dicts; a request resolves to
#: ``(http status, payload)``.
Response = tuple[int, dict]


class Request:
    """One admitted query waiting for (or in) a batch."""

    __slots__ = ("deadline", "enqueued_at", "future", "limit", "query", "text")

    def __init__(
        self,
        query: CPQ,
        text: str,
        deadline: float | None,
        limit: int | None,
        future: asyncio.Future,
    ) -> None:
        self.query = query
        self.text = text
        #: Absolute monotonic deadline (``None`` = no deadline).
        self.deadline = deadline
        self.limit = limit
        self.future = future
        self.enqueued_at = time.monotonic()

    def remaining(self, now: float | None = None) -> float | None:
        """Seconds until the deadline (``None`` when there is none)."""
        if self.deadline is None:
            return None
        return self.deadline - (time.monotonic() if now is None else now)

    def resolve(self, status: int, payload: dict) -> None:
        """Settle the waiting handler (idempotent: late resolutions of an
        already-settled request — e.g. after a drain force-fail — drop)."""
        if not self.future.done():
            self.future.set_result((status, payload))


#: Queue sentinel: consumed by the batch loop to finish draining.
STOP = object()


class AdmissionQueue:
    """A bounded asyncio queue that sheds instead of blocking.

    ``offer`` is the only producer entry point and it *never waits*:
    over-capacity requests return ``False`` and the caller rejects them
    immediately.  The consumer side (the batch coalescer) uses ``get``
    / ``get_nowait`` as usual.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=capacity)
        #: High-water mark of the queue depth (the shed-boundedness
        #: assertion in the bench reads this).
        self.max_depth = 0

    def offer(self, request: Request) -> bool:
        """Seat ``request`` or report the queue full — never blocks."""
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            return False
        self.max_depth = max(self.max_depth, self._queue.qsize())
        return True

    async def put_stop(self) -> None:
        """Enqueue the drain sentinel (may wait for a seat: the consumer
        is draining the queue, so a seat always frees up)."""
        await self._queue.put(STOP)

    async def get(self) -> object:
        return await self._queue.get()

    def get_nowait(self) -> object:
        return self._queue.get_nowait()

    def depth(self) -> int:
        return self._queue.qsize()

    def drain_pending(self) -> list[Request]:
        """Empty the queue (forced-drain path), returning real requests."""
        pending: list[Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return pending
            if item is not STOP:
                pending.append(item)  # type: ignore[arg-type]


class LatencyRecorder:
    """Bounded ring of request latencies with cheap percentiles."""

    def __init__(self, window: int = 4096) -> None:
        self._window: deque[float] = deque(maxlen=window)
        self.count = 0

    def record(self, seconds: float) -> None:
        self._window.append(seconds)
        self.count += 1

    def percentile(self, p: float) -> float | None:
        """The ``p``-th percentile (0..100) over the window, or ``None``."""
        if not self._window:
            return None
        ordered = sorted(self._window)
        rank = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def snapshot(self) -> dict:
        p50 = self.percentile(50)
        p99 = self.percentile(99)
        return {
            "count": self.count,
            "p50_ms": None if p50 is None else round(1000 * p50, 3),
            "p99_ms": None if p99 is None else round(1000 * p99, 3),
        }


class DaemonStats:
    """The daemon's counter bundle (everything ``/stats`` reports)."""

    def __init__(self) -> None:
        self.started_at = time.monotonic()
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.timed_out = 0
        self.expired = 0
        self.batches = 0
        self.swaps = 0
        self.connections_accepted = 0
        #: Enqueue → dispatch (time spent waiting behind the in-flight
        #: batch) beside ``latency``, the enqueue → answer total.
        self.queue_wait = LatencyRecorder()
        self.latency = LatencyRecorder()

    def snapshot(self) -> dict:
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "admitted": self.admitted,
            "shed": self.shed,
            "completed": self.completed,
            "failed": self.failed,
            "timed_out": self.timed_out,
            "expired": self.expired,
            "batches": self.batches,
            "swaps": self.swaps,
            "connections_accepted": self.connections_accepted,
            "queue_wait": self.queue_wait.snapshot(),
            "latency": self.latency.snapshot(),
        }
