"""Work-conserving batching: dispatch when idle, coalesce behind a batch.

The batch loop never waits for company: it takes the first queued
request *plus whatever is already queued* (up to
:attr:`DaemonConfig.max_batch`) and dispatches at once as a single
:meth:`GraphDatabase.serve_batch` call.  One batch is in flight at a
time, so batches form only from what arrived while the previous one was
being served — exactly when coalescing pays (shared memo layers, one
pool dispatch) — and a lone request on an idle daemon is served alone,
immediately.  The admission queue buffers (boundedly) behind the
in-flight batch.

Per-request deadlines compose with the batch deadline: requests whose
deadline already passed are answered ``504`` without being served, and
the batch's ``serve_batch(timeout=)`` is the *smallest* remaining
per-request deadline — a batch never outlives its most urgent member.
Failures come back per-slot (``on_error="partial"``), so one poisoned
query cannot fail its batch-mates.

The circuit breaker is consulted once per batch for the serving mode
and fed the batch outcome: non-timeout serving failures and session
degradation count against it, timeouts do not (a slow query is not a
broken pool).
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING

from repro.core.persistence import encode_vertex
from repro.errors import QueryTimeoutError
from repro.serve.daemon.admission import STOP, Request

if TYPE_CHECKING:
    from repro.serve.daemon.lifecycle import ServingDaemon

#: Floor on the fused batch deadline: a batch admitted with (say) 2 ms
#: left still gets a serveable timeout instead of an instant expiry.
MIN_BATCH_TIMEOUT = 0.05


def encode_answers(pairs, limit: int | None) -> list:
    """JSON-encode an answer set: sorted ``[source, target]`` rows.

    Sorted (by stable repr — vertex types may be mixed) so two daemons
    serving the same engine return byte-identical bodies; ``limit``
    truncates after sorting, which keeps the truncation deterministic
    too.
    """
    encoded = sorted(
        ([encode_vertex(source), encode_vertex(target)] for source, target in pairs),
        key=repr,
    )
    if limit is not None:
        encoded = encoded[:limit]
    return encoded


async def batch_loop(daemon: ServingDaemon) -> None:
    """Consume the admission queue forever, one coalesced batch at a time.

    Ends when the drain sentinel (:data:`~repro.serve.daemon.admission.STOP`)
    is consumed — everything queued ahead of it is still served first,
    so SIGTERM never abandons an admitted request.
    """
    queue = daemon.queue
    item: object = None
    while item is not STOP:
        await daemon.dispatch_gate.wait()
        item = await queue.get()
        batch: list[Request] = []
        while isinstance(item, Request):
            batch.append(item)
            if len(batch) == daemon.config.max_batch or not queue.depth():
                break
            item = queue.get_nowait()
        await serve_requests(daemon, batch)


async def serve_requests(daemon: ServingDaemon, batch: list[Request]) -> None:
    """Serve one coalesced batch and settle every request in it."""
    now = time.monotonic()
    live: list[Request] = []
    for request in batch:
        remaining = request.remaining(now)
        if remaining is not None and remaining <= 0:
            daemon.stats.expired += 1
            request.resolve(
                504, {"error": "deadline", "detail": "deadline expired before dispatch"}
            )
        else:
            daemon.stats.queue_wait.record(now - request.enqueued_at)
            live.append(request)
    if not live:
        return
    daemon.stats.batches += 1
    mode = daemon.breaker.route(daemon.config.mode)
    budgets = [request.remaining(now) for request in live]
    finite = [budget for budget in budgets if budget is not None]
    timeout = max(MIN_BATCH_TIMEOUT, min(finite)) if finite else None

    try:
        result = await asyncio.to_thread(
            daemon.db.serve_batch,
            [request.query for request in live],
            workers=daemon.config.workers,
            mode=mode,
            timeout=timeout,
            retries=daemon.config.retries,
            on_error="partial",
        )
    except asyncio.CancelledError:
        # Forced drain: the batch loop is being cancelled past the drain
        # deadline.  The serving thread cannot be interrupted (its result
        # is simply discarded), but the waiting handlers must still get
        # answers — a daemon never exits holding unresolved futures.
        for request in live:
            daemon.stats.failed += 1
            request.resolve(503, {"error": "draining", "detail": "daemon is shutting down"})
        raise
    except Exception as exc:
        # serve_batch(on_error="partial") only raises for batch-level
        # breakage (a deterministic library error, a closed session);
        # the batch fails as a unit and the breaker hears about it.
        detail = f"{type(exc).__name__}: {exc}"
        daemon.breaker.record_failure()
        for request in live:
            daemon.stats.failed += 1
            request.resolve(500, {"error": "serving", "detail": detail})
        return

    settled_at = time.monotonic()
    generation = daemon.db._engine_gen
    serving_failures = 0
    for request, slot in zip(live, result.results, strict=True):
        if slot.failed:
            if isinstance(slot.error, QueryTimeoutError):
                daemon.stats.timed_out += 1
                request.resolve(504, {"error": "deadline", "detail": str(slot.error)})
            else:
                serving_failures += 1
                daemon.stats.failed += 1
                request.resolve(500, {"error": "serving", "detail": str(slot.error)})
        else:
            answers = encode_answers(slot.pairs(), request.limit)
            daemon.stats.completed += 1
            daemon.stats.latency.record(settled_at - request.enqueued_at)
            request.resolve(
                200,
                {
                    "answers": answers,
                    "count": len(answers),
                    "generation": generation,
                    "batched": len(live),
                },
            )
    if serving_failures or (mode != "thread" and daemon.db._process_degraded):
        daemon.breaker.record_failure()
    else:
        daemon.breaker.record_success()
