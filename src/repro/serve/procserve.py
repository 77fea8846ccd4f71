"""Process-based query serving — a GIL-free, fault-tolerant read path.

The thread-pool serving path (``GraphDatabase.serve_batch`` with
``mode="thread"``) is correct under concurrency but CPU-bound evaluation
throughput stays GIL-bounded: N reader threads time-slice one
interpreter.  Related structural-index work (Riveros et al.'s structural
indexing for free-connex acyclic CQs, Fletcher & Beck's secondary-memory
RDF indexing) treats a built index as an **immutable artifact served by
independent readers** — exactly the shape that lets evaluation fan out
across worker *processes* instead.

This module is that fan-out:

* workers receive the engine one of two ways.  The preferred path
  (PR 8) ships only a **(path, token) pair**: the session writes the
  engine as a zero-copy store generation (:mod:`repro.store`) and each
  worker ``mmap``-opens it — per-worker shipped bytes collapse from the
  engine pickle to the length of a path string,
  and the mapped pages are shared across workers instead of unpickled N
  times.  The fallback path ships an **engine snapshot** — the engine
  pickled *minus* its lock-bearing memo caches
  (``EngineBase.__getstate__`` drops them; they are pure caches,
  rebuilt lazily worker-side) — used for engines without store support.
  Both travel over the supervised pipe-connected machinery of
  :class:`repro.serve.supervisor.WorkerSupervisor`;
* a **work-queue dispatcher** (:meth:`ProcessServingPool.serve`) hands
  resolved queries to idle workers one at a time and reassembles the
  answers in submission order, so a process-served batch returns exactly
  the serial ``execute_batch`` answers for every query that succeeds;
* a **version-token handshake** keeps snapshots fresh: every snapshot
  or map message and every query carries the session's serve token
  (:func:`session_token` — engine generation, graph version, engine
  epoch).  The dispatcher re-ships to a worker whose last shipped token
  is out of date (for mapped serving that usually means a new *delta*
  generation path — or the same path again when only the token moved,
  which the worker installs without re-opening anything), and the
  worker *independently* rejects a query whose token does not match its
  installed engine (replying ``stale``, which triggers a re-ship and a
  retry) — so even an invalidation the parent's bookkeeping missed
  cannot serve answers computed against an older engine.  A worker that
  fails to *open* a shipped path reports it through the normal
  per-query error path, so a corrupt generation file fails queries
  under the bounded retry budget instead of wedging the pool;
* **bounded failure domains** (PR 7): a worker that dies mid-query is
  restarted by the supervisor (exponential backoff, bounded restart
  budget) and its in-flight query re-dispatched with backoff up to a
  per-query retry budget; a query that exceeds its **deadline**
  (``timeout=``) gets its worker killed, restarted, and the query
  retried or surfaced as :class:`~repro.errors.QueryTimeoutError`; an
  evaluation error ships back as a traceback and is retried, then
  surfaced as a structured :class:`~repro.errors.ServingError`.
  Permanent failures come back as
  :class:`~repro.serve.supervisor.ServeFailure` slots — the *batch*
  never raises for a single query's sake, and the pool survives for the
  next batch.  When the restart budget is exhausted the pool **degrades
  gracefully**: remaining queries evaluate serially in the parent (same
  answers, no parallelism), ``degraded`` is set, and the session routes
  future ``auto``-mode batches to threads.

Chaos testing hooks: :meth:`ProcessServingPool.serve` accepts a
:class:`~repro.serve.faults.FaultInjector`, shipped to workers inside
the snapshot message, which kills/delays/drops at controlled seeded
rates (``tests/test_chaos.py``, ``tests/test_daemon.py``).

See ``docs/concurrency.md`` for the protocol diagram and
``docs/robustness.md`` for the failure-domain table and degradation
ladder.
"""

from __future__ import annotations

import contextlib
import pickle
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from multiprocessing.connection import Connection, wait
from typing import cast

from repro.core.executor import ExecutionStats
from repro.errors import CorruptIndexError, QueryTimeoutError, ServingError
from repro.graph.digraph import Pair
from repro.query.ast import CPQ
from repro.serve.faults import FaultInjector
from repro.serve.supervisor import ServeFailure, WorkerSupervisor

#: ``mode="auto"`` only picks process serving for batches at least this
#: large: below it, snapshot shipping and pipe round-trips dominate any
#: parallel gain even on a many-core host.
PROCESS_MODE_MIN_QUERIES = 8

#: Default per-query re-dispatch budget (``serve_batch(retries=...)``).
DEFAULT_RETRIES = 2

#: Exponential backoff between re-dispatches of one query: the n-th
#: retry sleeps ``min(BASE * 2**(n-1), CAP)`` seconds.
RETRY_BACKOFF_BASE = 0.02
RETRY_BACKOFF_CAP = 0.5

#: Deadline applied when no ``timeout=`` was given but the batch runs
#: under an injector that drops replies — a dropped message would
#: otherwise hang the batch forever.
CHAOS_DROP_TIMEOUT = 5.0

#: Extra allowance on a query's deadline when its dispatch had to
#: (re-)ship the engine snapshot.  The worker acks the install
#: (``snapshot_ok``), which restarts the deadline clock at the plain
#: ``timeout`` — this grace only bounds a worker that hangs *during*
#: install, so unpickling a large snapshot (the state every ``update()``
#: leaves behind) cannot eat the query's budget and kill-loop the pool.
SNAPSHOT_INSTALL_GRACE = 30.0

#: A serve token: ``(engine generation, graph version, engine epoch)``.
#: Equality means "the same engine state"; any update, rebuild, or
#: engine swap moves at least one component.
ServeToken = tuple[int, int, int]

#: One served query's outcome: the answer set plus its operator counters.
ServeOutcome = tuple[frozenset[Pair], ExecutionStats]


def session_token(engine: object, generation: int) -> ServeToken:
    """The freshness token for ``engine`` as the ``generation``-th engine
    adopted by its session.

    Extends the engine-level ``(graph version, epoch)`` memo token with
    the session's adoption counter: a rebuild on an unchanged graph
    swaps the engine object without moving either engine-level
    component, and only the generation tells the two apart.
    """
    graph = getattr(engine, "graph", None)
    return (
        generation,
        getattr(graph, "version", 0),
        getattr(engine, "_cache_epoch", 0),
    )


def snapshot_bytes(engine: object) -> bytes:
    """Pickle ``engine`` as a shippable snapshot.

    Relies on the snapshot invariant: every registered engine pickles
    after build once its lock-bearing memo caches are dropped
    (``EngineBase.__getstate__``; the graph likewise drops its interned
    adjacency snapshot).  Guarded by the per-engine round-trip test in
    ``tests/test_procserve.py``.  An engine that breaks the invariant —
    a third-party engine left at the default
    ``EngineSpec(process_servable=True)`` while holding unpicklable
    state — surfaces here as :class:`~repro.errors.ServingError` with
    the fix spelled out, not as a raw pickling ``TypeError``.
    """
    try:
        return pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise ServingError(
            f"engine {type(engine).__name__!r} cannot be snapshotted for "
            f"process serving ({exc}); register it with "
            f"EngineSpec(process_servable=False) or serve with "
            f"mode='thread'"
        ) from exc


def _serve_worker(worker_id: int, conn: Connection) -> None:
    """Worker-process loop: install snapshots or mapped stores, answer queries.

    Messages from the parent: ``("snapshot", blob, token, injector)``
    installs a new engine snapshot (``injector`` is ``None`` outside
    chaos runs) — acknowledged with ``("snapshot_ok", token)`` once the
    blob is unpickled, so the parent can start the in-flight query's
    deadline *after* the install instead of letting a large snapshot
    eat the query's budget; ``("map", path, token, injector)`` is the
    zero-copy analogue — the worker ``mmap``-opens the store file at
    ``path`` (skipping the open entirely when ``path`` matches the
    engine it already holds: a token-only move, or a parent that merely
    forgot what it shipped), acked with the same ``("snapshot_ok",
    token)``; ``("query", job, query, limit, token)`` evaluates —
    answered with ``("result", job, answers, stats)``, ``("stale",
    job)`` when ``token`` does not match the installed engine (the
    handshake's worker-side check), ``("error", job, reason)`` when
    evaluation raises, or ``("map_error", job, path, reason, trace)``
    when the preceding map failed to open (a corrupt or missing
    generation file fails its queries under the bounded retry budget,
    with the parent demoting the batch to snapshot shipping — it never
    wedges the pool); ``("stop",)`` (or a closed pipe) ends the loop.
    The memo caches the snapshot was stripped of rebuild here lazily, so
    repeated queries within one worker still hit the engine's
    cross-query LRUs.

    Under an injector, each query consults the worker fault sites before
    evaluating: ``worker.kill`` hard-exits (the parent sees EOF),
    ``worker.delay`` sleeps, ``worker.drop`` swallows the query without
    replying (the parent's deadline recovers it), and ``worker.error``
    raises into the normal evaluation-error path.
    """
    import traceback

    engine: object | None = None
    engine_path: str | None = None
    map_error: tuple[str, str, str] | None = None
    token: ServeToken | None = None
    injector: FaultInjector | None = None
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):  # noqa: PERF203 - per-message shutdown guard
                break
            kind = message[0]
            if kind == "stop":
                break
            if kind == "snapshot":
                engine = pickle.loads(message[1])
                engine_path = None
                map_error = None
                token = message[2]
                injector = message[3]
                conn.send(("snapshot_ok", token))
            elif kind == "map":
                path = message[1]
                token = message[2]
                injector = message[3]
                if engine is None or engine_path != path:
                    try:
                        from repro.serve.faults import inject
                        from repro.store import open_store

                        if injector is not None:
                            # Ambient install so the reader's store.open /
                            # store.delta hook points fire worker-side.
                            with inject(injector):
                                engine = open_store(path)
                        else:
                            engine = open_store(path)
                        engine_path = path
                        map_error = None
                    except Exception as exc:
                        # Surfaced per query below: every query against the
                        # unopenable store answers ("map_error", job, ...).
                        engine = None
                        engine_path = None
                        reason = str(getattr(exc, "reason", None) or exc)
                        map_error = (str(path), reason, traceback.format_exc())
                conn.send(("snapshot_ok", token))
            elif kind == "query":
                _, job, query, limit, expected = message
                if token != expected or (engine is None and map_error is None):
                    conn.send(("stale", job))
                    continue
                if engine is None:
                    assert map_error is not None
                    conn.send(("map_error", job, *map_error))
                    continue
                if injector is not None:
                    injector.maybe_kill("worker.kill")
                    injector.maybe_delay("worker.delay")
                    if injector.fire("worker.drop"):
                        continue
                try:
                    if injector is not None:
                        injector.fail("worker.error")
                    run = ExecutionStats()
                    evaluate = engine.evaluate  # type: ignore[attr-defined]
                    answers = evaluate(query, stats=run, limit=limit)
                    conn.send(("result", job, frozenset(answers), run))
                except Exception:  # noqa: PERF203 - per-query fault isolation
                    conn.send(("error", job, traceback.format_exc()))
            else:  # pragma: no cover - protocol misuse guard
                conn.send(("error", None, f"unknown message kind {kind!r}"))
    except Exception:  # pragma: no cover - crash-path reporting
        import traceback as _tb

        with contextlib.suppress(OSError):
            conn.send(("error", None, _tb.format_exc()))
    finally:
        conn.close()


#: One not-yet-resolved query: ``(batch index, query, attempts so far)``.
_Job = tuple[int, CPQ, int]


class ProcessServingPool:
    """A persistent, supervised pool of serving worker processes.

    Wraps a :class:`~repro.serve.supervisor.WorkerSupervisor` (``spawn``
    context, so construction is safe under live reader threads) with the
    snapshot-shipping dispatcher described in the module docstring.
    One batch runs at a time (an internal mutex serializes concurrent
    :meth:`serve` calls); the session's RWLock already serializes
    batches against updates.

    Unlike the PR 5 pool, worker failure does **not** close the pool:
    the supervisor restarts workers under its budget, queries are
    retried, and permanent failures surface as per-query
    :class:`~repro.serve.supervisor.ServeFailure` slots.  Only budget
    exhaustion changes the pool's shape — it flips :attr:`degraded` and
    finishes in-parent.
    """

    def __init__(self, workers: int, *, restart_budget: int | None = None) -> None:
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool = WorkerSupervisor(_serve_worker, workers, restart_budget=restart_budget)
        self._lock = threading.Lock()
        #: Last token shipped to each worker connection.
        self._worker_tokens: dict[Connection, ServeToken] = {}
        self._snapshot_token: ServeToken | None = None
        self._snapshot_blob: bytes | None = None
        #: The injector shipped with the last batch; workers only learn
        #: about a new one through a snapshot message, so an identity
        #: change retires the shipped snapshots (see :meth:`serve`).
        self._last_injector: FaultInjector | None = None
        self.closed = False
        #: Set when the restart budget ran out and the pool fell back to
        #: in-parent evaluation; the session reads this to route future
        #: ``auto`` batches to threads.
        self.degraded = False
        #: Lifetime shipping accounting (the storage bench reads these):
        #: bytes actually sent to install engines in workers — pickled
        #: blobs for snapshot ships, just the path string for map ships.
        self.shipped_bytes = 0
        self.snapshot_ships = 0
        self.map_ships = 0
        #: Batches in which a worker failed to open a shipped store path
        #: (corrupt or missing generation).  The session reads this after
        #: every mapped batch and re-spools a fresh generation chain when
        #: it grew — see ``GraphDatabase._serve_batch_process``.
        self.map_failures = 0

    # ------------------------------------------------------------------
    # snapshot lifecycle
    # ------------------------------------------------------------------
    def _snapshot(self, engine: object, token: ServeToken) -> bytes:
        """The pickled snapshot for ``token``, serialized at most once."""
        if self._snapshot_token != token or self._snapshot_blob is None:
            self._snapshot_blob = snapshot_bytes(engine)
            self._snapshot_token = token
        return self._snapshot_blob

    def invalidate(self) -> None:
        """Retire every shipped snapshot (the update-side hook).

        Called by ``GraphDatabase.update()`` under the exclusive lock —
        after in-flight readers drained — so the next batch re-ships
        fresh snapshots even before any token comparison runs, and the
        stale blob's memory is released immediately.
        """
        self._snapshot_token = None
        self._snapshot_blob = None
        self._worker_tokens.clear()

    @property
    def restarts_used(self) -> int:
        """Worker restarts consumed over the pool's lifetime (chaos bench)."""
        return self._pool.restarts_used

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def serve(
        self,
        engine: object,
        token: ServeToken,
        queries: Sequence[CPQ],
        limit: int | None = None,
        *,
        timeout: float | None = None,
        retries: int = DEFAULT_RETRIES,
        injector: FaultInjector | None = None,
        store_path: str | None = None,
    ) -> list[ServeOutcome | ServeFailure]:
        """Evaluate ``queries`` across the workers; outcomes keep input order.

        ``store_path`` switches engine shipping to the zero-copy path:
        workers that need a (re-)install receive ``(store_path, token)``
        and ``mmap``-open the store generation themselves — ``engine``
        is then only used for the degraded in-parent tail.  Without it,
        workers receive the pickled snapshot as before.

        A work-queue dispatcher: every idle worker holds exactly one
        in-flight query, finished workers immediately draw the next one,
        so a slow query never stalls the rest of the batch behind a
        static pre-partition.  Each slot of the returned list is either
        a ``(answers, stats)`` outcome or a
        :class:`~repro.serve.supervisor.ServeFailure` for a query that
        exhausted its ``retries`` budget; the caller
        (``GraphDatabase.serve_batch``) decides whether failures raise
        or surface as partial results.

        ``timeout`` is a hard per-query deadline: a worker that has not
        replied within it is killed and restarted, and the query retried
        (each expiry consumes an attempt) before surfacing as
        :class:`~repro.errors.QueryTimeoutError`.
        """
        with self._lock:
            if self.closed:
                raise ServingError("serving pool is closed")
            if injector is not self._last_injector:
                # Workers adopt an injector (or drop one) only through a
                # snapshot message — force a re-ship on the next dispatch
                # so a warm pool cannot silently ignore a chaos run.
                self._worker_tokens.clear()
                self._last_injector = injector
            try:
                return self._serve_locked(
                    engine, token, queries, limit, timeout, retries, injector, store_path
                )
            except BaseException:
                # Per-query failures never land here (they become
                # ServeFailure slots); anything that does escape means
                # the dispatch protocol itself is broken mid-exchange,
                # and a half-spoken pipe cannot be rejoined.
                self._close_locked()
                raise

    def _serve_locked(
        self,
        engine: object,
        token: ServeToken,
        queries: Sequence[CPQ],
        limit: int | None,
        timeout: float | None,
        retries: int,
        injector: FaultInjector | None,
        store_path: str | None,
    ) -> list[ServeOutcome | ServeFailure]:
        jobs: deque[_Job] = deque((index, query, 0) for index, query in enumerate(queries))
        outcomes: list[ServeOutcome | ServeFailure | None] = [None] * len(queries)
        #: conn -> (index, query, attempts consumed, deadline or None)
        in_flight: dict[Connection, tuple[int, CPQ, int, float | None]] = {}
        if timeout is None and injector is not None and injector.rate("worker.drop") > 0:
            # A dropped reply with no deadline would hang the batch.
            timeout = CHAOS_DROP_TIMEOUT

        def resolve(index: int, query: CPQ, attempts: int, error: ServingError) -> None:
            """Retry ``query`` with backoff, or record its permanent failure."""
            if attempts <= retries:
                time.sleep(min(RETRY_BACKOFF_BASE * (2 ** (attempts - 1)), RETRY_BACKOFF_CAP))
                jobs.append((index, query, attempts))
                if injector is not None:
                    injector.note("query.retried")
            else:
                outcomes[index] = ServeFailure(index, error, attempts)
                if injector is not None:
                    injector.note("query.failed")

        def worker_down(conn: Connection, reason: str) -> None:
            """Replace a dead worker and re-dispatch its in-flight query."""
            slot = self._pool.slot_for(conn)
            self._worker_tokens.pop(conn, None)
            replacement = self._pool.replace(slot)
            if injector is not None:
                injector.note("worker.restarted" if replacement else "worker.retired")
            job = in_flight.pop(conn, None)
            if job is not None:
                index, query, attempts, _ = job
                resolve(
                    index,
                    query,
                    attempts,
                    ServingError(
                        reason,
                        worker_id=slot.worker_id,
                        query_index=index,
                        attempts=attempts,
                    ),
                )

        def dispatch(conn: Connection, job: _Job) -> None:
            index, query, attempts = job
            shipping = self._worker_tokens.get(conn) != token
            if shipping:
                if store_path is not None:
                    self.shipped_bytes += len(store_path.encode("utf-8"))
                    self.map_ships += 1
                    conn.send(("map", store_path, token, injector))
                else:
                    blob = self._snapshot(engine, token)
                    self.shipped_bytes += len(blob)
                    self.snapshot_ships += 1
                    conn.send(("snapshot", blob, token, injector))
                self._worker_tokens[conn] = token
            conn.send(("query", index, query, limit, token))
            deadline = None
            if timeout is not None:
                # The install grace is retired by the worker's
                # ``snapshot_ok`` ack, which resets the deadline to the
                # plain timeout.
                grace = SNAPSHOT_INSTALL_GRACE if shipping else 0.0
                deadline = time.monotonic() + timeout + grace
            in_flight[conn] = (index, query, attempts + 1, deadline)

        while jobs or in_flight:
            # Fill every idle live worker from the queue.
            for slot in self._pool.live_slots():
                if not jobs:
                    break
                if slot.connection in in_flight:
                    continue
                job = jobs.popleft()
                try:
                    dispatch(slot.connection, job)
                except OSError:
                    # The worker died between batches (or mid-handshake);
                    # the dispatch was never received, so re-queue at no
                    # attempt cost and replace the worker.
                    jobs.appendleft(job)
                    worker_down(
                        slot.connection, "serving worker exited unexpectedly (killed or crashed)"
                    )
            if not in_flight:
                if jobs and not self._pool.live_slots():
                    self._finish_in_parent(engine, jobs, outcomes, limit, injector)
                continue
            deadlines = [d for (_, _, _, d) in in_flight.values() if d is not None]
            wait_for = None if not deadlines else max(0.0, min(deadlines) - time.monotonic())
            ready = wait(list(in_flight), wait_for)
            if not ready:
                self._expire_deadlines(in_flight, timeout, resolve, worker_down)
                continue
            for ready_conn in ready:
                conn = cast(Connection, ready_conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    worker_down(conn, "serving worker exited unexpectedly (killed or crashed)")
                    continue
                if message[0] == "snapshot_ok":
                    # The worker finished installing a (re-)shipped
                    # snapshot: restart the in-flight query's deadline —
                    # unpickling a large engine must not eat the query's
                    # budget, or a tight deadline would kill-loop every
                    # worker after an update moved the serve token.
                    job = in_flight.get(conn)
                    if job is not None and timeout is not None:
                        index, query, attempts, _ = job
                        in_flight[conn] = (index, query, attempts, time.monotonic() + timeout)
                    continue
                index, query, attempts, _ = in_flight.pop(conn)
                kind = message[0]
                if kind == "result":
                    outcomes[message[1]] = (message[2], message[3])
                elif kind == "stale":
                    # The worker-side token check tripped: its snapshot
                    # predates ours.  Forget what we think we shipped,
                    # re-queue at no attempt cost; the re-dispatch
                    # re-ships the snapshot first.
                    self._worker_tokens.pop(conn, None)
                    jobs.appendleft((index, query, attempts - 1))
                elif kind == "map_error":
                    # The worker could not mmap-open the shipped store
                    # generation (missing or corrupt file, broken delta
                    # chain).  Correctness never depends on the store:
                    # demote the *batch* to pickled-snapshot shipping so
                    # the retry lands on a working install path, and give
                    # the caller a typed cause for any slot that already
                    # spent its budget.  The session checks
                    # :attr:`map_failures` afterwards and re-spools a
                    # fresh generation chain for the next batch.
                    _, _, bad_path, why, trace = message
                    self._worker_tokens.pop(conn, None)
                    self.map_failures += 1
                    store_path = None
                    if injector is not None:
                        injector.note("store.map_failed")
                    error = ServingError(
                        f"serving worker could not open mapped index {bad_path}:\n{trace}",
                        worker_id=self._pool.slot_for(conn).worker_id,
                        query_index=index,
                        attempts=attempts,
                    )
                    error.__cause__ = CorruptIndexError(bad_path, why)
                    resolve(index, query, attempts, error)
                else:
                    reason = message[2] if kind == "error" else f"bad message {kind!r}"
                    worker_id = self._pool.slot_for(conn).worker_id
                    resolve(
                        index,
                        query,
                        attempts,
                        ServingError(
                            f"serving worker failed on query {query!r}:\n{reason}",
                            worker_id=worker_id,
                            query_index=index,
                            attempts=attempts,
                        ),
                    )
        # Every job was dispatched and resolved to an outcome or failure.
        return cast("list[ServeOutcome | ServeFailure]", outcomes)

    def _expire_deadlines(
        self,
        in_flight: dict[Connection, tuple[int, CPQ, int, float | None]],
        timeout: float | None,
        resolve: Callable[[int, CPQ, int, ServingError], None],
        worker_down: Callable[[Connection, str], None],
    ) -> None:
        """Kill and replace workers whose in-flight query blew its deadline."""
        now = time.monotonic()
        for conn, (index, query, attempts, deadline) in list(in_flight.items()):
            if deadline is None or deadline > now:
                continue
            # The worker is hung (or the reply was dropped): the only
            # safe recovery is to kill the process — its pipe may later
            # emit a reply for the abandoned dispatch, which a fresh
            # process cannot.
            worker_id = self._pool.slot_for(conn).worker_id
            del in_flight[conn]
            worker_down(conn, "deadline bookkeeping")
            resolve(
                index,
                query,
                attempts,
                QueryTimeoutError(
                    timeout=timeout,
                    worker_id=worker_id,
                    query_index=index,
                    attempts=attempts,
                ),
            )

    def _finish_in_parent(
        self,
        engine: object,
        jobs: deque[_Job],
        outcomes: list[ServeOutcome | ServeFailure | None],
        limit: int | None,
        injector: FaultInjector | None,
    ) -> None:
        """Degraded tail: no live workers remain, evaluate serially here.

        The answers are the serial answers by construction (same engine,
        same ``evaluate``); only the parallelism is lost.  Deadlines
        cannot be enforced in-parent (there is no process to kill), so
        the degraded tail runs without them — documented in
        ``docs/robustness.md``.
        """
        self.degraded = True
        if injector is not None:
            injector.note("pool.degraded")
        while jobs:
            index, query, attempts = jobs.popleft()
            try:
                run = ExecutionStats()
                evaluate = engine.evaluate  # type: ignore[attr-defined]
                answers = evaluate(query, stats=run, limit=limit)
                outcomes[index] = (frozenset(answers), run)
            except Exception as exc:  # noqa: PERF203 - per-query fault isolation
                error = ServingError(
                    f"query evaluation failed in degraded (in-parent) serving: {exc}",
                    query_index=index,
                    attempts=attempts + 1,
                )
                error.__cause__ = exc
                outcomes[index] = ServeFailure(index, error, attempts + 1)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _close_locked(self) -> None:
        if not self.closed:
            self.closed = True
            for slot in self._pool.live_slots():
                with contextlib.suppress(OSError):
                    slot.connection.send(("stop",))
            self._pool.close()
            self.invalidate()

    def close(self) -> None:
        """Stop and join every worker; idempotent."""
        with self._lock:
            self._close_locked()

    def __enter__(self) -> ProcessServingPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "degraded" if self.degraded else "open"
        return f"ProcessServingPool(workers={self.workers}, {state})"
