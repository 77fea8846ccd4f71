"""The :class:`GraphDatabase` session facade — one front door for every engine.

The seed exposed six engine classes with subtly different construction
and evaluation entry points; every example, benchmark, and CLI command
re-implemented the build → plan → evaluate → stats pipeline by hand.
``GraphDatabase`` owns that pipeline once:

    db = GraphDatabase.from_triples([("a", "b", "f"), ("b", "a", "f")])
    db.build_index(engine="auto")          # advisor + cost model routing
    for pair in db.query("(f . f) & id"):  # lazy ResultSet
        ...
    db.update(add_edges=[("a", "c", "f")])  # lazy maintenance + refresh
    db.save("graph.idx")                    # persistence round-trip
    db2 = GraphDatabase.open("graph.idx")

The session life cycle:

* **open** — :meth:`from_triples`, :meth:`from_graph`, :meth:`from_dataset`,
  or :meth:`open` (a saved index file, via :mod:`repro.core.persistence`);
* **build** — :meth:`build_index` resolves the engine through the
  registry (:mod:`repro.db.registry`); ``engine="auto"`` routes through
  the advisor/cost-model policy (:mod:`repro.db.auto`), and
  ``interests="auto"`` derives interests from the workload;
* **query** — :meth:`query` returns a lazy :class:`ResultSet`;
  :meth:`execute_batch` evaluates a workload and aggregates its stats;
* **update** — :meth:`update` applies edge/vertex changes through the
  lazy maintenance of Sec. IV-E on incremental engines (CPQx/iaCPQx) and
  transparently rebuilds the others;
* **save** — :meth:`save` persists persistable engines.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import TYPE_CHECKING, cast

from repro.core.advisor import advise_k, recommend_interests
from repro.core.concurrency import RWLock
from repro.core.executor import ExecutionStats
from repro.core.parallel import resolve_workers
from repro.core.stats import IndexStats, stats_of
from repro.db.auto import AutoSelection, default_workload, select_engine
from repro.db.registry import EngineSpec, available_engines, engine_spec
from repro.db.resultset import ResultSet, VertexDataFilter
from repro.errors import QueryTimeoutError, ReproError, ServingError, SessionError
from repro.graph.digraph import LabeledDigraph, Vertex
from repro.graph.labels import LabelSeq
from repro.query.ast import CPQ, is_resolved, resolve
from repro.query.parser import parse
from repro.serve import (
    DEFAULT_RETRIES,
    PROCESS_MODE_MIN_QUERIES,
    ProcessServingPool,
    ServeFailure,
    ServeToken,
    current_injector,
    session_token,
)
from repro.serve.faults import FaultInjector
from repro.serve.procserve import RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP

if TYPE_CHECKING:
    from repro.store.writer import StoreState

Triple = tuple[Vertex, Vertex, object]

#: Serving modes accepted by :meth:`GraphDatabase.serve_batch`.
SERVE_MODES = ("thread", "process", "auto")

#: Failure policies accepted by :meth:`GraphDatabase.serve_batch`.
ON_ERROR_POLICIES = ("raise", "partial")

#: How long ``mode="auto"`` keeps routing to threads after a process
#: pool exhausted its restart budget.  After the cooldown the session
#: re-tries process serving with a fresh pool and budget; a successful
#: batch clears the marker entirely (the probe path the serving
#: daemon's circuit breaker drives explicitly).
PROCESS_DEGRADED_COOLDOWN = 30.0


class BatchResult(Sequence):
    """Results of :meth:`GraphDatabase.execute_batch`: one materialized
    :class:`ResultSet` per query, plus merged operator counters.

    Under ``serve_batch(..., on_error="partial")`` some slots may be
    *failed* result sets (:attr:`ResultSet.failed`); they are excluded
    from the merged counters and :attr:`total_answers`, and listed by
    :attr:`failures`."""

    def __init__(self, results: list[ResultSet], elapsed_seconds: float) -> None:
        self.results = results
        self.elapsed_seconds = elapsed_seconds
        self.stats = ExecutionStats()
        for result in results:
            if not result.failed:
                self.stats.merge(result.stats)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, item):
        return self.results[item]

    @property
    def failures(self) -> list[ResultSet]:
        """The failed slots of a partial batch (empty when all succeeded)."""
        return [result for result in self.results if result.failed]

    @property
    def total_answers(self) -> int:
        return sum(len(result) for result in self.results if not result.failed)

    def describe(self) -> str:
        failed = len(self.failures)
        suffix = f", {failed} failed" if failed else ""
        return (
            f"{len(self.results)} queries, {self.total_answers} answers in "
            f"{1000 * self.elapsed_seconds:.3f} ms "
            f"(lookups={self.stats.lookups} joins={self.stats.joins}{suffix})"
        )


class GraphDatabase:
    """A session over one labeled digraph and one (current) engine."""

    def __init__(self, graph: LabeledDigraph, name: str = "graph") -> None:
        self.graph = graph
        self.name = name
        self._engine = None
        self._spec: EngineSpec | None = None
        self._build_args: dict = {}
        self._build_seconds = 0.0
        #: Readers/writer lock serializing :meth:`update` against the
        #: concurrent serving path (:meth:`serve_batch`): updates take
        #: the exclusive side, each served query the shared side, so a
        #: reader always observes the engine at an update boundary.
        self._rwlock = RWLock()
        #: Counts engine adoptions (builds, rebuilds, opens).  Part of
        #: the serve token: a rebuild on an unchanged graph swaps the
        #: engine object without moving the graph version or the new
        #: engine's epoch, and only this counter tells the process
        #: serving pool its shipped snapshots are stale.
        self._engine_gen = 0
        #: Lazily created by the first ``serve_batch(mode="process")``;
        #: guarded by ``_pool_lock`` (always acquired *after* the
        #: RWLock, never holding it while evaluating).
        self._proc_pool: ProcessServingPool | None = None
        #: Lazily created by the first ``serve_batch(mode="thread")`` and
        #: reused across batches (same lock, same lifetime rules).
        self._thread_pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        #: Degradation marker with a cooldown: set to a monotonic
        #: deadline when a process-serving pool exhausted its worker
        #: restart budget; ``mode="auto"`` routes batches to threads
        #: until the deadline passes (the degradation ladder — see
        #: ``docs/robustness.md``), then re-tries process serving with a
        #: fresh pool.  A successful process batch resets it to zero, so
        #: a *transient* crash storm does not demote the session
        #: forever.  An explicit ``mode="process"`` always builds a
        #: fresh pool with a fresh budget (the probe path).
        self._process_degraded_until = 0.0
        #: The cooldown window in seconds (tests and the daemon breaker
        #: tune it per instance).
        self.degraded_cooldown = PROCESS_DEGRADED_COOLDOWN
        #: Zero-copy serving state (PR 8): the session lazily writes the
        #: engine as store generations (full file + deltas) under a
        #: per-session temp directory, and process workers ``mmap``-open
        #: them by path instead of receiving a pickle.  ``_store_state``
        #: is the last written/opened generation, ``_store_token`` the
        #: serve token it covers; ``_store_lock`` serializes generation
        #: writes between concurrent batches (the RWLock's shared side
        #: is held, so it cannot order them).
        self._store_dir: str | None = None
        self._store_state: StoreState | None = None
        self._store_token: ServeToken | None = None
        self._store_lock = threading.Lock()
        #: Bumped when a worker failed to open a shipped generation
        #: (corrupt or deleted file): the next spool then writes a fresh
        #: *full* generation into a fresh subdirectory, so no worker can
        #: alias a previously-mapped path to the new content.
        self._store_respools = 0
        #: Escape hatch (the storage bench flips it): ``False`` restores
        #: pickled-snapshot shipping for process serving.
        self._store_serving = True
        #: Populated when ``engine="auto"`` made the choice.
        self.selection: AutoSelection | None = None

    # ------------------------------------------------------------------
    # opening a session
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: LabeledDigraph, name: str = "graph") -> GraphDatabase:
        """Wrap an existing graph in a session."""
        return cls(graph, name=name)

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Triple],
        labels: Iterable[str] | None = None,
        name: str = "graph",
    ) -> GraphDatabase:
        """Start a session from ``(source, target, label)`` triples.

        ``labels`` optionally pre-registers label names so their ids are
        stable regardless of first-use order in ``triples``.
        """
        from repro.graph.labels import LabelRegistry

        registry = LabelRegistry(labels) if labels is not None else None
        return cls(LabeledDigraph.from_triples(triples, registry), name=name)

    @classmethod
    def from_dataset(cls, name: str, scale: float = 0.25, seed: int = 7) -> GraphDatabase:
        """Start a session over a registry dataset stand-in."""
        from repro.graph.datasets import load_dataset

        return cls(load_dataset(name, scale=scale, seed=seed), name=name)

    @classmethod
    def open(cls, path, name: str | None = None) -> GraphDatabase:
        """Resume a session from a saved index file (graph included)."""
        from repro.core.interest import InterestAwareIndex
        from repro.core.persistence import load_index

        index = load_index(path)
        db = cls(index.graph, name=name or str(path))
        key = "iacpqx" if isinstance(index, InterestAwareIndex) else "cpqx"
        db._adopt(index, engine_spec(key), {"k": index.k})
        # A store-opened engine arrives with its generation state: the
        # session serves straight off the opened file (and chains deltas
        # from it) instead of rewriting an identical full generation.
        state = getattr(index, "_store_state", None)
        if state is not None:
            db._store_state = state
            db._store_token = db._serve_token()
        return db

    def _adopt(self, engine, spec: EngineSpec, build_args: dict) -> None:
        self._engine = engine
        self._spec = spec
        self._build_args = build_args
        self._engine_gen += 1
        # A new engine object shares no columns with whatever generation
        # chain was written for the old one — start a fresh chain (the
        # per-adoption subdirectory keeps old paths from being reused,
        # so a worker can never alias a stale mapped file).
        self._store_state = None
        self._store_token = None

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def build_index(
        self,
        engine: str = "auto",
        k: int | str = "auto",
        interests: Iterable[LabelSeq] | str = "auto",
        workload: list[CPQ] | None = None,
        budget_bytes: int | None = None,
        seed: int = 7,
        workers: int | str = 1,
    ) -> GraphDatabase:
        """Build (or replace) the session's engine; returns ``self``.

        ``engine="auto"`` routes the choice of engine, ``k``, and
        interests through the advisor/cost-model policy; naming an engine
        still honours ``k="auto"`` / ``interests="auto"`` individually
        (each resolved from ``workload``, or from a synthesized template
        workload when none is given).

        ``workers`` > 1 (or ``"auto"`` = one per CPU) builds the index
        with the sharded parallel constructor on engines that support it
        (CPQx, iaCPQx, Path, iaPath — see :mod:`repro.core.parallel`);
        on CPQx this covers both build stages, including the
        k-path-bisimulation partition of Algorithm 1
        (:func:`repro.core.partition.compute_partition_codes`).  The
        result is pair-for-pair identical to the serial build.  The
        worker count is remembered, so rebuilds triggered by
        :meth:`update` on non-incremental engines stay parallel.
        """
        num_workers = resolve_workers(workers)  # validates early
        auto_k = k == "auto"
        auto_interests = isinstance(interests, str) and interests == "auto"
        if not auto_k and (not isinstance(k, int) or k < 1):
            raise SessionError(f"k must be a positive int or 'auto', got {k!r}")
        fixed_k = k if isinstance(k, int) else None
        if isinstance(interests, str) and not auto_interests:
            # A stray string would be character-split by frozenset() below.
            raise SessionError(
                f"interests must be 'auto' or an iterable of label-id "
                f"tuples, got {interests!r}"
            )
        self.selection = None

        if engine == "auto":
            selection = select_engine(
                self.graph,
                workload=workload,
                k=None if auto_k else k,  # type: ignore[arg-type]
                budget_bytes=budget_bytes,
                seed=seed,
            )
            self.selection = selection
            spec = engine_spec(selection.engine)
            chosen_k = selection.k if fixed_k is None else fixed_k
            resolved_auto_interests = selection.interests
        else:
            # Named engine: resolve k/interests individually from the
            # workload, without the full (and costlier) selection pass.
            spec = engine_spec(engine)
            queries: list[CPQ] | None = None
            if (auto_k and spec.uses_k) or (auto_interests and spec.uses_interests):
                queries = workload if workload else default_workload(self.graph, seed=seed)
            chosen_k = (advise_k(queries) if queries is not None else 2) if fixed_k is None else fixed_k
            resolved_auto_interests = (
                recommend_interests(
                    self.graph,
                    queries,
                    k=chosen_k,
                    budget_bytes=budget_bytes,
                ).interests
                if queries is not None and spec.uses_interests and auto_interests
                else frozenset()
            )

        chosen_interests = (
            (
                resolved_auto_interests
                if auto_interests
                else frozenset(interests)  # type: ignore[arg-type]
            )
            if spec.uses_interests
            else frozenset()
        )

        # Build and adopt under the exclusive lock: a concurrent reader
        # must never observe a half-installed engine (``_engine`` from
        # the new build with ``_spec`` still describing the old one),
        # and in-flight serve_batch evaluations finish first.
        with self._rwlock.write():
            start = time.perf_counter()
            built = spec.build(self.graph, k=chosen_k, interests=chosen_interests, workers=num_workers)
            self._build_seconds = time.perf_counter() - start
            self._adopt(
                built,
                spec,
                {
                    "k": chosen_k,
                    "interests": chosen_interests,
                    "workers": num_workers,
                },
            )
            self._invalidate_serving_snapshots()
        return self

    @property
    def engine(self):
        """The current engine object (builds ``engine="auto"`` on first use)."""
        if self._engine is None:
            self.build_index(engine="auto")
        return self._engine

    @property
    def engine_name(self) -> str | None:
        """Display name of the current engine, or ``None`` before build."""
        return self._spec.display_name if self._spec is not None else None

    @property
    def is_built(self) -> bool:
        return self._engine is not None

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def _resolve(self, query: CPQ | str) -> CPQ:
        if isinstance(query, str):
            # The engine's statement memo (None while caching is off or
            # on engines without one) spares a repeated text the parser.
            # Only successful parses of texts within the engine's
            # ``statement_text_limit`` are stored.  A miss calls the
            # ``parse`` imported here: benchmarks/e2e/trace.py times the
            # parser by wrapping this module's name.
            accessor = getattr(self._engine, "statement_cache", None)
            statements = accessor() if accessor is not None else None
            if statements is None or len(query) > self._engine.statement_text_limit:
                return parse(query, self.graph.registry)
            resolved = statements.get(query)
            if resolved is None:
                resolved = parse(query, self.graph.registry)
                statements.put(query, resolved)
            return resolved
        if not is_resolved(query):
            return resolve(query, self.graph.registry)
        return query

    def query(
        self,
        query: CPQ | str,
        limit: int | None = None,
        source_filter: VertexDataFilter | None = None,
        target_filter: VertexDataFilter | None = None,
    ) -> ResultSet:
        """Parse (if text) and wrap ``query`` in a lazy :class:`ResultSet`.

        Nothing is evaluated until the result set is consumed (iterated,
        counted, ...); see :mod:`repro.db.resultset`.
        """
        return ResultSet(
            self.engine,
            self._resolve(query),
            limit=limit,
            source_filter=source_filter,
            target_filter=target_filter,
        )

    def _serve_one(self, query: CPQ, limit: int | None) -> ResultSet:
        """Evaluate one resolved query under the shared lock.

        The engine is looked up *inside* the critical section: a
        concurrent :meth:`update` on a non-incremental engine swaps
        ``self._engine`` for a rebuilt index, and binding earlier would
        let an in-flight batch evaluate a stale index against the
        already-mutated graph — a state matching no update boundary.
        """
        with self._rwlock.read():
            result = ResultSet(self._engine, query, limit=limit)
            result.pairs()
        return result

    def execute_batch(self, queries: Iterable[CPQ | str], limit: int | None = None) -> BatchResult:
        """Evaluate a workload eagerly, returning per-query results plus
        merged operator counters — the single-threaded serving path."""
        if not self.is_built:
            self.build_index()  # engine="auto", outside the read lock
        resolved = [self._resolve(query) for query in queries]
        start = time.perf_counter()
        results = [self._serve_one(query, limit) for query in resolved]
        return BatchResult(results, time.perf_counter() - start)

    def serve_batch(
        self,
        queries: Iterable[CPQ | str],
        workers: int | str = 8,
        limit: int | None = None,
        mode: str = "thread",
        timeout: float | None = None,
        retries: int = DEFAULT_RETRIES,
        on_error: str = "raise",
    ) -> BatchResult:
        """Evaluate a workload concurrently — the serving path.

        ``workers`` (``"auto"`` = one per CPU, the same sentinel
        :meth:`build_index` accepts) sets the concurrency; ``mode``
        selects the execution substrate:

        * ``"thread"`` (default) — the session's thread pool (created
          lazily, reused across batches, torn down by :meth:`close`)
          drains the query list;
          each query evaluates under the session's shared (read) lock,
          so a concurrent :meth:`update` is serialized against in-flight
          evaluations and every answer reflects the engine at an update
          boundary.  Correct under concurrency, but CPU-bound
          throughput stays GIL-bounded.
        * ``"process"`` — the batch is dispatched over a persistent,
          *supervised* pool of worker processes (:mod:`repro.serve`),
          each holding a picklable engine snapshot shipped once and
          refreshed through a version-token handshake whenever
          :meth:`update` (or a rebuild) retires it — true parallel
          reads.  The pool is created lazily, reused across batches,
          self-heals from worker crashes under a bounded restart
          budget, and is torn down by :meth:`close`.
        * ``"auto"`` — ``"process"`` when the engine is process-servable
          (:attr:`EngineSpec.process_servable`), more than one worker
          and CPU are available, the batch has at least
          :data:`~repro.serve.PROCESS_MODE_MIN_QUERIES` queries, and no
          recent pool exhausted its restart budget (the degradation
          cooldown, :data:`PROCESS_DEGRADED_COOLDOWN`; a successful
          process batch clears it early); ``"thread"`` otherwise.

        Fault tolerance (PR 7): ``timeout`` gives every query a deadline
        in seconds — *hard* in process mode (the hung worker is killed
        and restarted), *soft* in thread mode (the evaluation thread
        cannot be interrupted; its answer is abandoned).  A timed-out or
        errored query is retried with exponential backoff up to
        ``retries`` re-dispatches; deterministic library errors
        (:class:`~repro.errors.ReproError` — bad query, wrong k) are
        never retried.  What happens to a query that exhausts its budget
        is ``on_error``'s call: ``"raise"`` (default) raises the first
        failure's structured error for the whole batch; ``"partial"``
        returns a full-length batch whose failed slots are
        error-carrying result sets (:attr:`ResultSet.failed`; the batch
        lists them in :attr:`BatchResult.failures`).

        Results keep the input order, and every query that succeeds
        returns exactly the answers of the serial :meth:`execute_batch`
        on an unchanging graph, in every mode and under any fault
        (see ``docs/concurrency.md`` and ``docs/robustness.md``).
        """
        if mode not in SERVE_MODES:
            raise SessionError(f"mode must be one of {', '.join(SERVE_MODES)}, got {mode!r}")
        if on_error not in ON_ERROR_POLICIES:
            raise SessionError(
                f"on_error must be one of {', '.join(ON_ERROR_POLICIES)}, got {on_error!r}"
            )
        if timeout is not None and timeout <= 0:
            raise SessionError(f"timeout must be positive, got {timeout!r}")
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise SessionError(f"retries must be a non-negative int, got {retries!r}")
        num_workers = resolve_workers(workers) if isinstance(workers, str) else workers
        num_workers = max(1, num_workers)
        if not self.is_built:
            self.build_index()  # engine="auto" once, before going concurrent
        resolved = [self._resolve(query) for query in queries]
        chosen = self._resolve_serve_mode(mode, num_workers, len(resolved))
        injector = current_injector()
        start = time.perf_counter()
        if chosen == "process":
            slots = self._serve_batch_process(
                resolved, num_workers, limit, timeout, retries, injector
            )
        else:
            slots = self._serve_batch_thread(
                resolved, num_workers, limit, timeout, retries, injector
            )
        results: list[ResultSet] = []
        for query, slot in zip(resolved, slots, strict=True):
            if isinstance(slot, ServeFailure):
                if on_error == "raise":
                    raise slot.error
                results.append(ResultSet.from_error(self._engine, query, limit, slot.error))
            else:
                results.append(slot)
        return BatchResult(results, time.perf_counter() - start)

    def _submit_to_threads(
        self, workers: int, queries: list[CPQ], limit: int | None
    ) -> tuple[ThreadPoolExecutor, list[Future]]:
        """Queue one round of evaluations on the session's serving threads.

        The pool is created lazily, reused across batches, and (re)built
        to the asked worker count.  Creation, submission, and every
        shutdown happen under ``_pool_lock``, so a round is never
        submitted to a pool some other caller just retired.
        """
        with self._pool_lock:
            pool = self._thread_pool
            if pool is not None and pool._max_workers != workers:
                pool.shutdown(wait=False)  # queued work still runs, then the threads exit
                pool = None
            if pool is None:
                pool = self._thread_pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-serve"
                )
            return pool, [pool.submit(self._serve_one, query, limit) for query in queries]

    def _retire_thread_pool(self, pool: ThreadPoolExecutor) -> None:
        """Stop routing work to ``pool`` without joining its threads."""
        with self._pool_lock:
            pool.shutdown(wait=False)
            if self._thread_pool is pool:
                self._thread_pool = None

    def _serve_batch_thread(
        self,
        resolved: list[CPQ],
        workers: int,
        limit: int | None,
        timeout: float | None,
        retries: int,
        injector: FaultInjector | None,
    ) -> list[ResultSet | ServeFailure]:
        """Thread-mode batch with (soft) deadlines and retries.

        Threads cannot be killed, so a deadline here abandons the
        in-flight evaluation (its thread finishes in the background and
        the answer is discarded) rather than interrupting it; a pool
        holding an abandoned evaluation is replaced — never joined — so
        the next batch starts on healthy threads.  Deterministic library
        errors (:class:`~repro.errors.ReproError`) are not retried —
        re-running a malformed query cannot succeed — and propagate
        unwrapped, as they always have from this path.
        """
        outcomes: list[ResultSet | ServeFailure | None] = [None] * len(resolved)

        def settle(index: int, attempts: int, error: ServingError) -> None:
            if attempts <= retries:
                time.sleep(min(RETRY_BACKOFF_BASE * (2 ** (attempts - 1)), RETRY_BACKOFF_CAP))
                pending.append((index, attempts))
                if injector is not None:
                    injector.note("query.retried")
            else:
                outcomes[index] = ServeFailure(index, error, attempts)
                if injector is not None:
                    injector.note("query.failed")

        futures: list[Future] = []
        try:
            pending: list[tuple[int, int]] = [(index, 0) for index in range(len(resolved))]
            while pending:
                submitted = pending
                pool, futures = self._submit_to_threads(
                    workers, [resolved[index] for index, _ in submitted], limit
                )
                deadline = None if timeout is None else time.monotonic() + timeout
                pending = []
                for future, (index, attempts) in zip(futures, submitted, strict=True):
                    attempts += 1
                    remaining = (
                        None if deadline is None else max(0.0, deadline - time.monotonic())
                    )
                    try:
                        outcomes[index] = future.result(remaining)
                    except FuturesTimeout:  # noqa: PERF203 - per-query deadline
                        if not future.cancel() and future.running():
                            self._retire_thread_pool(pool)  # abandoned mid-evaluation
                        settle(
                            index,
                            attempts,
                            QueryTimeoutError(
                                timeout=timeout, query_index=index, attempts=attempts
                            ),
                        )
                    except ReproError:
                        raise  # deterministic library error: retrying cannot help
                    except Exception as exc:
                        error = ServingError(
                            f"query evaluation failed: {exc}",
                            query_index=index,
                            attempts=attempts,
                        )
                        error.__cause__ = exc
                        settle(index, attempts, error)
        finally:
            for future in futures:
                future.cancel()  # only bites when a ReproError cut the round short
        # Every index was settled to a result or a permanent failure.
        return cast("list[ResultSet | ServeFailure]", outcomes)

    # ------------------------------------------------------------------
    # process-based serving (mode="process"; see repro.serve)
    # ------------------------------------------------------------------
    @property
    def _process_degraded(self) -> bool:
        """Whether ``mode="auto"`` is currently demoted to threads.

        True while the degradation cooldown runs; expires on its own
        (``time.monotonic()`` passing the deadline) or early, when a
        successful process batch resets the deadline.
        """
        return time.monotonic() < self._process_degraded_until

    def _resolve_serve_mode(self, mode: str, workers: int, queries: int) -> str:
        """Resolve ``"auto"`` and validate ``"process"`` eligibility."""
        servable = self._spec is not None and self._spec.process_servable
        if mode == "process":
            if not servable:
                raise SessionError(
                    f"engine {self.engine_name!r} is not process-servable "
                    f"(EngineSpec.process_servable is False); use "
                    f"mode='thread'"
                )
            return "process"
        if (
            mode == "auto"
            and servable
            and not self._process_degraded
            and workers > 1
            and (os.cpu_count() or 1) > 1
            and queries >= PROCESS_MODE_MIN_QUERIES
        ):
            return "process"
        return "thread"

    def _serve_token(self) -> ServeToken:
        """The freshness token process workers validate queries against."""
        return session_token(self._engine, self._engine_gen)

    def _store_generation_path(self, engine) -> str | None:
        """The store generation path covering the current serve token.

        Called under the shared lock (engine frozen).  Returns None when
        zero-copy serving does not apply — non-persistable engine, the
        escape hatch flipped, or a generation write failing (the batch
        then falls back to pickled-snapshot shipping; correctness never
        depends on the store).  Otherwise writes at most one generation
        per serve token: a full file for a fresh engine, a delta holding
        only the classes lazy maintenance replaced since the last one,
        or nothing at all when the state on disk already matches.
        """
        if not self._store_serving or self._spec is None or not self._spec.persistable:
            return None
        token = self._serve_token()
        with self._store_lock:
            if self._store_token == token and self._store_state is not None:
                return str(self._store_state.path)
            from repro.store import write_generation

            if self._store_dir is None:
                self._store_dir = tempfile.mkdtemp(prefix="repro-store-")
            subdir = f"g{self._engine_gen:04d}"
            if self._store_respools:
                # After a worker-side open failure the fresh chain must
                # start at a path no worker has ever mapped: workers
                # skip re-opening a path they already hold, so reusing
                # gNNNN/gen-000001.rsx could alias old columns to a new
                # token.
                subdir = f"{subdir}-r{self._store_respools}"
            directory = os.path.join(self._store_dir, subdir)
            try:
                os.makedirs(directory, exist_ok=True)
                state = write_generation(engine, directory, self._store_state)
            except (OSError, ReproError):
                return None
            self._store_state = state
            self._store_token = token
            return str(state.path)

    def _ensure_process_pool(self, workers: int) -> ProcessServingPool:
        """The session's serving pool, (re)built to the asked worker count."""
        with self._pool_lock:
            pool = self._proc_pool
            if pool is not None and (pool.closed or pool.workers != workers):
                pool.close()
                pool = None
            if pool is None:
                pool = self._proc_pool = ProcessServingPool(workers)
            return pool

    def _serve_batch_process(
        self,
        resolved: list[CPQ],
        workers: int,
        limit: int | None,
        timeout: float | None,
        retries: int,
        injector: FaultInjector | None,
    ) -> list[ResultSet | ServeFailure]:
        """Dispatch one resolved batch over the worker-process pool.

        The whole dispatch runs under the shared lock: a concurrent
        :meth:`update` drains it first (writer preference), then moves
        the serve token, so the next batch re-ships fresh snapshots —
        no answer in this batch can mix pre- and post-update state.
        Pool creation/replacement happens *before* the lock is taken:
        it is engine-independent (the token handshake covers an update
        landing in between), and spawning or joining worker processes
        under the shared side would stall a queued writer — and, via
        writer preference, every other reader — for the whole pool
        lifecycle.

        A pool that exhausted its restart budget during the batch
        finished it in-parent (same answers, no parallelism); the
        session then retires the pool and arms the degradation cooldown
        so ``mode="auto"`` routes batches to threads until it expires
        (or a successful explicit process batch clears it early).
        """
        pool = self._ensure_process_pool(workers)
        map_failures_before = pool.map_failures
        with self._rwlock.read():
            engine = self._engine
            outcomes = pool.serve(
                engine,
                self._serve_token(),
                resolved,
                limit,
                timeout=timeout,
                retries=retries,
                injector=injector,
                store_path=self._store_generation_path(engine),
            )
        if pool.map_failures > map_failures_before:
            # A worker could not open the spooled generation chain
            # (corrupt, truncated, or deleted file): retire the chain so
            # the next batch re-spools a fresh full generation at a
            # never-mapped path.  The batch itself already recovered (or
            # surfaced typed failures) via snapshot fallback.
            with self._store_lock:
                self._store_state = None
                self._store_token = None
                self._store_respools += 1
        if pool.degraded:
            self._process_degraded_until = time.monotonic() + self.degraded_cooldown
            with self._pool_lock:
                if self._proc_pool is pool:
                    self._proc_pool = None
            pool.close()
        else:
            # A successful (or at least budget-respecting) process batch
            # is the probe that closes the degradation window early.
            self._process_degraded_until = 0.0
        return [
            outcome
            if isinstance(outcome, ServeFailure)
            else ResultSet.from_answers(engine, query, limit, outcome[0], outcome[1])
            for query, outcome in zip(resolved, outcomes, strict=True)
        ]

    def _invalidate_serving_snapshots(self) -> None:
        """Retire shipped worker snapshots (called under the write lock)."""
        with self._pool_lock:
            if self._proc_pool is not None and not self._proc_pool.closed:
                self._proc_pool.invalidate()

    def close(self) -> None:
        """Shut down the serving pools (processes and threads) and
        serving-store files.

        The session itself stays usable — querying, updating, and even
        pooled serving (which simply builds a fresh pool and, if
        needed, a fresh store generation) all still work.  Worker
        processes are daemonic, so an unclosed session cannot outlive
        the interpreter; ``close()`` just frees them eagerly.  Store
        generations written for serving live in a session temp
        directory and are removed here (a generation state pointing at
        a user-saved file — ``GraphDatabase.open`` — is kept);
        unlinking a file workers still map is safe, the pages live on.
        """
        with self._pool_lock:
            if self._proc_pool is not None:
                self._proc_pool.close()
                self._proc_pool = None
            threads, self._thread_pool = self._thread_pool, None
        if threads is not None:
            threads.shutdown(wait=True)  # outside the lock: evaluations may be in flight
        with self._store_lock:
            if self._store_dir is not None:
                if self._store_state is not None and str(self._store_state.path).startswith(
                    self._store_dir
                ):
                    self._store_state = None
                    self._store_token = None
                shutil.rmtree(self._store_dir, ignore_errors=True)
                self._store_dir = None

    def __enter__(self) -> GraphDatabase:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def explain(self, query: CPQ | str) -> str:
        """The current engine's plan/profile report for ``query``."""
        return self.query(query).explain()

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update(
        self,
        add_edges: Iterable[Triple] = (),
        remove_edges: Iterable[Triple] = (),
        add_vertices: Iterable[Vertex] = (),
        remove_vertices: Iterable[Vertex] = (),
    ) -> GraphDatabase:
        """Apply graph updates and keep the engine consistent.

        Incremental engines (CPQx, iaCPQx) take each change through the
        lazy maintenance path of Sec. IV-E (:mod:`repro.core.maintenance`);
        non-incremental engines are rebuilt once after all changes, with
        the same build arguments.  Order: vertex additions, edge
        additions, edge removals, vertex removals (removing a vertex
        drops its incident edges, as the paper specifies).

        The whole batch runs under the session's exclusive (write)
        lock: in-flight :meth:`serve_batch` evaluations finish first,
        and readers arriving during the batch observe only its final
        state — copy-on-write semantics at the memo layer, where the
        ``(graph.version, engine epoch)`` token retires every cache
        populated against the pre-update engine.  The process-serving
        pool (if any) is drained the same way — its dispatch holds the
        shared lock — and its shipped worker snapshots are invalidated
        before the lock drops, so the next process-served batch
        re-ships fresh snapshots (see :mod:`repro.serve`).
        """
        with self._rwlock.write():
            updated = self._update_locked(add_edges, remove_edges, add_vertices, remove_vertices)
            self._invalidate_serving_snapshots()
            return updated

    def _update_locked(
        self,
        add_edges: Iterable[Triple],
        remove_edges: Iterable[Triple],
        add_vertices: Iterable[Vertex],
        remove_vertices: Iterable[Vertex],
    ) -> GraphDatabase:
        if self._engine is not None and self._spec is not None and self._spec.incremental:
            index = self._engine
            for v in add_vertices:
                index.insert_vertex(v)
            for v, u, label in add_edges:
                index.insert_edge(v, u, label)
            for v, u, label in remove_edges:
                index.delete_edge(v, u, label)
            for v in remove_vertices:
                index.delete_vertex(v)
            # Memoized evaluate/count answers are already retired by the
            # graph-version token; bump the engine epoch too so even
            # no-op update batches cannot serve a stale read.
            invalidate = getattr(index, "invalidate_cache", None)
            if invalidate is not None:
                invalidate()
            return self

        for v in add_vertices:
            self.graph.add_vertex(v)
        for v, u, label in add_edges:
            self.graph.add_edge(v, u, label)
        for v, u, label in remove_edges:
            self.graph.remove_edge(v, u, label)
        for v in remove_vertices:
            self.graph.remove_vertex(v)  # drops incident edges itself
        if self._engine is not None and self._spec is not None:
            start = time.perf_counter()
            built = self._spec.build(self.graph, **self._build_args)
            self._build_seconds = time.perf_counter() - start
            # Re-adopt (rather than assign) so the engine generation
            # moves: the graph version alone may not change for a
            # rebuild, and process-serving snapshots of the old engine
            # must read as stale.
            self._adopt(built, self._spec, self._build_args)
        return self

    def reload(self, path) -> GraphDatabase:
        """Hot-swap the session's graph and engine from a saved index file.

        The serving-daemon reload path: the new index (JSON or store
        format — :meth:`open` semantics) is loaded *outside* the lock,
        then adopted under the exclusive side, so in-flight served
        queries finish against the old generation and every later read
        sees only the new one.  ``_adopt`` moves the engine generation,
        which retires shipped worker snapshots through the serve-token
        handshake — no reader can mix the two indexes.
        """
        from repro.core.interest import InterestAwareIndex
        from repro.core.persistence import load_index

        index = load_index(path)
        key = "iacpqx" if isinstance(index, InterestAwareIndex) else "cpqx"
        with self._rwlock.write():
            self.graph = index.graph
            self._adopt(index, engine_spec(key), {"k": index.k})
            state = getattr(index, "_store_state", None)
            if state is not None:
                self._store_state = state
                self._store_token = self._serve_token()
            self._invalidate_serving_snapshots()
        return self

    # ------------------------------------------------------------------
    # persistence and introspection
    # ------------------------------------------------------------------
    def save(self, path, format: str = "json") -> None:
        """Persist the current engine (graph included) to ``path``.

        ``format="json"`` writes the checksummed JSON document
        (:func:`repro.core.persistence.save_index`); ``format="store"``
        writes the zero-copy columnar store file
        (:func:`repro.store.write_store`), which reopens via ``mmap``
        with no deserialization.  :meth:`open` reads either —
        it dispatches on the file's magic.
        """
        from repro.core.persistence import save_index

        if self._engine is None or self._spec is None:
            raise SessionError("no index built yet; call build_index() first")
        if not self._spec.persistable:
            raise SessionError(
                f"engine {self._spec.display_name!r} is not persistable; "
                f"persistable engines: cpqx, iacpqx"
            )
        if format == "store":
            from repro.store import write_store

            write_store(self._engine, path)
            return
        if format != "json":
            raise SessionError(f"unknown save format {format!r}; use 'json' or 'store'")
        save_index(self._engine, path)

    @property
    def stats(self) -> IndexStats:
        """A Table IV-style stats row for the current engine."""
        return stats_of(self.engine, build_seconds=self._build_seconds)

    def info(self) -> str:
        """Multi-line session summary: graph, engine, stats, selection."""
        lines = [f"graph: {self.graph}"]
        if self._engine is None:
            lines.append("engine: none built (available: " + ", ".join(available_engines()) + ")")
        else:
            lines.append(f"engine: {self.engine_name}")
            lines.append(self.stats.describe())
            interests = getattr(self._engine, "interests", None)
            if interests is not None:
                multi = sorted(s for s in interests if len(s) > 1)
                lines.append(f"interests: {len(interests)} ({len(multi)} multi-label)")
        if self.selection is not None:
            lines.append(self.selection.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:
        engine = self.engine_name or "unbuilt"
        return f"GraphDatabase(name={self.name!r}, engine={engine}, {self.graph})"
