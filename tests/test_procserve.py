"""The process-based serving subsystem (``repro.serve`` + session wiring).

The guarantees under test (documented in ``docs/concurrency.md``,
"Process-based serving"):

* the **snapshot invariant**: every registered engine pickles after
  build (memo caches dropped by ``EngineBase.__getstate__``) and the
  round-tripped engine serves identical answers;
* :class:`repro.core.parallel.WorkerPool` is safe to construct under
  live reader threads (explicit ``spawn`` context — the PR-5 fix for
  the fork-under-threads hazard noted in ``core/parallel.py``);
* ``serve_batch(..., mode="process")`` returns exactly the serial
  ``execute_batch`` answers for every registered engine, reassembled in
  submission order;
* the version-token handshake: an interleaved ``update()`` (or rebuild)
  retires shipped snapshots, and a worker holding a stale snapshot
  rejects queries so the pool re-ships — no process-served answer can
  come from a pre-update engine;
* worker failures are *contained* (PR 7): evaluation errors are retried
  then surfaced as per-query :class:`~repro.serve.ServeFailure` slots
  with structured context, killed workers are restarted by the
  supervisor and the pool keeps serving — never a hang, never a
  torn-down pool for one query's sake (the deeper fault matrix lives in
  ``tests/test_chaos.py``);
* ``mode="auto"`` routing and the ``EngineSpec.process_servable``
  opt-out.
"""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro.core.executor import ExecutionStats
from repro.core.parallel import WorkerPool
from repro.db import EngineSpec, GraphDatabase, register_engine, unregister_engine
from repro.db.registry import available_engines, engine_spec
from repro.db.resultset import ResultSet
from repro.errors import ServingError, SessionError
from repro.graph.generators import random_graph
from repro.serve import ProcessServingPool, session_token, snapshot_bytes

QUERIES = [
    "l1 & l2",
    "(l1 . l2) & id",
    "(l1 . l1) & (l2 . l2)",
    "l1 . l2^-",
    "(l2 . l1) & l3",
]


@pytest.fixture(scope="module")
def serve_graph():
    return random_graph(40, 220, 3, seed=13)


def _build_all_engines(graph):
    """One built engine per registry key (interests cover the workload)."""
    interests = frozenset({(0,), (1,), (2,), (0, 1), (1, 0), (0, 0), (1, 1)})
    return {
        key: engine_spec(key).build(graph.copy(), k=2, interests=interests)
        for key in available_engines()
    }


# ---------------------------------------------------------------------------
# the snapshot invariant (satellite: per-engine pickle round-trip)
# ---------------------------------------------------------------------------


class TestSnapshotInvariant:
    def test_every_registered_engine_round_trips_through_pickle(self, serve_graph):
        """Guards the "picklable minus caches" invariant for all engines.

        The engines evaluate first, so their lock-bearing memo caches are
        attached — exactly the state a serving session snapshots from.
        """
        for key, engine in _build_all_engines(serve_graph).items():
            db = GraphDatabase.from_graph(engine.graph)
            resolved = [db._resolve(query) for query in QUERIES]
            expected = [engine.evaluate(query) for query in resolved]
            clone = pickle.loads(snapshot_bytes(engine))
            served = [clone.evaluate(query) for query in resolved]
            assert served == expected, f"engine {key!r} answers drifted"
            # And the clone re-pickles (caches re-attached by the evals).
            again = pickle.loads(snapshot_bytes(clone))
            assert [again.evaluate(query) for query in resolved] == expected, key

    def test_snapshot_drops_memo_caches(self, serve_graph):
        engine = engine_spec("cpqx").build(serve_graph.copy(), k=2)
        db = GraphDatabase.from_graph(engine.graph)
        engine.evaluate(db._resolve(QUERIES[0]))
        assert getattr(engine, "_memo_results", None) is not None
        clone = pickle.loads(snapshot_bytes(engine))
        assert getattr(clone, "_memo_results", None) is None
        assert getattr(clone, "_memo_subplans", None) is None


# ---------------------------------------------------------------------------
# WorkerPool under live readers (satellite: fork-safety regression)
# ---------------------------------------------------------------------------


def _echo_worker(task, conn) -> None:
    """Top-level so the spawn context can import it by reference."""
    try:
        conn.send(("echo", task, conn.recv()))
    finally:
        conn.close()


class TestWorkerPoolUnderLiveReaders:
    def test_construction_with_reader_threads_alive(self):
        """The PR-5 regression: pool creation must not fork a threaded
        process (racy/deadlock-prone) — WorkerPool spawns explicitly."""
        stop = threading.Event()
        spinners = [
            threading.Thread(target=stop.wait, args=(10,)) for _ in range(3)
        ]
        for thread in spinners:
            thread.start()
        try:
            assert threading.active_count() > 1
            with WorkerPool(_echo_worker, ["a", "b"]) as pool:
                # Explicit spawn context, regardless of platform default.
                assert all(
                    type(process).__name__ == "SpawnProcess"
                    for process in pool._processes
                )
                for index, conn in enumerate(pool.connections):
                    conn.send(index)
                replies = [conn.recv() for conn in pool.connections]
                assert replies == [("echo", "a", 0), ("echo", "b", 1)]
        finally:
            stop.set()
            for thread in spinners:
                thread.join(timeout=5)

    def test_serving_pool_constructs_under_live_serve_batch(self, serve_graph):
        """End-to-end: a process pool comes up while thread-mode readers
        are actively serving on the same session."""
        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    db.serve_batch(QUERIES, workers=2)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            serial = db.execute_batch(QUERIES)
            batch = db.serve_batch(QUERIES, workers=2, mode="process")
            for index, result in enumerate(batch):
                assert result.pairs() == serial[index].pairs()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            db.close()
        assert not errors, errors


# ---------------------------------------------------------------------------
# serve_batch(mode="process") correctness
# ---------------------------------------------------------------------------


class TestProcessServing:
    def test_identical_to_serial_for_every_registered_engine(self, serve_graph):
        interests = frozenset({(0,), (1,), (2,), (0, 1), (1, 0), (0, 0), (1, 1)})
        for key in available_engines():
            db = GraphDatabase.from_graph(serve_graph.copy())
            db.build_index(engine=key, k=2, interests=interests)
            try:
                serial = db.execute_batch(QUERIES)
                process = db.serve_batch(QUERIES * 2, workers=2, mode="process")
                assert len(process) == 2 * len(serial)
                for index, result in enumerate(process):
                    assert result.pairs() == serial[index % len(serial)].pairs(), (
                        f"engine {key!r}, query {QUERIES[index % len(serial)]!r}"
                    )
                assert process.total_answers == 2 * serial.total_answers
            finally:
                db.close()

    def test_results_keep_submission_order_and_stats(self, serve_graph):
        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        try:
            serial = db.execute_batch(QUERIES)
            process = db.serve_batch(QUERIES, workers=3, mode="process")
            for index, result in enumerate(process):
                assert result.query == serial[index].query
                assert result.materialized  # pre-materialized, engine untouched
            # Operator counters made the round trip (merged totals match).
            assert process.stats.lookups == serial.stats.lookups
            assert process.stats.joins == serial.stats.joins
        finally:
            db.close()

    def test_respects_limit(self, serve_graph):
        db = GraphDatabase.from_graph(serve_graph.copy())
        try:
            batch = db.serve_batch(["l1 & l2"], workers=2, limit=3, mode="process")
            assert db.is_built  # engine="auto" resolved before dispatch
            assert len(batch[0].pairs()) <= 3
        finally:
            db.close()

    def test_pool_reused_across_batches_and_rebuilt_on_worker_change(
        self, serve_graph
    ):
        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        try:
            db.serve_batch(QUERIES, workers=2, mode="process")
            first = db._proc_pool
            db.serve_batch(QUERIES, workers=2, mode="process")
            assert db._proc_pool is first  # reused
            db.serve_batch(QUERIES, workers=3, mode="process")
            assert db._proc_pool is not first
            assert first.closed
        finally:
            db.close()


# ---------------------------------------------------------------------------
# the version-token handshake (update / rebuild invalidation)
# ---------------------------------------------------------------------------


class TestSnapshotInvalidation:
    def test_interleaved_update_never_serves_stale_answers(self, serve_graph):
        base = serve_graph
        v0, v1 = sorted(base.vertices())[:2]
        db = GraphDatabase.from_graph(base.copy()).build_index(engine="cpqx", k=2)
        try:
            before = db.serve_batch(QUERIES, workers=2, mode="process")
            steps = [
                ([("nv0", v0, "l1")], ()),
                ([(v1, "nv0", "l2")], ()),
                ((), [("nv0", v0, "l1")]),
            ]
            changed = False
            for add_edges, remove_edges in steps:
                db.update(add_edges=add_edges, remove_edges=remove_edges)
                serial = db.execute_batch(QUERIES)
                served = db.serve_batch(QUERIES, workers=2, mode="process")
                for index, result in enumerate(served):
                    assert result.pairs() == serial[index].pairs(), (
                        f"stale process-served answer for {QUERIES[index]!r}"
                    )
                changed = changed or any(
                    served[i].pairs() != before[i].pairs()
                    for i in range(len(QUERIES))
                )
            # Some step must have moved some answer, or this test was inert.
            assert changed
        finally:
            db.close()

    def test_rebuild_on_same_graph_moves_the_token(self, serve_graph):
        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        try:
            token_before = db._serve_token()
            db.serve_batch(QUERIES, workers=2, mode="process")
            db.build_index(engine="path", k=2)  # same graph, new engine
            assert db._serve_token() != token_before
            serial = db.execute_batch(QUERIES)
            served = db.serve_batch(QUERIES, workers=2, mode="process")
            for index, result in enumerate(served):
                assert result.pairs() == serial[index].pairs()
        finally:
            db.close()

    def test_worker_side_stale_detection_triggers_reship(self, serve_graph):
        """Force the handshake's worker-side check: lie to the pool that
        workers already hold the current token, and let the ``stale``
        replies drive the re-ship."""
        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        try:
            db.serve_batch(QUERIES, workers=2, mode="process")
            pool = db._proc_pool
            db.engine.invalidate_cache()  # moves the epoch → new token
            token = db._serve_token()
            # Corrupt parent bookkeeping: claim every worker is current.
            for conn in pool._pool.connections:
                pool._worker_tokens[conn] = token
            serial = db.execute_batch(QUERIES)
            served = db.serve_batch(QUERIES, workers=2, mode="process")
            for index, result in enumerate(served):
                assert result.pairs() == serial[index].pairs()
        finally:
            db.close()

    def test_update_invalidates_shipped_snapshots(self, serve_graph):
        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        try:
            db.serve_batch(QUERIES, workers=2, mode="process")
            pool = db._proc_pool
            # Workers hold the current token (shipped as a (path, token)
            # pair on the PR-8 map path, so no pickled blob is cached).
            assert pool._worker_tokens
            assert pool._snapshot_token is None
            v0 = sorted(serve_graph.vertices())[0]
            db.update(add_edges=[("nv9", v0, "l1")])
            assert pool._snapshot_token is None
            assert not pool._worker_tokens
        finally:
            db.close()

    def test_concurrent_updates_and_process_serving(self, serve_graph):
        """Readers on the process path while update() mutates the graph:
        every batch must match one update boundary."""
        base = serve_graph
        v0, v1 = sorted(base.vertices())[:2]
        steps = [
            ([("nv0", v0, "l1")], ()),
            ([(v1, "nv0", "l2")], ()),
            ((), [("nv0", v0, "l1")]),
        ]
        state = base.copy()
        probe = GraphDatabase.from_graph(state)
        resolved = [probe._resolve(query) for query in QUERIES]
        expected = []
        from repro.core.cpqx import CPQxIndex

        for add_edges, remove_edges in [((), ())] + steps:
            for v, u, label in add_edges:
                state.add_edge(v, u, label)
            for v, u, label in remove_edges:
                state.remove_edge(v, u, label)
            engine = CPQxIndex.build(state.copy(), k=2)
            expected.append([engine.evaluate(query) for query in resolved])
        valid_per_query = [
            {step[q] for step in expected} for q in range(len(QUERIES))
        ]

        db = GraphDatabase.from_graph(base.copy()).build_index(engine="cpqx", k=2)
        stop = threading.Event()
        violations: list[str] = []
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    batch = db.serve_batch(QUERIES, workers=2, mode="process")
                    for q, result in enumerate(batch):
                        if result.pairs() not in valid_per_query[q]:
                            violations.append(QUERIES[q])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            import time as _time

            for add_edges, remove_edges in steps:
                _time.sleep(0.05)
                db.update(add_edges=add_edges, remove_edges=remove_edges)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            db.close()
        assert not errors, errors
        assert not violations, (
            f"process readers observed non-boundary states: {set(violations)}"
        )
        final = db.serve_batch(QUERIES, workers=2, mode="process")
        for q, result in enumerate(final):
            assert result.pairs() == expected[-1][q]


# ---------------------------------------------------------------------------
# failure surfacing
# ---------------------------------------------------------------------------


class _ExplodingEngine:
    """Picklable engine whose evaluation always fails (worker-error test)."""

    name = "exploding"

    def __init__(self, graph) -> None:
        self.graph = graph

    def evaluate(self, query, stats=None, limit=None):
        raise RuntimeError("boom: injected evaluation failure")


class _SlowUnpickleEngine:
    """Picklable engine whose snapshot installs slower than the deadline
    (deadline-vs-snapshot test)."""

    name = "slow-unpickle"
    install_seconds = 0.5

    def __init__(self, graph) -> None:
        self.graph = graph

    def __setstate__(self, state):
        time.sleep(self.install_seconds)
        self.__dict__.update(state)

    def evaluate(self, query, stats=None, limit=None):
        return frozenset()


class TestFailureSurfacing:
    def test_deadline_excludes_snapshot_install(self, serve_graph):
        """The per-query deadline restarts once a (re-)shipped snapshot
        is installed (the worker's ``snapshot_ok`` ack): a snapshot
        slower than the timeout — the state every ``update()`` leaves
        behind with a big engine — must not kill-loop the pool."""
        engine = _SlowUnpickleEngine(serve_graph.copy())
        pool = ProcessServingPool(workers=1)
        try:
            outcomes = pool.serve(
                engine, session_token(engine, 1), ["q0", "q1"], timeout=0.2
            )
            assert [answers for answers, _ in outcomes] == [frozenset(), frozenset()]
            assert pool.restarts_used == 0
            assert not pool.degraded
        finally:
            pool.close()

    def test_worker_evaluation_error_becomes_failure_slot(self, serve_graph):
        """PR 7 semantics: an evaluation error costs the query (after its
        retry budget), never the pool."""
        from repro.serve import ServeFailure

        engine = _ExplodingEngine(serve_graph.copy())
        pool = ProcessServingPool(workers=2)
        try:
            outcomes = pool.serve(
                engine, session_token(engine, 1), ["q0", "q1"], retries=1
            )
            assert len(outcomes) == 2
            for index, failure in enumerate(outcomes):
                assert isinstance(failure, ServeFailure)
                assert failure.query_index == index
                assert failure.attempts == 2  # first dispatch + one retry
                assert isinstance(failure.error, ServingError)
                assert "injected evaluation failure" in str(failure.error)
                assert failure.error.query_index == index
                assert failure.error.attempts == 2
            assert not pool.closed  # the pool survived the failed batch
        finally:
            pool.close()

    def test_killed_workers_are_restarted_and_pool_self_heals(self, serve_graph):
        """PR 7 semantics: killing every worker mid-life costs restarts,
        not the batch and not the pool."""
        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        try:
            db.serve_batch(QUERIES, workers=2, mode="process")
            pool = db._proc_pool
            for process in pool._pool.processes:
                process.terminate()
                process.join(timeout=5)
            # The next batch detects the dead workers, restarts them
            # under the budget, and still returns the serial answers —
            # on the same pool, without a session rebuild.
            serial = db.execute_batch(QUERIES)
            served = db.serve_batch(QUERIES, workers=2, mode="process")
            assert db._proc_pool is pool
            assert not pool.closed
            assert pool.restarts_used >= 1
            for index, result in enumerate(served):
                assert result.pairs() == serial[index].pairs()
        finally:
            db.close()

    def test_closed_pool_refuses_to_serve(self):
        pool = ProcessServingPool(workers=1)
        pool.close()
        with pytest.raises(ServingError, match="closed"):
            pool.serve(object(), (0, 0, 0), ["q"])
        pool.close()  # idempotent

    def test_unpicklable_engine_surfaces_as_serving_error(self, serve_graph):
        """A mis-registered engine (process_servable left True while
        holding unpicklable state) must fail with guidance, not a raw
        pickling TypeError."""
        import threading as _threading

        class _Unpicklable:
            def __init__(self, graph):
                self.graph = graph
                self.lock = _threading.Lock()

            def evaluate(self, query, stats=None, limit=None):  # pragma: no cover
                return frozenset()

        engine = _Unpicklable(serve_graph.copy())
        pool = ProcessServingPool(workers=1)
        try:
            with pytest.raises(ServingError, match="process_servable"):
                pool.serve(engine, session_token(engine, 1), ["q"])
            assert pool.closed
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# mode plumbing
# ---------------------------------------------------------------------------


class TestModePlumbing:
    def test_invalid_mode_rejected(self, serve_graph):
        db = GraphDatabase.from_graph(serve_graph.copy())
        with pytest.raises(SessionError, match="mode must be one of"):
            db.serve_batch(QUERIES, mode="fibers")

    def test_auto_routes_large_batches_to_process(self, serve_graph, monkeypatch):
        import repro.db.session as session_module

        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        chosen: list[str] = []
        original = db._serve_batch_process

        def recording(resolved, workers, limit, timeout, retries, injector):
            chosen.append("process")
            return original(resolved, workers, limit, timeout, retries, injector)

        monkeypatch.setattr(db, "_serve_batch_process", recording)
        monkeypatch.setattr(session_module.os, "cpu_count", lambda: 4)
        try:
            db.serve_batch(QUERIES * 2, workers=2, mode="auto")  # 10 >= 8
            assert chosen == ["process"]
            db.serve_batch(QUERIES, workers=2, mode="auto")  # 5 < 8
            assert chosen == ["process"]  # small batch stayed threaded
            monkeypatch.setattr(session_module.os, "cpu_count", lambda: 1)
            db.serve_batch(QUERIES * 2, workers=2, mode="auto")
            assert chosen == ["process"]  # single CPU stays threaded
        finally:
            db.close()

    def test_non_servable_spec_rejected_and_auto_falls_back(
        self, serve_graph, monkeypatch
    ):
        from repro.baselines.bfs import BFSEngine

        spec = EngineSpec(
            key="_testonly_noproc",
            display_name="NoProc",
            builder=lambda graph: BFSEngine(graph),
            uses_k=False,
            process_servable=False,
        )
        register_engine(spec)
        try:
            db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
                engine="_testonly_noproc"
            )
            with pytest.raises(SessionError, match="not process-servable"):
                db.serve_batch(QUERIES, workers=2, mode="process")
            # mode="auto" silently serves on threads instead.
            import repro.db.session as session_module

            monkeypatch.setattr(session_module.os, "cpu_count", lambda: 4)
            serial = db.execute_batch(QUERIES)
            batch = db.serve_batch(QUERIES * 2, workers=2, mode="auto")
            for index, result in enumerate(batch):
                assert result.pairs() == serial[index % len(QUERIES)].pairs()
            assert db._proc_pool is None  # no process pool was created
        finally:
            unregister_engine("_testonly_noproc")

    def test_every_builtin_engine_is_process_servable(self):
        for key in available_engines():
            assert engine_spec(key).process_servable, key

    def test_session_context_manager_closes_pool(self, serve_graph):
        with GraphDatabase.from_graph(serve_graph.copy()) as db:
            db.build_index(engine="cpqx", k=2)
            db.serve_batch(QUERIES, workers=2, mode="process")
            pool = db._proc_pool
            assert not pool.closed
        assert pool.closed
        assert db._proc_pool is None
        # The session stays usable after close().
        assert len(db.execute_batch(QUERIES)) == len(QUERIES)


# ---------------------------------------------------------------------------
# ResultSet.from_answers
# ---------------------------------------------------------------------------


class TestFromAnswers:
    def test_pre_materialized_and_engine_untouched(self):
        stats = ExecutionStats(lookups=3, joins=1, pairs_touched=7)
        result = ResultSet.from_answers(
            engine=None,  # consuming must never need it
            query="q",
            limit=None,
            pairs=[("a", "b"), ("b", "c")],
            stats=stats,
        )
        assert result.materialized
        assert result.pairs() == {("a", "b"), ("b", "c")}
        assert result.stats.lookups == 3
        assert result.stats.joins == 1
        assert result.stats.pairs_touched == 7


# ---------------------------------------------------------------------------
# mmap-backed shipping (PR 8): workers open the index by path
# ---------------------------------------------------------------------------


class TestMappedShipping:
    def test_ships_paths_not_pickles(self, serve_graph):
        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        try:
            serial = db.execute_batch(QUERIES)
            served = db.serve_batch(QUERIES, workers=2, mode="process")
            pool = db._proc_pool
            assert pool.snapshot_ships == 0
            assert pool.map_ships == 2  # one (path, token) pair per worker
            # Path strings only — nowhere near a pickled engine.
            assert pool.shipped_bytes < 1024
            assert pool.shipped_bytes < len(snapshot_bytes(db.engine)) / 100
            for index, result in enumerate(served):
                assert result.pairs() == serial[index].pairs()
        finally:
            db.close()

    def test_single_class_update_does_not_reship_snapshot(self, serve_graph):
        """Regression (PR 8): pre-mmap, every update() re-pickled and
        re-shipped the whole engine even when one class changed.  With
        store generations the update writes a small delta file and the
        re-ship is again just the (path, token) pair."""
        import os

        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        try:
            db.serve_batch(QUERIES, workers=2, mode="process")
            pool = db._proc_pool
            full_size = os.path.getsize(db._store_state.path)
            shipped_before = pool.shipped_bytes
            v0 = sorted(serve_graph.vertices())[0]
            db.update(add_edges=[("nv_delta", v0, "l1")])
            serial = db.execute_batch(QUERIES)
            served = db.serve_batch(QUERIES, workers=2, mode="process")
            assert pool.snapshot_ships == 0  # never a pickle, even post-update
            assert db._store_state.generation == 2  # a delta, not a rewrite
            assert os.path.getsize(db._store_state.path) < full_size / 2
            assert pool.shipped_bytes - shipped_before < 1024
            for index, result in enumerate(served):
                assert result.pairs() == serial[index].pairs()
        finally:
            db.close()

    def test_store_serving_opt_out_falls_back_to_pickle(self, serve_graph):
        db = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        try:
            db._store_serving = False
            serial = db.execute_batch(QUERIES)
            served = db.serve_batch(QUERIES, workers=2, mode="process")
            pool = db._proc_pool
            assert pool.map_ships == 0
            assert pool.snapshot_ships == 2
            for index, result in enumerate(served):
                assert result.pairs() == serial[index].pairs()
        finally:
            db.close()

    def test_unopenable_store_path_costs_the_batch_not_the_pool(self, serve_graph):
        from repro.errors import CorruptIndexError
        from repro.query.parser import parse
        from repro.serve import ServeFailure

        engine = GraphDatabase.from_graph(serve_graph.copy()).build_index(
            engine="cpqx", k=2
        ).engine
        queries = [parse(text, engine.graph.registry) for text in QUERIES]
        pool = ProcessServingPool(workers=2)
        try:
            # With no retry budget the failed map surfaces as typed
            # slots: ServingError caused by CorruptIndexError.
            outcomes = pool.serve(
                engine, session_token(engine, 1), queries,
                store_path="/nonexistent/gen.rsx", retries=0,
            )
            failures = [out for out in outcomes if isinstance(out, ServeFailure)]
            assert failures
            assert any("could not open" in str(out.error) for out in failures)
            assert any(
                any(isinstance(err, CorruptIndexError) for err in out.error.cause_chain())
                for out in failures
            )
            assert pool.map_failures >= 1
            assert not pool.closed
            assert not pool.degraded
            # With a retry budget the batch *recovers in place*: the
            # map failure demotes shipping to pickled snapshots and the
            # retried queries succeed on the same pool.
            recovered = pool.serve(
                engine, session_token(engine, 2), queries,
                store_path="/nonexistent/gen.rsx", retries=2,
            )
            assert not any(isinstance(out, ServeFailure) for out in recovered)
            assert pool.snapshot_ships >= 1
        finally:
            pool.close()
