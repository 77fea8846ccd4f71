"""Deterministic fault-injection (chaos) suite for the PR 7 robustness layer.

Every test runs a workload under a seeded :class:`repro.serve.FaultInjector`
and asserts the two invariants ``docs/robustness.md`` promises:

* **identical answers** — every query that survives chaos returns exactly
  the serial ``execute_batch`` answers (and a chaotic parallel build is
  fingerprint-identical to the serial build);
* **bounded failure domains** — a fault costs one query a retry / one
  shard a recomputation / one worker a restart, never the batch, the
  build, or the session.

Fault decisions are pure functions of ``(seed, site, consultation
index)`` — see :mod:`repro.serve.faults` — so each scenario is picked by
seed to exercise a specific recovery path and repeats identically in CI
(the ``chaos`` job runs this file).
"""

from __future__ import annotations

import pickle
import time

import pytest

import repro.db.session as session_module
from repro.core.cpqx import CPQxIndex
from repro.core.parallel import index_fingerprint
from repro.core.partition import compute_partition_codes
from repro.db import GraphDatabase
from repro.errors import (
    QueryDiameterError,
    QueryTimeoutError,
    ServingError,
    SessionError,
)
from repro.graph.generators import random_graph
from repro.serve import (
    FaultInjector,
    ProcessServingPool,
    current_injector,
    inject,
    session_token,
)

QUERIES = [
    "l1 & l2",
    "(l1 . l2) & id",
    "(l1 . l1) & (l2 . l2)",
    "l1 . l2^-",
    "(l2 . l1) & l3",
    "l1 . l2",
    "(l2 . l2) & id",
    "l3 & (l1 . l1)",
]


@pytest.fixture(scope="module")
def chaos_graph():
    return random_graph(40, 220, 3, seed=13)


@pytest.fixture
def db(chaos_graph):
    database = GraphDatabase.from_graph(chaos_graph.copy()).build_index(
        engine="cpqx", k=2
    )
    yield database
    database.close()


def serial_pairs(database, queries):
    return [result.pairs() for result in database.execute_batch(queries)]


# ---------------------------------------------------------------------------
# the injector itself: deterministic, picklable, bounded
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_decision_sequence(self):
        a = FaultInjector(seed=42, rates={"worker.kill": 0.5})
        b = FaultInjector(seed=42, rates={"worker.kill": 0.5})
        assert [a.fire("worker.kill") for _ in range(32)] == [
            b.fire("worker.kill") for _ in range(32)
        ]

    def test_sites_draw_independent_streams(self):
        # Interleaving consultations of another site does not perturb a
        # site's own decision sequence.
        a = FaultInjector(seed=7, rates={"worker.kill": 0.5, "worker.drop": 0.5})
        interleaved = []
        for _ in range(16):
            a.fire("worker.drop")
            interleaved.append(a.fire("worker.kill"))
        b = FaultInjector(seed=7, rates={"worker.kill": 0.5, "worker.drop": 0.5})
        assert interleaved == [b.fire("worker.kill") for _ in range(16)]

    def test_pickled_copy_rederives_streams_from_start(self):
        parent = FaultInjector(seed=11, rates={"worker.error": 0.5})
        first_three = [parent.fire("worker.error") for _ in range(3)]
        clone = pickle.loads(pickle.dumps(parent))
        assert [clone.fire("worker.error") for _ in range(3)] == first_three

    def test_max_faults_caps_total(self):
        injector = FaultInjector(seed=0, rates={"worker.error": 1.0}, max_faults=2)
        fired = [injector.fire("worker.error") for _ in range(10)]
        assert fired.count(True) == 2
        assert injector.total_fired() == 2

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultInjector(rates={"worker.sabotage": 0.5})

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultInjector(rates={"worker.kill": 1.5})

    def test_inject_installs_and_restores_ambient(self):
        assert current_injector() is None
        outer = FaultInjector(seed=1)
        inner = FaultInjector(seed=2)
        with inject(outer):
            assert current_injector() is outer
            with inject(inner):
                assert current_injector() is inner
            assert current_injector() is outer
        assert current_injector() is None


# ---------------------------------------------------------------------------
# process-mode serving under chaos: self-healing, identical answers
# ---------------------------------------------------------------------------
class TestProcessServingChaos:
    def test_killed_workers_restart_and_answers_match_serial(self, db):
        """seed=5 @ rate 0.4: each worker incarnation serves three queries
        then dies on its fourth — forcing 1-2 supervised restarts."""
        expected = serial_pairs(db, QUERIES)
        injector = FaultInjector(seed=5, rates={"worker.kill": 0.4})
        with inject(injector):
            batch = db.serve_batch(QUERIES, workers=2, mode="process")
        assert [result.pairs() for result in batch] == expected
        pool = db._proc_pool
        assert pool is not None and not pool.closed and not pool.degraded
        assert pool.restarts_used >= 1
        assert injector.notes.get("worker.restarted", 0) == pool.restarts_used

    def test_worker_errors_are_retried_to_success(self, db):
        """rate 1.0 with max_faults=1: each worker fails exactly its first
        query; every query drains to the serial answer within retries."""
        expected = serial_pairs(db, QUERIES[:5])
        injector = FaultInjector(seed=0, rates={"worker.error": 1.0}, max_faults=1)
        with inject(injector):
            batch = db.serve_batch(QUERIES[:5], workers=2, mode="process")
        assert [result.pairs() for result in batch] == expected
        assert injector.notes.get("query.retried", 0) >= 1
        assert db._proc_pool is not None and db._proc_pool.restarts_used == 0

    def test_dropped_replies_hit_deadline_and_redispatch(self, db):
        """seed=23 @ rate 0.6: workers swallow their third query; the
        deadline kills the hung worker and the query is re-dispatched."""
        expected = serial_pairs(db, QUERIES[:5])
        injector = FaultInjector(seed=23, rates={"worker.drop": 0.6})
        with inject(injector):
            batch = db.serve_batch(
                QUERIES[:5], workers=2, mode="process", timeout=1.0
            )
        assert [result.pairs() for result in batch] == expected
        assert db._proc_pool is not None and db._proc_pool.restarts_used >= 1

    def test_delayed_workers_are_tolerated(self, db):
        expected = serial_pairs(db, QUERIES[:5])
        injector = FaultInjector(
            seed=2, rates={"worker.delay": 1.0}, delay_seconds=0.01
        )
        with inject(injector):
            batch = db.serve_batch(QUERIES[:5], workers=2, mode="process")
        assert [result.pairs() for result in batch] == expected
        assert db._proc_pool is not None and db._proc_pool.restarts_used == 0


# ---------------------------------------------------------------------------
# the degradation ladder: budget exhaustion -> in-parent -> sticky thread
# ---------------------------------------------------------------------------
class TestDegradationLadder:
    def test_budget_exhaustion_finishes_in_parent(self, db):
        """restart_budget=0 + always-kill: both slots retire on first
        contact and the batch completes serially in the parent."""
        resolved = [db._resolve(query) for query in QUERIES[:4]]
        expected = [db._engine.evaluate(query) for query in resolved]
        injector = FaultInjector(seed=0, rates={"worker.kill": 1.0})
        pool = ProcessServingPool(workers=2, restart_budget=0)
        try:
            outcomes = pool.serve(
                db._engine, session_token(db._engine, 1), resolved, injector=injector
            )
            assert pool.degraded
            assert pool.restarts_used == 0
            assert injector.notes.get("pool.degraded", 0) == 1
            for outcome, answers in zip(outcomes, expected, strict=True):
                pairs, _stats = outcome
                assert frozenset(pairs) == answers
        finally:
            pool.close()

    def test_session_degradation_is_sticky_for_auto(self, db, monkeypatch):
        original = session_module.ProcessServingPool
        monkeypatch.setattr(
            session_module,
            "ProcessServingPool",
            lambda workers: original(workers, restart_budget=0),
        )
        expected = serial_pairs(db, QUERIES[:4])
        with inject(FaultInjector(seed=0, rates={"worker.kill": 1.0})):
            batch = db.serve_batch(QUERIES[:4], workers=2, mode="process")
        # The degraded batch still returned the serial answers...
        assert [result.pairs() for result in batch] == expected
        # ...the exhausted pool was retired, and auto now routes to threads.
        assert db._process_degraded
        assert db._proc_pool is None
        assert db._resolve_serve_mode("auto", 8, 64) == "thread"
        # An explicit mode="process" still gets a fresh pool/budget.
        healthy = db.serve_batch(QUERIES[:4], workers=2, mode="process")
        assert [result.pairs() for result in healthy] == expected

    def test_degradation_expires_after_cooldown(self, db, monkeypatch):
        """Regression (PR 9): degradation used to be a sticky boolean the
        session never cleared — one bad burst demoted ``mode="auto"`` to
        threads for the rest of the process lifetime."""
        original = session_module.ProcessServingPool
        monkeypatch.setattr(
            session_module,
            "ProcessServingPool",
            lambda workers: original(workers, restart_budget=0),
        )
        monkeypatch.setattr(session_module.os, "cpu_count", lambda: 4)
        db.degraded_cooldown = 0.1
        with inject(FaultInjector(seed=0, rates={"worker.kill": 1.0})):
            db.serve_batch(QUERIES[:4], workers=2, mode="process")
        assert db._process_degraded
        assert db._resolve_serve_mode("auto", 8, 64) == "thread"
        time.sleep(0.12)
        # The window expired on its own: auto may try processes again.
        assert not db._process_degraded
        assert db._resolve_serve_mode("auto", 8, 64) == "process"

    def test_successful_probe_clears_degradation_early(self, db, monkeypatch):
        original = session_module.ProcessServingPool
        monkeypatch.setattr(
            session_module,
            "ProcessServingPool",
            lambda workers: original(workers, restart_budget=0),
        )
        monkeypatch.setattr(session_module.os, "cpu_count", lambda: 4)
        db.degraded_cooldown = 3600.0  # would outlive the test run
        expected = serial_pairs(db, QUERIES[:4])
        with inject(FaultInjector(seed=0, rates={"worker.kill": 1.0})):
            db.serve_batch(QUERIES[:4], workers=2, mode="process")
        assert db._process_degraded
        monkeypatch.setattr(session_module, "ProcessServingPool", original)
        # An explicit healthy process batch (the breaker's half-open
        # probe) resets the window immediately — no hour-long demotion.
        healthy = db.serve_batch(QUERIES[:4], workers=2, mode="process")
        assert [result.pairs() for result in healthy] == expected
        assert not db._process_degraded
        assert db._resolve_serve_mode("auto", 8, 64) == "process"


# ---------------------------------------------------------------------------
# store-fault chaos: zero-copy shipping failures cost queries, not pools
# ---------------------------------------------------------------------------
class TestStoreChaos:
    def test_store_open_faults_recover_via_snapshot_fallback(self, db):
        """store.open @ 1.0, max_faults=2: the first worker maps fail,
        the batch demotes to pickled snapshots, and every answer still
        matches serial — the pool survives and the chain re-spools."""
        expected = serial_pairs(db, QUERIES)
        injector = FaultInjector(seed=5, rates={"store.open": 1.0}, max_faults=2)
        with inject(injector):
            batch = db.serve_batch(QUERIES, workers=2, mode="process", retries=2)
        assert [result.pairs() for result in batch] == expected
        pool = db._proc_pool
        assert pool is not None and not pool.closed and not pool.degraded
        assert pool.map_failures >= 1
        assert injector.notes.get("store.map_failed", 0) >= 1
        assert db._store_respools >= 1
        # The next batch spools a fresh chain at a never-mapped path and
        # serves zero-copy again, identically.
        again = db.serve_batch(QUERIES, workers=2, mode="process")
        assert [result.pairs() for result in again] == expected
        assert db._store_state is not None
        assert f"-r{db._store_respools}" in str(db._store_state.path)

    def test_store_delta_faults_on_chain_follow_recover(self, db):
        """A fault while following ``delta_of`` poisons the whole chain
        open; the batch must still answer identically via fallback."""
        expected = serial_pairs(db, QUERIES)
        # Serve once to spool the full generation, then update so the
        # next spool writes a delta chained onto it.
        first = db.serve_batch(QUERIES, workers=2, mode="process")
        assert [result.pairs() for result in first] == expected
        edge = next(iter(db.graph.triples()))
        db.update(remove_edges=[edge])
        db.update(add_edges=[edge])
        expected_after = serial_pairs(db, QUERIES)
        injector = FaultInjector(seed=5, rates={"store.delta": 1.0}, max_faults=2)
        with inject(injector):
            batch = db.serve_batch(QUERIES, workers=2, mode="process", retries=2)
        assert [result.pairs() for result in batch] == expected_after
        pool = db._proc_pool
        assert pool is not None and not pool.closed and not pool.degraded

    def test_real_delta_chain_corruption_surfaces_typed_and_respools(self, db):
        """Bytes actually flipped on disk: a worker opening the shipped
        delta chain hits the corrupted base file, the failure surfaces
        as ``CorruptIndexError`` slots (retries=0) and the session
        re-spools a fresh full generation the next batch serves from."""
        from repro.errors import CorruptIndexError

        expected = serial_pairs(db, QUERIES)
        first = db.serve_batch(QUERIES, workers=2, mode="process")
        assert [result.pairs() for result in first] == expected
        base_path = str(db._store_state.path)
        edge = next(iter(db.graph.triples()))
        db.update(remove_edges=[edge])
        db.update(add_edges=[edge])
        second = db.serve_batch(QUERIES, workers=2, mode="process")
        delta_path = str(db._store_state.path)
        assert delta_path != base_path  # the chain grew a delta
        assert [result.pairs() for result in second] == expected
        with open(base_path, "r+b") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 8)  # clobber the header
        # A fresh pool must map the chain from scratch and hit the
        # corruption (the live pool's workers already hold the mapping).
        db._proc_pool.close()
        db._proc_pool = None
        broken = db.serve_batch(
            QUERIES, workers=2, mode="process", retries=0, on_error="partial"
        )
        failed = [result for result in broken if result.failed]
        assert failed, "corrupted chain must surface typed failures"
        assert any(
            isinstance(err, CorruptIndexError)
            for result in failed
            for err in result.error.cause_chain()
        )
        assert db._store_respools >= 1
        # The session never serves the poisoned chain again: the next
        # batch spools a fresh full generation and answers identically.
        healed = db.serve_batch(QUERIES, workers=2, mode="process")
        assert [result.pairs() for result in healed] == expected
        assert str(db._store_state.path) != delta_path
        assert f"-r{db._store_respools}" in str(db._store_state.path)


# ---------------------------------------------------------------------------
# sharded builds under chaos: fingerprint-identical recovery
# ---------------------------------------------------------------------------
class TestBuildChaos:
    def test_shard_faults_recover_fingerprint_identical(self, chaos_graph):
        serial = CPQxIndex.build(chaos_graph.copy(), k=2, workers=1)
        injector = FaultInjector(seed=3, rates={"build.shard": 1.0}, max_faults=1)
        with inject(injector):
            chaotic = CPQxIndex.build(chaos_graph.copy(), k=2, workers=2)
        assert index_fingerprint(chaotic) == index_fingerprint(serial)
        assert injector.notes.get("shard.retried", 0) >= 1

    def test_partition_faults_fall_back_to_identical_serial(self, chaos_graph):
        """Faulted refinement workers fail the whole level sweep; the
        retry sees the same injected decisions, so the ladder lands on
        the serial loop — which is value-identical, class ids included.

        ``min_pairs=1`` forces the parallel branch on the test graph
        (it sits under :data:`~repro.core.partition.PARALLEL_MIN_PAIRS`).
        """
        serial = compute_partition_codes(chaos_graph, 2, workers=1)
        injector = FaultInjector(seed=3, rates={"partition.shard": 1.0})
        with inject(injector):
            chaotic = compute_partition_codes(
                chaos_graph, 2, workers=2, min_pairs=1
            )
        assert chaotic.class_of == serial.class_of
        assert chaotic.loop_classes == serial.loop_classes
        assert chaotic.level_class_counts == serial.level_class_counts
        assert injector.notes.get("partition.retried", 0) >= 1
        assert injector.notes.get("partition.serial_fallback", 0) >= 1


# ---------------------------------------------------------------------------
# thread-mode deadlines, retries, and the on_error policies
# ---------------------------------------------------------------------------
class TestThreadModeFaults:
    def test_timeout_raises_structured_query_timeout(self, db):
        real = db._serve_one

        def slow(query, limit):
            time.sleep(0.5)
            return real(query, limit)

        db._serve_one = slow
        with pytest.raises(QueryTimeoutError) as info:
            db.serve_batch(
                QUERIES[:2], workers=2, mode="thread", timeout=0.05, retries=0
            )
        assert info.value.timeout == 0.05
        assert info.value.attempts == 1
        assert info.value.query_index is not None

    def test_partial_policy_isolates_timed_out_slot(self, db):
        real = db._serve_one
        resolved = [db._resolve(query) for query in QUERIES[:4]]
        slow_query = resolved[0]

        def selective(query, limit):
            if query is slow_query:
                time.sleep(0.5)
            return real(query, limit)

        expected = serial_pairs(db, QUERIES[:4])
        db._serve_one = selective
        batch = db.serve_batch(
            resolved,
            workers=2,
            mode="thread",
            timeout=0.1,
            retries=1,
            on_error="partial",
        )
        assert len(batch) == 4
        assert len(batch.failures) == 1
        failed = batch[0]
        assert failed.failed
        assert isinstance(failed.error, QueryTimeoutError)
        assert failed.error.attempts == 2  # first dispatch + one retry
        with pytest.raises(QueryTimeoutError):
            failed.pairs()
        with pytest.raises(QueryTimeoutError):
            failed.count()
        for index in (1, 2, 3):
            assert batch[index].pairs() == expected[index]
        assert batch.total_answers == sum(len(p) for p in expected[1:])
        assert "1 failed" in batch.describe()

    def test_transient_errors_retried_to_success(self, db):
        real = db._serve_one
        seen: set[str] = set()

        def flaky(query, limit):
            key = repr(query)
            if key not in seen:
                seen.add(key)
                raise RuntimeError("transient backend hiccup")
            return real(query, limit)

        expected = serial_pairs(db, QUERIES[:4])
        db._serve_one = flaky
        batch = db.serve_batch(QUERIES[:4], workers=2, mode="thread", retries=2)
        assert [result.pairs() for result in batch] == expected

    def test_exhausted_retries_raise_with_cause_chain(self, db):
        def broken(query, limit):
            raise RuntimeError("backend permanently down")

        db._serve_one = broken
        with pytest.raises(ServingError) as info:
            db.serve_batch(QUERIES[:2], workers=2, mode="thread", retries=1)
        assert info.value.attempts == 2
        chain = info.value.cause_chain()
        assert isinstance(chain[-1], RuntimeError)

    def test_deterministic_library_errors_never_retried(self, db):
        calls = []

        def broken(query, limit):
            calls.append(query)
            raise QueryDiameterError("k too small for this query")

        db._serve_one = broken
        # Propagates as-is (not wrapped into ServingError, not retried).
        with pytest.raises(QueryDiameterError):
            db.serve_batch(QUERIES[:1], workers=1, mode="thread", retries=5)
        assert len(calls) == 1

    def test_parameter_validation(self, db):
        with pytest.raises(SessionError, match="timeout"):
            db.serve_batch(QUERIES[:1], timeout=0)
        with pytest.raises(SessionError, match="retries"):
            db.serve_batch(QUERIES[:1], retries=-1)
        with pytest.raises(SessionError, match="on_error"):
            db.serve_batch(QUERIES[:1], on_error="ignore")
