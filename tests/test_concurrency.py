"""Thread-safety of the serving path: locks, memo layers, serve_batch.

The guarantees under test (documented in ``docs/concurrency.md``):

* :class:`repro.core.concurrency.RWLock` admits concurrent readers,
  gives writers exclusivity, and prefers waiting writers;
* :class:`repro.core.cache.LRUCache` survives concurrent get/put
  hammering without corruption;
* :meth:`GraphDatabase.serve_batch` under N threads returns exactly the
  serial :meth:`execute_batch` answers, on one session-owned pool that
  is reused across batches, replaced after an abandoned evaluation, and
  torn down by ``close()``;
* the stress case: reader threads querying *while* ``update()``
  mutates the graph never observe a state that is not an update
  boundary, and no stale memo entry survives an update.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.cache import LRUCache
from repro.core.concurrency import RWLock
from repro.core.cpqx import CPQxIndex
from repro.db import GraphDatabase
from repro.errors import QueryTimeoutError
from repro.graph.generators import random_graph

QUERIES = [
    "l1 & l2",
    "(l1 . l2) & id",
    "(l1 . l1) & (l2 . l2)",
    "l1 . l2^-",
    "(l2 . l1) & l3",
]


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read():
                inside.wait()  # only passes if all 3 readers are inside

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        log: list[str] = []

        def writer(tag):
            with lock.write():
                log.append(f"{tag}-in")
                time.sleep(0.02)
                log.append(f"{tag}-out")

        def reader():
            with lock.read():
                log.append("r-in")
                log.append("r-out")

        threads = [
            threading.Thread(target=writer, args=("w1",)),
            threading.Thread(target=reader),
            threading.Thread(target=writer, args=("w2",)),
        ]
        for thread in threads:
            thread.start()
            time.sleep(0.005)  # deterministic arrival order
        for thread in threads:
            thread.join(timeout=5)
        # Critical sections never interleave: every "-in" is followed
        # by its own "-out" before the next section opens.
        for position in range(0, len(log), 2):
            assert log[position].replace("-in", "") == \
                log[position + 1].replace("-out", "")

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_started = threading.Event()
        writer_done = threading.Event()

        def writer():
            writer_started.set()
            with lock.write():
                writer_done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        writer_started.wait(timeout=5)
        deadline = time.monotonic() + 5
        while lock._writers_waiting == 0 and time.monotonic() < deadline:
            time.sleep(0.001)  # let the writer reach the wait loop
        assert lock._writers_waiting == 1
        late_reader_entered = threading.Event()

        def late_reader():
            with lock.read():
                late_reader_entered.set()

        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        time.sleep(0.02)
        # Writer queued => the late reader must be held at the door.
        assert not late_reader_entered.is_set()
        lock.release_read()
        thread.join(timeout=5)
        reader_thread.join(timeout=5)
        assert writer_done.is_set() and late_reader_entered.is_set()


class TestLRUCacheThreadSafety:
    def test_concurrent_hammering_stays_consistent(self):
        cache = LRUCache(capacity=32)
        errors: list[BaseException] = []

        def hammer(offset: int) -> None:
            try:
                for round_ in range(400):
                    key = (offset * round_) % 50
                    cache.put(key, key * 2)
                    value = cache.get(key % 37)
                    assert value is None or value == (key % 37) * 2
                    if round_ % 97 == 0:
                        cache.clear()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(offset,))
            for offset in range(1, 9)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(cache) <= 32


@pytest.fixture(scope="module")
def stress_graph():
    return random_graph(50, 260, 3, seed=11)


class TestServeBatch:
    def test_identical_to_serial_execution(self, stress_graph):
        db = GraphDatabase.from_graph(stress_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        serial = db.execute_batch(QUERIES)
        threaded = db.serve_batch(QUERIES * 4, workers=8)
        assert len(threaded) == 4 * len(serial)
        for index, result in enumerate(threaded):
            assert result.pairs() == serial[index % len(serial)].pairs()
        assert threaded.total_answers == 4 * serial.total_answers

    def test_respects_limit_and_resolves_auto_engine(self, stress_graph):
        db = GraphDatabase.from_graph(stress_graph.copy())
        batch = db.serve_batch(["l1 & l2"], workers=2, limit=3)
        assert db.is_built  # engine="auto" resolved before threading
        assert len(batch[0].pairs()) <= 3


class TestSessionServingThreads:
    """``serve_batch(mode="thread")`` runs on one session-owned pool."""

    @pytest.fixture
    def db(self, stress_graph):
        database = GraphDatabase.from_graph(stress_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        yield database
        database.close()

    @staticmethod
    def serving_threads():
        return [t for t in threading.enumerate() if t.name.startswith("repro-serve")]

    def test_repeated_batches_reuse_the_same_threads(self, db):
        db.serve_batch(QUERIES * 2, workers=3, mode="thread")
        pool = db._thread_pool
        before = threading.active_count()
        for _ in range(20):
            db.serve_batch(QUERIES * 2, workers=3, mode="thread")
        assert db._thread_pool is pool
        assert threading.active_count() <= before  # nothing spawned per batch
        assert len(self.serving_threads()) <= 3

    def test_timed_out_evaluation_leaves_a_healthy_pool_behind(self, db):
        serial = db.execute_batch(QUERIES)
        real = db._serve_one
        stuck, release = threading.Event(), threading.Event()

        def wedged(query, limit):
            stuck.set()
            assert release.wait(10.0)
            return real(query, limit)

        try:
            db._serve_one = wedged
            with pytest.raises(QueryTimeoutError):
                db.serve_batch(QUERIES[:1], workers=1, mode="thread", timeout=0.05, retries=0)
            assert stuck.is_set()
            db._serve_one = real
            # The only worker of the old pool is still wedged; the next
            # batch must not queue behind it.
            batch = db.serve_batch(QUERIES, workers=1, mode="thread", timeout=5.0)
            assert not release.is_set()
            assert [result.pairs() for result in batch] == [r.pairs() for r in serial]
        finally:
            release.set()

    def test_close_leaves_no_serving_threads(self, db):
        db.serve_batch(QUERIES, workers=4, mode="thread")
        assert self.serving_threads()
        db.close()
        assert not self.serving_threads()
        # The session stays usable: the next batch builds a fresh pool.
        assert len(db.serve_batch(QUERIES, workers=2, mode="thread")) == len(QUERIES)

    def test_concurrent_callers_with_different_worker_counts(self, db):
        # Callers asking for different worker counts keep replacing the
        # shared pool under each other; no round may land on a pool that
        # was just shut down, and every answer stays the serial one.
        serial = [result.pairs() for result in db.execute_batch(QUERIES)]
        failures: list[BaseException] = []
        deadline = time.monotonic() + 1.5

        def caller(workers: int) -> None:
            try:
                while time.monotonic() < deadline:
                    batch = db.serve_batch(QUERIES, workers=workers, mode="thread")
                    assert [result.pairs() for result in batch] == serial
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(2 + n % 3,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures


class TestConcurrentUpdateStress:
    """8 reader threads query while update() mutates the graph."""

    def _expected_per_step(self, base, steps):
        """Serial ground truth: fresh engine per post-step graph state."""
        expected = []
        state = base.copy()
        db = GraphDatabase.from_graph(state)
        for add_edges, remove_edges in [((), ())] + steps:
            for v, u, label in add_edges:
                state.add_edge(v, u, label)
            for v, u, label in remove_edges:
                state.remove_edge(v, u, label)
            engine = CPQxIndex.build(state.copy(), k=2)
            expected.append([
                engine.evaluate(db._resolve(query)) for query in QUERIES
            ])
        return expected

    def test_no_stale_reads_and_serial_equivalence(self, stress_graph):
        base = stress_graph
        vertices = sorted(base.vertices())[:4]
        v0, v1, v2, v3 = vertices
        steps = [
            ([("nv0", v0, "l1")], ()),
            ([(v1, "nv0", "l2")], ()),
            ((), [("nv0", v0, "l1")]),
            ([("nv1", "nv0", "l1"), (v2, "nv1", "l2")], ()),
            ((), [(v1, "nv0", "l2")]),
            ([(v3, "nv1", "l3")], ()),
        ]
        expected = self._expected_per_step(base, steps)
        valid_per_query = [
            {step[q] for step in expected} for q in range(len(QUERIES))
        ]

        db = GraphDatabase.from_graph(base.copy()).build_index(
            engine="cpqx", k=2
        )
        stop = threading.Event()
        violations: list[str] = []
        reader_errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    batch = db.execute_batch(QUERIES)
                    for q, result in enumerate(batch):
                        if result.pairs() not in valid_per_query[q]:
                            violations.append(QUERIES[q])
            except BaseException as exc:  # pragma: no cover - failure path
                reader_errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        try:
            for step_index, (add_edges, remove_edges) in enumerate(steps):
                time.sleep(0.01)
                db.update(add_edges=add_edges, remove_edges=remove_edges)
                # No stale memo hit: answers served immediately after the
                # update must reflect it (the token retired every cache).
                after = db.serve_batch(QUERIES, workers=4)
                for q, result in enumerate(after):
                    assert result.pairs() == expected[step_index + 1][q], (
                        f"stale answer after step {step_index} for "
                        f"{QUERIES[q]!r}"
                    )
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

        assert not reader_errors, reader_errors
        assert not violations, (
            f"readers observed non-boundary states for: {set(violations)}"
        )
        # Final state equals a fresh serial re-run on the final graph.
        final = db.serve_batch(QUERIES, workers=8)
        for q, result in enumerate(final):
            assert result.pairs() == expected[-1][q]

    def test_rebuilding_engine_never_serves_mixed_state(self, stress_graph):
        # Non-incremental engines are *swapped* by update(): the serving
        # path must bind the engine inside the read lock, or an
        # in-flight batch would evaluate the stale index against the
        # already-mutated graph (a state matching no update boundary).
        from repro.baselines.path_index import PathIndex

        base = stress_graph
        v0, v1 = sorted(base.vertices())[:2]
        steps = [
            ([("nv0", v0, "l1"), ("nv0", v0, "l2")], ()),
            ([(v1, "nv0", "l1")], ()),
            ((), [("nv0", v0, "l2")]),
        ]
        state = base.copy()
        db_probe = GraphDatabase.from_graph(state)
        expected = []
        for add_edges, remove_edges in [((), ())] + steps:
            for v, u, label in add_edges:
                state.add_edge(v, u, label)
            for v, u, label in remove_edges:
                state.remove_edge(v, u, label)
            engine = PathIndex.build(state.copy(), k=2)
            expected.append([
                engine.evaluate(db_probe._resolve(query)) for query in QUERIES
            ])
        valid_per_query = [
            {step[q] for step in expected} for q in range(len(QUERIES))
        ]

        db = GraphDatabase.from_graph(base.copy()).build_index(
            engine="path", k=2
        )
        stop = threading.Event()
        violations: list[str] = []
        reader_errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    for q, result in enumerate(db.serve_batch(QUERIES, workers=2)):
                        if result.pairs() not in valid_per_query[q]:
                            violations.append(QUERIES[q])
            except BaseException as exc:  # pragma: no cover - failure path
                reader_errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for add_edges, remove_edges in steps:
                time.sleep(0.02)
                db.update(add_edges=add_edges, remove_edges=remove_edges)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not reader_errors, reader_errors
        assert not violations, (
            f"readers observed mixed engine/graph states for: {set(violations)}"
        )
        final = db.serve_batch(QUERIES, workers=4)
        for q, result in enumerate(final):
            assert result.pairs() == expected[-1][q]
