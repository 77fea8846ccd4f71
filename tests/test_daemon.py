"""Serving-daemon suite: admission, breaker, drain, swap, identical answers.

Two layers of tests:

* **in-loop** — the daemon driven directly on an asyncio event loop
  (``daemon.submit`` and friends), where pausing the dispatch gate makes
  admission, shedding, expiry, and drain ordering deterministic;
* **over HTTP** — a daemon on a background thread behind the real TCP
  front, driven through :class:`repro.serve.daemon.DaemonClient` exactly
  as the CI smoke script and the end-to-end benchmark drive it.

The recurring invariant is the repository's serving contract: every
answer the daemon returns is byte-identical to the serial
``execute_batch`` encoding, no matter what the admission queue, the
breaker, injected worker kills, or a mid-flight hot swap did around it.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.db import GraphDatabase
from repro.graph.generators import random_graph
from repro.query.workloads import serving_queries
from repro.serve import FaultInjector, inject
from repro.serve.daemon import (
    AdmissionQueue,
    CircuitBreaker,
    DaemonClient,
    DaemonConfig,
    LatencyRecorder,
    Request,
    ServingDaemon,
)
from repro.serve.daemon.batching import encode_answers

QUERIES = [
    "l1 & l2",
    "(l1 . l2) & id",
    "(l1 . l1) & (l2 . l2)",
    "l1 . l2^-",
    "(l2 . l1) & l3",
    "l1 . l2",
]


@pytest.fixture(scope="module")
def daemon_graph():
    return random_graph(40, 220, 3, seed=13)


@pytest.fixture
def db(daemon_graph):
    database = GraphDatabase.from_graph(daemon_graph.copy()).build_index(
        engine="cpqx", k=2
    )
    yield database
    database.close()


def expected_answers(database, texts):
    batch = database.execute_batch(texts)
    return {
        text: encode_answers(result.pairs(), None)
        for text, result in zip(texts, batch.results, strict=True)
    }


def missing_edge(graph):
    """A deterministic edge not yet present (the hot-swap update)."""
    name = next(iter(graph.registry))
    label = graph.registry.id_of(name)
    vertices = sorted(graph.vertices(), key=repr)
    for v in vertices:
        for u in vertices:
            if not graph.has_edge(v, u, label):
                return (v, u, name)
    raise AssertionError("graph is complete; cannot probe an update")


class DaemonHarness:
    """One daemon on a background event-loop thread, as in production,
    reached only through :class:`DaemonClient` over real TCP."""

    def __init__(self, db, config):
        self.daemon = ServingDaemon(db, config)
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.run()),
            name="repro-daemon",
            daemon=True,
        )

    def start(self, boot_deadline=30.0):
        self._thread.start()
        deadline = time.monotonic() + boot_deadline
        while self.daemon.port is None:
            assert self._thread.is_alive() and time.monotonic() < deadline, (
                "daemon failed to bind within the boot deadline"
            )
            time.sleep(0.01)
        client = DaemonClient("127.0.0.1", self.daemon.port)
        assert client.wait_ready(boot_deadline), "daemon did not become ready"
        return client

    def stop(self, client, join_deadline=30.0):
        if self._thread.is_alive():
            client.shutdown()
        self._thread.join(join_deadline)
        assert not self._thread.is_alive(), "daemon did not exit within the drain deadline"


def run_with_daemon(db, config, scenario):
    """Run ``await scenario(daemon)`` against a started in-loop daemon."""

    async def main():
        daemon = ServingDaemon(db, config)
        await daemon.start()
        try:
            return await scenario(daemon)
        finally:
            daemon.request_stop()
            await daemon.drain()
            await daemon.close()

    return asyncio.run(main())


async def park_dispatcher(daemon):
    """Pause dispatch deterministically with one flush request.

    An idle batch loop is blocked inside ``queue.get()`` — already past
    the gate — so the first request after clearing the gate is still
    served.  Awaiting one flush request guarantees the loop has cycled
    back to the cleared gate before the caller proceeds.
    """
    daemon.dispatch_gate.clear()
    status, _ = await daemon.submit(QUERIES[0])
    assert status == 200


# ---------------------------------------------------------------------------
# components: the bounded queue, the latency window, the breaker
# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def test_offer_sheds_beyond_capacity(self):
        async def main():
            queue = AdmissionQueue(2)
            requests = [
                Request(None, "q", None, None, asyncio.get_running_loop().create_future())
                for _ in range(3)
            ]
            assert queue.offer(requests[0]) is True
            assert queue.offer(requests[1]) is True
            assert queue.offer(requests[2]) is False  # full: shed, never block
            assert queue.depth() == 2
            assert queue.max_depth == 2

        asyncio.run(main())

    def test_drain_pending_returns_requests_not_stop(self):
        async def main():
            queue = AdmissionQueue(4)
            request = Request(
                None, "q", None, None, asyncio.get_running_loop().create_future()
            )
            queue.offer(request)
            await queue.put_stop()
            pending = queue.drain_pending()
            assert pending == [request]
            assert queue.depth() == 0

        asyncio.run(main())

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionQueue(0)


class TestLatencyRecorder:
    def test_percentiles_over_window(self):
        recorder = LatencyRecorder(window=100)
        for ms in range(1, 101):
            recorder.record(ms / 1000)
        assert recorder.percentile(50) == pytest.approx(0.050, abs=0.002)
        assert recorder.percentile(99) == pytest.approx(0.099, abs=0.002)
        snapshot = recorder.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["p99_ms"] >= snapshot["p50_ms"]

    def test_empty_window_reports_none(self):
        assert LatencyRecorder().percentile(50) is None
        assert LatencyRecorder().snapshot()["p50_ms"] is None


class TestCircuitBreaker:
    def test_trips_only_at_threshold(self):
        breaker = CircuitBreaker(threshold=3, cooldown=60.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.times_opened == 1

    def test_open_routes_to_thread_fallback(self):
        breaker = CircuitBreaker(threshold=1, cooldown=60.0)
        breaker.record_failure()
        assert breaker.route("process") == "thread"
        assert breaker.route("auto") == "thread"

    def test_thread_mode_never_touches_the_breaker_route(self):
        breaker = CircuitBreaker(threshold=1, cooldown=60.0)
        breaker.record_failure()
        assert breaker.route("thread") == "thread"
        assert breaker.probes == 0

    def test_half_open_probes_process_then_closes_on_success(self):
        breaker = CircuitBreaker(threshold=1, cooldown=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.06)
        assert breaker.state == "half_open"  # lazy transition on observation
        assert breaker.route("auto") == "process"
        assert breaker.probes == 1
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.failures == 0

    def test_failed_probe_reopens_and_rearms_cooldown(self):
        breaker = CircuitBreaker(threshold=2, cooldown=0.05)
        breaker.record_failure()
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.state == "half_open"
        breaker.record_failure()  # one failure re-opens a half-open breaker
        assert breaker.state == "open"
        assert breaker.times_opened == 1  # re-arm, not a fresh open

    def test_success_interrupts_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_parameters_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown=0)


# ---------------------------------------------------------------------------
# the in-loop daemon: admission, deadlines, shedding, drain, swap
# ---------------------------------------------------------------------------
class TestDaemonServing:
    def test_answers_identical_to_serial_execute_batch(self, db):
        expected = expected_answers(db, QUERIES)

        async def scenario(daemon):
            responses = await asyncio.gather(
                *(daemon.submit(text) for text in QUERIES)
            )
            for text, (status, payload) in zip(QUERIES, responses, strict=True):
                assert status == 200
                assert payload["answers"] == expected[text]
                assert payload["count"] == len(expected[text])
                assert payload["generation"] == 1

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)

    def test_concurrent_submissions_coalesce_into_batches(self, db):
        async def scenario(daemon):
            await park_dispatcher(daemon)
            tasks = [asyncio.create_task(daemon.submit(text)) for text in QUERIES]
            while daemon.queue.depth() < len(QUERIES):
                await asyncio.sleep(0.005)
            daemon.dispatch_gate.set()
            responses = await asyncio.gather(*tasks)
            assert all(status == 200 for status, _ in responses)
            # All six parked requests fused into one serve_batch call.
            assert any(payload["batched"] == len(QUERIES) for _, payload in responses)

        run_with_daemon(db, DaemonConfig(mode="thread", max_batch=32), scenario)

    def test_lone_request_on_an_idle_daemon_is_dispatched_alone(self, db):
        async def scenario(daemon):
            for served in (1, 2, 3):
                status, payload = await daemon.submit(QUERIES[0])
                assert status == 200
                assert payload["batched"] == 1  # no timer, no company
                assert daemon.stats.batches == served
            assert daemon.stats.queue_wait.count == 3

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)

    def test_requests_behind_an_in_flight_batch_fuse_up_to_max_batch(
        self, db, monkeypatch
    ):
        real = db.serve_batch
        entered, release = threading.Event(), threading.Event()

        def held(*args, **kwargs):
            entered.set()
            assert release.wait(10.0)
            return real(*args, **kwargs)

        async def scenario(daemon):
            monkeypatch.setattr(db, "serve_batch", held)
            first = asyncio.create_task(daemon.submit(QUERIES[0]))
            assert await asyncio.to_thread(entered.wait, 10.0)
            # One batch is in flight: everything submitted now queues.
            behind = [asyncio.create_task(daemon.submit(text)) for text in QUERIES]
            while daemon.queue.depth() < len(QUERIES):
                await asyncio.sleep(0.005)
            assert daemon.stats.batches == 1
            release.set()
            status, payload = await first
            assert (status, payload["batched"]) == (200, 1)
            responses = await asyncio.gather(*behind)
            assert all(status == 200 for status, _ in responses)
            # Six queued, max_batch 4: one batch of four, then the two
            # that were left — no third straggler batch, no timer.
            assert [payload["batched"] for _, payload in responses] == [4, 4, 4, 4, 2, 2]
            assert daemon.stats.batches == 3

        run_with_daemon(db, DaemonConfig(mode="thread", max_batch=4), scenario)

    def test_parse_errors_are_structured_400s(self, db):
        async def scenario(daemon):
            status, payload = await daemon.submit("l1 &&& nonsense (((")
            assert status == 400
            assert payload["error"] == "parse"
            # A garbage query costs its sender, never the daemon.
            status, _ = await daemon.submit(QUERIES[0])
            assert status == 200

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)

    def test_limit_truncates_deterministically(self, db):
        expected = expected_answers(db, QUERIES)
        wide = max(QUERIES, key=lambda text: len(expected[text]))
        assert len(expected[wide]) > 2

        async def scenario(daemon):
            status, payload = await daemon.submit(wide, limit=2)
            assert status == 200
            assert payload["answers"] == expected[wide][:2]

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)

    def test_over_capacity_requests_shed_with_structured_errors(self, db):
        async def scenario(daemon):
            await park_dispatcher(daemon)
            seated = [asyncio.create_task(daemon.submit(QUERIES[0])) for _ in range(2)]
            while daemon.queue.depth() < 2:
                await asyncio.sleep(0.005)
            status, payload = await daemon.submit(QUERIES[1])
            assert status == 503
            assert payload["error"] == "overloaded"
            assert payload["capacity"] == 2
            assert payload["queue_depth"] == 2
            assert daemon.stats.shed == 1
            assert daemon.queue.max_depth <= daemon.queue.capacity
            daemon.dispatch_gate.set()
            responses = await asyncio.gather(*seated)
            assert all(status == 200 for status, _ in responses)

        run_with_daemon(db, DaemonConfig(mode="thread", capacity=2), scenario)

    def test_expired_deadlines_rejected_before_dispatch(self, db):
        async def scenario(daemon):
            await park_dispatcher(daemon)
            task = asyncio.create_task(daemon.submit(QUERIES[0], timeout=0.01))
            while daemon.queue.depth() < 1:
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.05)  # let the parked request expire
            daemon.dispatch_gate.set()
            status, payload = await task
            assert status == 504
            assert payload["error"] == "deadline"
            assert daemon.stats.expired == 1

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)

    @pytest.mark.parametrize("max_batch", [32, 4])
    def test_graceful_drain_answers_everything_admitted(self, db, max_batch):
        # max_batch=32: STOP is coalesced right behind all six requests;
        # max_batch=4: a full batch, then the rest with STOP behind them.
        expected = expected_answers(db, QUERIES)

        async def scenario(daemon):
            await park_dispatcher(daemon)
            tasks = [asyncio.create_task(daemon.submit(text)) for text in QUERIES]
            while daemon.queue.depth() < len(QUERIES):
                await asyncio.sleep(0.005)
            daemon.request_stop()
            # New admissions are rejected the moment draining begins...
            status, payload = await daemon.submit(QUERIES[0])
            assert (status, payload["error"]) == (503, "draining")
            await daemon.drain()
            # ...but everything already admitted is answered, correctly.
            for text, task in zip(QUERIES, tasks, strict=True):
                status, payload = task.result()
                assert status == 200
                assert payload["answers"] == expected[text]
            assert daemon.drained_clean is True

        async def main():
            daemon = ServingDaemon(db, DaemonConfig(mode="thread", max_batch=max_batch))
            await daemon.start()
            try:
                await scenario(daemon)
            finally:
                await daemon.close()

        asyncio.run(main())

    def test_forced_drain_fails_fast_and_resolves_every_future(self, db, monkeypatch):
        real = db.serve_batch

        def glacial(*args, **kwargs):
            time.sleep(1.0)
            return real(*args, **kwargs)

        async def scenario(daemon):
            await park_dispatcher(daemon)
            monkeypatch.setattr(db, "serve_batch", glacial)
            tasks = [asyncio.create_task(daemon.submit(text)) for text in QUERIES[:3]]
            while daemon.queue.depth() < 3:
                await asyncio.sleep(0.005)
            daemon.request_stop()
            await daemon.drain()
            assert daemon.drained_clean is False
            # Past the deadline the daemon still answers — structured
            # draining errors, never abandoned futures.
            for task in tasks:
                status, payload = task.result()
                assert (status, payload["error"]) == (503, "draining")

        async def main():
            daemon = ServingDaemon(db, DaemonConfig(mode="thread", drain_deadline=0.1))
            await daemon.start()
            try:
                await scenario(daemon)
            finally:
                monkeypatch.setattr(db, "serve_batch", real)
                await daemon.close()

        asyncio.run(main())

    def test_batch_level_failure_feeds_the_breaker_and_answers_500(
        self, db, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("session exploded")

        async def scenario(daemon):
            monkeypatch.setattr(db, "serve_batch", broken)
            status, payload = await daemon.submit(QUERIES[0])
            assert status == 500
            assert payload["error"] == "serving"
            assert daemon.breaker.failures == 1

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)


class TestHotSwap:
    def test_update_swaps_generation_and_new_queries_see_it(self, db, daemon_graph):
        texts = list(QUERIES)
        expected_old = expected_answers(db, texts)
        reference = GraphDatabase.from_graph(daemon_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        edge = missing_edge(daemon_graph)
        reference.update(add_edges=[edge])
        expected_new = expected_answers(reference, texts)
        reference.close()
        changed = [t for t in texts if expected_old[t] != expected_new[t]]

        async def scenario(daemon):
            before = await asyncio.gather(*(daemon.submit(t) for t in texts))
            for text, (status, payload) in zip(texts, before, strict=True):
                assert status == 200
                assert payload["answers"] == expected_old[text]
            status, payload = await daemon.apply_update({"add_edges": [list(edge)]})
            assert status == 200
            assert payload["generation"] == 1  # incremental: same engine gen
            assert daemon.stats.swaps == 1
            after = await asyncio.gather(*(daemon.submit(t) for t in texts))
            for text, (status, payload) in zip(texts, after, strict=True):
                assert status == 200
                assert payload["answers"] == expected_new[text]

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)
        assert changed, "update must change at least one workload answer"

    def test_probes_racing_a_swap_see_old_or_new_never_torn(self, db, daemon_graph):
        texts = list(QUERIES)
        expected_old = expected_answers(db, texts)
        reference = GraphDatabase.from_graph(daemon_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        edge = missing_edge(daemon_graph)
        reference.update(add_edges=[edge])
        expected_new = expected_answers(reference, texts)
        reference.close()

        async def scenario(daemon):
            probes = [
                asyncio.create_task(daemon.submit(texts[i % len(texts)]))
                for i in range(4 * len(texts))
            ]
            await asyncio.sleep(0.01)
            status, _ = await daemon.apply_update({"add_edges": [list(edge)]})
            assert status == 200
            responses = await asyncio.gather(*probes)
            for i, (status, payload) in enumerate(responses):
                text = texts[i % len(texts)]
                assert status == 200
                assert payload["answers"] in (expected_old[text], expected_new[text])

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)

    def test_reload_swaps_a_saved_index_in(self, db, daemon_graph, tmp_path):
        texts = list(QUERIES)
        other = GraphDatabase.from_graph(daemon_graph.copy()).build_index(
            engine="cpqx", k=2
        )
        other.update(add_edges=[missing_edge(daemon_graph)])
        expected_new = expected_answers(other, texts)
        saved = tmp_path / "swapped.idx"
        other.save(str(saved))
        other.close()

        async def scenario(daemon):
            generation_before = daemon.db._engine_gen
            status, payload = await daemon.reload_index(str(saved))
            assert status == 200
            assert payload["generation"] == generation_before + 1
            for text in texts:
                status, payload = await daemon.submit(text)
                assert status == 200
                assert payload["answers"] == expected_new[text]

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)

    def test_reload_rejects_bad_paths_without_dropping_the_index(self, db):
        async def scenario(daemon):
            status, payload = await daemon.reload_index("/nonexistent/index.idx")
            assert status == 400
            assert payload["error"] == "reload"
            status, _ = await daemon.submit(QUERIES[0])
            assert status == 200  # the old index still serves

        run_with_daemon(db, DaemonConfig(mode="thread"), scenario)


# ---------------------------------------------------------------------------
# over HTTP: the real TCP front, as the smoke script drives it
# ---------------------------------------------------------------------------
class TestDaemonOverHTTP:
    def test_lifecycle_probes_query_stats_and_drain(self, db):
        expected = expected_answers(db, QUERIES)
        harness = DaemonHarness(db, DaemonConfig(mode="thread", capacity=8))
        client = harness.start()
        try:
            assert client.healthz()[0] == 200
            assert client.readyz()[0] == 200
            with ThreadPoolExecutor(max_workers=4) as pool:
                rows = list(
                    pool.map(lambda text: (text, client.query(text)), QUERIES)
                )
            for text, (status, payload) in rows:
                assert status == 200
                assert payload["answers"] == expected[text]
            stats = client.stats()
            assert stats["completed"] == len(QUERIES)
            assert stats["ready"] is True
            assert stats["breaker"]["state"] == "closed"
            assert stats["queue"]["capacity"] == 8
            assert stats["latency"]["count"] == len(QUERIES)
            # Time waiting for a batch is reported beside the total.
            assert stats["queue_wait"]["count"] == len(QUERIES)
            assert stats["queue_wait"]["p50_ms"] <= stats["latency"]["p50_ms"]
            # One connection per calling thread: this one and the workers.
            assert 2 <= stats["connections_accepted"] <= 5
        finally:
            harness.stop(client)
        assert harness.daemon.drained_clean is True

    def test_malformed_requests_get_structured_errors(self, db):
        import http.client

        harness = DaemonHarness(db, DaemonConfig(mode="thread"))
        client = harness.start()
        try:
            status, payload = client.query("")  # empty query text
            assert (status, payload["error"]) == (400, "parse")
            connection = http.client.HTTPConnection(
                "127.0.0.1", harness.daemon.port, timeout=10.0
            )
            connection.request(
                "POST", "/query", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            response.read()
            connection.request("GET", "/no-such-route")
            assert connection.getresponse().status == 404
            connection.close()
        finally:
            harness.stop(client)

    def test_shutdown_endpoint_drains_cleanly(self, db):
        harness = DaemonHarness(db, DaemonConfig(mode="thread"))
        client = harness.start()
        status, _ = client.query(QUERIES[0])
        assert status == 200
        harness.stop(client)  # POST /shutdown + join
        assert harness.daemon.drained_clean is True
        assert harness.daemon.stats.completed == 1

    def test_sequential_calls_share_one_connection(self, db):
        harness = DaemonHarness(db, DaemonConfig(mode="thread"))
        client = harness.start()  # readiness probes already ride on it
        try:
            for text in QUERIES * 3:
                assert client.query(text)[0] == 200
            assert client.stats()["connections_accepted"] == 1
        finally:
            harness.stop(client)

    def test_two_threads_share_one_client_without_crosstalk(self, db):
        expected = expected_answers(db, QUERIES)
        harness = DaemonHarness(db, DaemonConfig(mode="thread"))
        client = harness.start()
        wrong: list[str] = []

        def hammer(texts):
            for text in texts * 10:
                status, payload = client.query(text)
                if status != 200 or payload["answers"] != expected[text]:
                    wrong.append(text)

        try:
            threads = [
                threading.Thread(target=hammer, args=(QUERIES[offset::2],))
                for offset in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            assert not wrong
            assert client.stats()["connections_accepted"] == 3  # one per thread
        finally:
            harness.stop(client)

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        ],
    )
    def test_connection_close_is_honoured(self, db, request_head):
        harness = DaemonHarness(db, DaemonConfig(mode="thread"))
        client = harness.start()
        try:
            with socket.create_connection(("127.0.0.1", harness.daemon.port), 10.0) as raw:
                raw.sendall(request_head)
                received = b""
                while chunk := raw.recv(65536):  # EOF-delimited: ends at the close
                    received += chunk
            head, _, body = received.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            assert b"connection: close" in head.lower()
            assert b'"ok": true' in body
        finally:
            harness.stop(client)

    def test_http_1_0_keep_alive_and_1_1_default_persist(self, db):
        harness = DaemonHarness(db, DaemonConfig(mode="thread"))
        client = harness.start()
        try:
            with socket.create_connection(("127.0.0.1", harness.daemon.port), 10.0) as raw:
                reader = raw.makefile("rb")
                for request_head in (
                    b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
                ):
                    raw.sendall(request_head)
                    assert reader.readline().startswith(b"HTTP/1.1 200")
                    headers = {}
                    while (line := reader.readline()) not in (b"\r\n", b""):
                        name, _, value = line.decode().partition(":")
                        headers[name.lower()] = value.strip()
                    assert headers["connection"] == "keep-alive"
                    reader.read(int(headers["content-length"]))
        finally:
            harness.stop(client)

    def test_shutdown_closes_idle_keep_alive_connections_promptly(self, db):
        harness = DaemonHarness(db, DaemonConfig(mode="thread"))
        client = harness.start()
        with socket.create_connection(("127.0.0.1", harness.daemon.port), 10.0) as idle:
            idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert idle.recv(65536).startswith(b"HTTP/1.1 200")
            started = time.monotonic()
            harness.stop(client)  # both keep-alive connections are idle now
            # Well inside close()'s 5 s wait_closed bound.
            assert time.monotonic() - started < 3.0
            assert idle.recv(65536) == b""  # the daemon hung up on us
        assert harness.daemon.drained_clean is True


class TestDaemonChaos:
    def test_worker_kills_leave_answers_identical_and_breaker_closed(
        self, db, daemon_graph
    ):
        texts = [
            query.to_text(daemon_graph.registry)
            for query in serving_queries(daemon_graph, seed=7)[:24]
        ]
        assert len(texts) == 24
        expected = expected_answers(db, texts)
        config = DaemonConfig(
            mode="process",
            workers=2,
            breaker_threshold=1,  # one failed batch opens the breaker
            breaker_cooldown=0.75,
            default_deadline=30.0,
        )
        harness = DaemonHarness(db, config)
        client = harness.start()
        try:
            for text in texts[:4]:  # spawn the pool before faults start
                assert client.query(text)[0] == 200
            injector = FaultInjector(seed=37, rates={"worker.kill": 0.3})
            with inject(injector):
                with ThreadPoolExecutor(max_workers=4) as pool:
                    rows = list(pool.map(lambda text: (text, client.query(text)), texts))
                assert client.healthz()[0] == 200
            for text, (status, payload) in rows:
                if status == 200:
                    assert payload["answers"] == expected[text]
            failures = sum(status != 200 for _, (status, _) in rows)
            assert failures <= len(texts) // 2  # the injector's default budget
            assert client.stats()["pool"]["restarts_used"] >= 1  # kills fired
            # The breaker only moves on batches: drive probe traffic until
            # a tripped breaker has gone half-open and closed again.
            deadline = time.monotonic() + 20.0
            probes = 0
            while client.stats()["breaker"]["state"] != "closed":
                assert time.monotonic() < deadline, "breaker never re-closed"
                client.query(texts[probes % len(texts)])
                probes += 1
                time.sleep(0.05)
        finally:
            harness.stop(client)


# ---------------------------------------------------------------------------
# the client's persistent connection against a scripted peer
# ---------------------------------------------------------------------------
class ScriptedServer:
    """A TCP peer that answers ``script[i]`` requests on its i-th
    connection (claiming keep-alive each time), then hangs up."""

    def __init__(self, script):
        self.script = script
        self.accepted = 0
        self.requests = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        body = b'{"ok": true}'
        response = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n%s" % (len(body), body)
        )
        for answers in self.script:
            connection, _ = self._listener.accept()
            self.accepted += 1
            with connection, connection.makefile("rb") as reader:
                for _ in range(answers):
                    while reader.readline() not in (b"\r\n", b""):
                        pass
                    self.requests += 1
                    connection.sendall(response)
        self._listener.close()

    def join(self):
        self._thread.join(10.0)
        assert not self._thread.is_alive()


class TestClientConnectionReuse:
    def test_stale_reused_connection_is_retried_on_a_fresh_one(self):
        server = ScriptedServer([1, 2])
        client = DaemonClient("127.0.0.1", server.port, timeout=10.0)
        assert client.healthz() == (200, {"ok": True})
        # The peer hung up after its first answer; the client only finds
        # out when it reuses the socket, and reconnects transparently.
        assert client.healthz() == (200, {"ok": True})
        assert client.healthz() == (200, {"ok": True})
        client.close()
        server.join()
        assert (server.accepted, server.requests) == (2, 3)

    def test_stale_connection_is_retried_exactly_once(self):
        server = ScriptedServer([1, 0])
        client = DaemonClient("127.0.0.1", server.port, timeout=10.0)
        assert client.healthz()[0] == 200
        with pytest.raises(ConnectionError):
            client.healthz()  # stale, then the one fresh retry dies too
        server.join()
        assert server.accepted == 2

    def test_fresh_connection_failure_is_not_retried(self):
        server = ScriptedServer([0, 1])
        client = DaemonClient("127.0.0.1", server.port, timeout=10.0)
        with pytest.raises(ConnectionError):
            client.healthz()
        assert server.accepted == 1  # no second attempt was made
        assert client.healthz()[0] == 200  # the next call starts clean
        client.close()
        server.join()
