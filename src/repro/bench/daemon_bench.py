"""``repro serve-bench --daemon`` — load-generation bench for the daemon.

Where :mod:`repro.bench.concurrent` measures the embedded serving API,
this harness boots the real :class:`~repro.serve.daemon.ServingDaemon`
(HTTP front, admission queue, coalescer, breaker — the whole ladder)
and drives it with a threaded load generator over the same 122-query
workload, phase by phase:

* **normal** — every answer asserted byte-identical to the serial
  ``execute_batch`` expectation; client-side p50/p99 tail latency and
  the server's own percentile window recorded;
* **shedding** — dispatch paused, a blast of 3× capacity concurrent
  requests: over-capacity requests must come back as *structured*
  ``overloaded`` rejects immediately (never queued unboundedly — the
  queue's high-water mark is asserted ≤ capacity), and every seated
  request must still be answered correctly after resume;
* **chaos** — per scenario, a fresh process-mode daemon under a seeded
  :class:`~repro.serve.FaultInjector` (worker kills, evaluation-error
  storms, store-open failures): the daemon must answer ``/healthz``
  throughout, surviving answers stay identical, failures stay bounded,
  and the breaker is watched through open → half-open → closed, with
  the recovery time recorded;
* **hot swap** — probe queries race a ``POST /update``: every answer
  must equal the old-generation or the new-generation expectation,
  nothing in between (the serve-token handshake's no-torn-reads
  guarantee, observed from outside);
* **drain** — requests parked behind a paused dispatcher, then
  ``/shutdown``: the daemon must answer everything admitted within the
  drain deadline and report ``drained_clean``.

Correctness failures raise; timings are recorded, never asserted.
``BENCH_PR9.json`` in the repository is generated by this command, and
``scripts/assert_bench_flags.py`` gates CI on the ``identical_answers``,
``shed_bounded``, and ``drained_clean`` flags it emits.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.bench.micro import micro_graph, micro_queries
from repro.bench.reporting import host_metadata
from repro.db import GraphDatabase
from repro.serve import FaultInjector, inject
from repro.serve.daemon import DaemonClient, DaemonConfig, ServingDaemon
from repro.serve.daemon.batching import encode_answers

#: Queries served per chaos scenario (small: recovery ladders are slow).
CHAOS_WORKLOAD = 24

#: Fixed process-pool size for the chaos scenarios (as in
#: :mod:`repro.bench.concurrent`: seeded decision streams are only
#: meaningful against a pinned pool shape).
CHAOS_WORKERS = 2

#: Chaos scenarios: (name, rates, injector kwargs).  Each runs against a
#: fresh daemon with ``breaker_threshold=1`` so a single failed batch
#: deterministically opens the breaker and the recovery probe is
#: observable from /stats.
CHAOS_SCENARIOS = (
    ("worker.kill", {"worker.kill": 0.3}, {"seed": 37}),
    ("worker.error", {"worker.error": 1.0}, {"seed": 0, "max_faults": 6}),
    ("store.open", {"store.open": 1.0}, {"seed": 5, "max_faults": 2}),
)


class DaemonHarness:
    """Run one daemon on a background event-loop thread, like production.

    The bench (and tests) talk to it only through
    :class:`~repro.serve.daemon.DaemonClient` over real TCP — the same
    path a load balancer would use.
    """

    def __init__(self, db: GraphDatabase, config: DaemonConfig) -> None:
        self.daemon = ServingDaemon(db, config)
        self._thread = threading.Thread(
            target=self._run, name="repro-daemon", daemon=True
        )

    def _run(self) -> None:
        asyncio.run(self.daemon.run())

    def start(self, boot_deadline: float = 30.0) -> DaemonClient:
        self._thread.start()
        deadline = time.monotonic() + boot_deadline
        while self.daemon.port is None:
            if not self._thread.is_alive() or time.monotonic() > deadline:
                raise AssertionError("daemon failed to bind within the boot deadline")
            time.sleep(0.01)
        client = DaemonClient("127.0.0.1", self.daemon.port)
        if not client.wait_ready(boot_deadline):
            raise AssertionError("daemon did not become ready")
        return client

    def stop(self, client: DaemonClient, join_deadline: float = 30.0) -> None:
        if self._thread.is_alive():
            client.shutdown()
        self._thread.join(join_deadline)
        if self._thread.is_alive():
            raise AssertionError("daemon did not exit within the drain deadline")


def _expected_answers(db: GraphDatabase, texts: list[str]) -> dict[str, list]:
    """Serial ground truth per query text, in the daemon's wire encoding."""
    batch = db.execute_batch(texts)
    return {
        text: encode_answers(result.pairs(), None)
        for text, result in zip(texts, batch.results, strict=True)
    }


def _fire(client: DaemonClient, text: str, timeout: float | None = None) -> dict:
    """One timed request; returns ``{status, answers?, error?, latency_s}``."""
    start = time.perf_counter()
    status, payload = client.query(text, timeout=timeout)
    row = {"status": status, "latency_s": time.perf_counter() - start}
    if status == 200:
        row["answers"] = payload["answers"]
    else:
        row["error"] = payload.get("error")
    return row


def _percentile(samples: list[float], p: float) -> float | None:
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def _normal_section(
    client: DaemonClient, texts: list[str], expected: dict[str, list], threads: int
) -> dict:
    """Full workload through the HTTP front, answers asserted identical."""
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(lambda text: (text, _fire(client, text)), texts))
    wall_s = time.perf_counter() - start
    mismatches = [
        text
        for text, row in rows
        if row["status"] != 200 or row["answers"] != expected[text]
    ]
    if mismatches:
        raise AssertionError(
            f"daemon answers disagree with execute_batch on queries: {mismatches}"
        )
    latencies = [row["latency_s"] for _, row in rows]
    stats = client.stats()
    return {
        "queries": len(texts),
        "client_threads": threads,
        "wall_s": wall_s,
        "queries_per_second": len(texts) / wall_s,
        "client_p50_ms": round(1000 * (_percentile(latencies, 50) or 0.0), 3),
        "client_p99_ms": round(1000 * (_percentile(latencies, 99) or 0.0), 3),
        "server_latency": stats["latency"],
        "batches": stats["batches"],
        "identical_answers": True,
    }


def _pause_and_park(client: DaemonClient, flush_text: str) -> None:
    """Pause dispatch and *prove* it parked.

    An idle batch loop is blocked inside ``queue.get()`` — already past
    the dispatch gate — so the first request after ``/pause`` is still
    served.  Firing one flush request and waiting for its answer is
    deterministic: by the time its response arrives, the loop has cycled
    back to the (now cleared) gate and every later request parks.
    """
    client.pause()
    status, payload = client.query(flush_text, timeout=30.0)
    if status != 200:
        raise AssertionError(f"pause flush request failed: {status} {payload}")


def _shedding_section(
    client: DaemonClient,
    texts: list[str],
    expected: dict[str, list],
    capacity: int,
) -> dict:
    """Blast 3× capacity into a paused daemon; sheds must be structured.

    With dispatch paused, admission is the only moving part: at most
    ``capacity`` requests can be seated and every request beyond them
    must be rejected *immediately* with a structured ``overloaded``
    payload.  After resume, every seated request must still be answered
    correctly — shedding sheds, it never corrupts.
    """
    _pause_and_park(client, texts[0])
    blast = 3 * capacity
    probe_texts = [texts[index % len(texts)] for index in range(blast)]
    with ThreadPoolExecutor(max_workers=blast) as pool:
        try:
            futures = [
                pool.submit(_fire, client, text, 30.0) for text in probe_texts
            ]
            # Sheds resolve immediately even though dispatch is parked;
            # wait for all of them before resuming, so the shed count is
            # measured under full standing load.
            deadline = time.monotonic() + 15.0
            while sum(future.done() for future in futures) < blast - capacity:
                if time.monotonic() > deadline:
                    raise AssertionError("over-capacity blast never shed")
                time.sleep(0.01)
        finally:
            client.resume()
        rows = [
            (text, future.result())
            for text, future in zip(probe_texts, futures, strict=True)
        ]
    served = [(text, row) for text, row in rows if row["status"] == 200]
    shed = [row for _, row in rows if row["status"] == 503]
    unexpected = [row for _, row in rows if row["status"] not in (200, 503)]
    if unexpected:
        raise AssertionError(f"unexpected shedding responses: {unexpected}")
    if len(shed) < blast - capacity:
        raise AssertionError(
            f"only {len(shed)} of the {blast - capacity} over-capacity "
            f"requests were shed"
        )
    if any(row.get("error") != "overloaded" for row in shed):
        raise AssertionError(f"sheds must be structured 'overloaded' rejects: {shed}")
    bad = [text for text, row in served if row["answers"] != expected[text]]
    if bad:
        raise AssertionError(f"seated requests answered wrongly after resume: {bad}")
    stats = client.stats()
    max_depth = stats["queue"]["max_depth"]
    if max_depth > capacity:
        raise AssertionError(
            f"admission queue exceeded its bound: {max_depth} > {capacity}"
        )
    shed_latency_ms = [1000 * row["latency_s"] for row in shed]
    return {
        "blast": blast,
        "capacity": capacity,
        "served": len(served),
        "shed": len(shed),
        "shed_rate": len(shed) / blast,
        "max_queue_depth": max_depth,
        "shed_p99_ms": round(_percentile(shed_latency_ms, 99) or 0.0, 3),
        "shed_bounded": True,
    }


def _chaos_section(base, k: int, texts: list[str], expected: dict[str, list]) -> dict:
    """Per scenario: a fresh process-mode daemon under seeded faults."""
    workload = texts[:CHAOS_WORKLOAD]
    scenarios = []
    for name, rates, injector_kwargs in CHAOS_SCENARIOS:
        db = GraphDatabase.from_graph(base.copy()).build_index(engine="cpqx", k=k)
        config = DaemonConfig(
            mode="process",
            workers=CHAOS_WORKERS,
            capacity=64,
            breaker_threshold=1,
            breaker_cooldown=0.75,
            default_deadline=30.0,
        )
        harness = DaemonHarness(db, config)
        client = harness.start()
        try:
            # Warm the pool (and prove the daemon healthy) off the clock.
            for text in workload[:4]:
                row = _fire(client, text)
                if row["status"] != 200:
                    raise AssertionError(f"warmup failed under {name!r}: {row}")
            injector = FaultInjector(rates=rates, **injector_kwargs)
            with inject(injector):
                start = time.perf_counter()
                with ThreadPoolExecutor(max_workers=4) as pool:
                    rows = list(
                        pool.map(lambda text: (text, _fire(client, text)), workload)
                    )
                chaotic_s = time.perf_counter() - start
                health, _ = client.healthz()
            if health != 200:
                raise AssertionError(f"daemon unhealthy under {name!r}")
            mismatches = [
                text
                for text, row in rows
                if row["status"] == 200 and row["answers"] != expected[text]
            ]
            if mismatches:
                raise AssertionError(
                    f"chaos scenario {name!r}: surviving answers disagree on "
                    f"{mismatches}"
                )
            failures = [row for _, row in rows if row["status"] != 200]
            budget = injector.max_faults or len(workload) // 2
            if len(failures) > budget:
                raise AssertionError(
                    f"chaos scenario {name!r}: {len(failures)} failures exceed "
                    f"the fault budget {budget}"
                )
            # Past the fault budget the pool heals: the breaker (if it
            # opened) must come back to closed via its half-open probe.
            stats = client.stats()
            recovery_s = None
            if stats["breaker"]["state"] != "closed":
                recovery_s = _await_breaker_with_traffic(client, workload, 20.0)
                if recovery_s is None:
                    raise AssertionError(
                        f"chaos scenario {name!r}: breaker never re-closed"
                    )
            final = client.stats()
            scenarios.append({
                "scenario": name,
                "rates": rates,
                "seed": injector_kwargs.get("seed", 0),
                "queries": len(workload),
                "chaotic_s": chaotic_s,
                "failures": len(failures),
                "shed": final["shed"],
                "worker_restarts": final["pool"]["restarts_used"],
                "map_failures": final["pool"]["map_failures"],
                "breaker": final["breaker"],
                "recovery_s": recovery_s,
                "daemon_survived": True,
                "identical_answers": True,
            })
        finally:
            harness.stop(client)
    return {
        "workers": CHAOS_WORKERS,
        "scenarios": scenarios,
        "daemon_survived": True,
        "identical_answers": True,
    }


def _await_breaker_with_traffic(
    client: DaemonClient, texts: list[str], deadline_s: float
) -> float | None:
    """Drive probe traffic until the breaker closes (it only moves on
    batches); returns the recovery time, or ``None`` on timeout."""
    start = time.monotonic()
    index = 0
    while time.monotonic() - start < deadline_s:
        _fire(client, texts[index % len(texts)])
        index += 1
        if client.stats()["breaker"]["state"] == "closed":
            return time.monotonic() - start
        time.sleep(0.05)
    return None


def _missing_edge(graph) -> tuple:
    """A deterministic edge not yet present (the hot-swap update)."""
    name = next(iter(graph.registry))
    label = graph.registry.id_of(name)
    vertices = sorted(graph.vertices(), key=repr)
    for v in vertices:
        for u in vertices:
            if not graph.has_edge(v, u, label):
                return (v, u, name)
    raise AssertionError("bench graph is complete; cannot probe an update")


def _hot_swap_section(
    client: DaemonClient,
    base,
    k: int,
    texts: list[str],
    expected_old: dict[str, list],
) -> dict:
    """Probe queries race a POST /update; answers must be old XOR new.

    ``expected_new`` comes from a reference session given the identical
    update.  Every 200 response during the race must match one of the
    two expectations exactly — a mixed answer set would be a torn read
    across the swap boundary, which the serve-token handshake forbids.
    """
    edge = _missing_edge(base)
    reference = GraphDatabase.from_graph(base.copy()).build_index(engine="cpqx", k=k)
    try:
        reference.update(add_edges=[edge])
        expected_new = _expected_answers(reference, texts)
    finally:
        reference.close()

    probes = [texts[index % len(texts)] for index in range(4 * len(texts))]
    results: list[tuple[str, dict]] = []
    swap_response: dict = {}

    def probe_worker(chunk: list[str]) -> list[tuple[str, dict]]:
        return [(text, _fire(client, text)) for text in chunk]

    chunks = [probes[index::4] for index in range(4)]
    with ThreadPoolExecutor(max_workers=5) as pool:
        futures = [pool.submit(probe_worker, chunk) for chunk in chunks]
        time.sleep(0.05)  # let probes in flight before the swap lands
        swap_status, swap_response = client.update(
            add_edges=[list(edge)]
        )
        if swap_status != 200:
            raise AssertionError(f"hot swap failed: {swap_response}")
        for future in futures:
            results.extend(future.result())

    old_count = new_count = ambiguous = 0
    for text, row in results:
        if row["status"] != 200:
            raise AssertionError(f"hot-swap probe failed: {row}")
        matches_old = row["answers"] == expected_old[text]
        matches_new = row["answers"] == expected_new[text]
        if matches_old and matches_new:
            ambiguous += 1
        elif matches_old:
            old_count += 1
        elif matches_new:
            new_count += 1
        else:
            raise AssertionError(
                f"torn read during hot swap on {text!r}: answers match "
                f"neither generation"
            )
    changed = [
        text for text in texts if expected_old[text] != expected_new[text]
    ]
    if changed and new_count == 0:
        # Fire one post-swap probe per changed query: the new generation
        # must actually be visible after the swap acknowledges.
        for text in changed:
            row = _fire(client, text)
            if row["status"] != 200 or row["answers"] != expected_new[text]:
                raise AssertionError(
                    f"post-swap answers stale on {text!r}: {row.get('answers')}"
                )
        new_count += len(changed)
    return {
        "probes": len(results),
        "changed_queries": len(changed),
        "old_generation_answers": old_count,
        "new_generation_answers": new_count,
        "generation_ambiguous": ambiguous,
        "swap_generation": swap_response.get("generation"),
        "no_torn_reads": True,
    }


def _drain_section(
    harness: DaemonHarness, client: DaemonClient, texts: list[str], parked: int
) -> dict:
    """Park requests behind a paused dispatcher, shut down, assert drain.

    The parked requests are admitted but unserved when /shutdown lands;
    a clean drain serves all of them (the STOP sentinel queues *behind*
    them) before the daemon exits, within the drain deadline.
    """
    _pause_and_park(client, texts[0])
    with ThreadPoolExecutor(max_workers=parked) as pool:
        futures = [
            pool.submit(_fire, client, texts[index % len(texts)], 30.0)
            for index in range(parked)
        ]
        deadline = time.monotonic() + 10.0
        while client.stats()["queue"]["depth"] < parked:
            if time.monotonic() > deadline:
                raise AssertionError("parked requests never reached the queue")
            time.sleep(0.01)
        start = time.perf_counter()
        harness.stop(client)  # shutdown resumes dispatch and drains
        drain_s = time.perf_counter() - start
        rows = [future.result() for future in futures]
    statuses = sorted({row["status"] for row in rows})
    unresolved = [row for row in rows if row["status"] not in (200, 503, 504)]
    if unresolved:
        raise AssertionError(f"requests left unresolved across drain: {unresolved}")
    drained_clean = harness.daemon.drained_clean
    if drained_clean is not True:
        raise AssertionError(f"daemon exited without a clean drain: {drained_clean}")
    return {
        "parked": parked,
        "drain_s": drain_s,
        "served": sum(1 for row in rows if row["status"] == 200),
        "statuses": statuses,
        "drained_clean": True,
    }


def run_daemon_bench(
    vertices: int = 250,
    edges: int = 2000,
    labels: int = 3,
    k: int = 3,
    seed: int = 7,
    client_threads: int = 8,
    capacity: int = 16,
) -> dict:
    """Run every daemon phase; returns the JSON-ready dict."""
    base = micro_graph(vertices, edges, labels, seed)
    queries = micro_queries(base, seed)
    texts = [query.to_text(base.registry) for query in queries]

    reference = GraphDatabase.from_graph(base.copy()).build_index(engine="cpqx", k=k)
    try:
        expected = _expected_answers(reference, texts)
    finally:
        reference.close()

    # The main daemon: thread mode for deterministic latency phases
    # (chaos gets dedicated process-mode daemons per scenario).
    db = GraphDatabase.from_graph(base.copy()).build_index(engine="cpqx", k=k)
    config = DaemonConfig(
        mode="thread",
        workers=client_threads,
        capacity=capacity,
        default_deadline=30.0,
        drain_deadline=20.0,
    )
    harness = DaemonHarness(db, config)
    client = harness.start()
    try:
        normal = _normal_section(client, texts, expected, client_threads)
        shedding = _shedding_section(client, texts, expected, capacity)
        hot_swap = _hot_swap_section(client, base, k, texts, expected)
        drain = _drain_section(harness, client, texts, parked=8)
    except BaseException:
        harness.stop(client)
        raise
    chaos = _chaos_section(base, k, texts, expected)

    daemon_serving = {
        "capacity": capacity,
        "normal": normal,
        "shedding": shedding,
        "hot_swap": hot_swap,
        "drain": drain,
        "chaos": chaos,
        "identical_answers": True,
        "shed_bounded": True,
        "drained_clean": True,
    }
    return {
        "benchmark": "serve-bench-daemon",
        "host": host_metadata(),
        "note": "latency percentiles are host-dependent; the flags are the gate",
        "workload": {
            "vertices": base.num_vertices,
            "edges": base.num_edges,
            "labels": labels,
            "k": k,
            "seed": seed,
            "queries": len(texts),
        },
        "daemon_serving": daemon_serving,
        "identical_answers": True,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main_bench_daemon(args) -> int:
    """CLI handler for ``repro serve-bench --daemon``."""
    result = run_daemon_bench(
        vertices=args.vertices,
        edges=args.edges,
        labels=args.labels,
        k=args.k,
        seed=args.seed,
        client_threads=args.serve_threads,
    )
    rendered = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        section = result["daemon_serving"]
        normal = section["normal"]
        shedding = section["shedding"]
        drain = section["drain"]
        print(f"wrote {args.out}")
        print(
            f"daemon: {normal['queries']} queries at "
            f"{normal['queries_per_second']:.0f} q/s "
            f"(client p50 {normal['client_p50_ms']:.1f} ms, "
            f"p99 {normal['client_p99_ms']:.1f} ms), identical answers"
        )
        print(
            f"shedding: {shedding['shed']}/{shedding['blast']} shed "
            f"(rate {shedding['shed_rate']:.2f}), queue depth peaked at "
            f"{shedding['max_queue_depth']}/{shedding['capacity']}, "
            f"shed p99 {shedding['shed_p99_ms']:.1f} ms"
        )
        for row in section["chaos"]["scenarios"]:
            opened = row["breaker"]["times_opened"]
            if row["recovery_s"] is not None:
                recovery = f"breaker re-closed in {row['recovery_s']:.2f} s"
            elif opened:
                recovery = f"breaker opened {opened}x, re-closed in-workload"
            else:
                recovery = "no breaker trip"
            print(
                f"chaos {row['scenario']}: {row['failures']} failures, "
                f"{row['worker_restarts']} restarts, {recovery}, daemon survived"
            )
        swap = section["hot_swap"]
        print(
            f"hot swap: {swap['probes']} probes, "
            f"{swap['old_generation_answers']} old / "
            f"{swap['new_generation_answers']} new, no torn reads"
        )
        print(
            f"drain: {drain['served']}/{drain['parked']} parked requests served "
            f"in {drain['drain_s'] * 1000:.0f} ms, drained clean"
        )
    else:
        print(rendered)
    return 0
