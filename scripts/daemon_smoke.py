#!/usr/bin/env python
"""CI smoke for ``repro serve``: a real process, a real SIGTERM.

The in-process tests cover the daemon's logic; this script covers the
operational story end to end, the way a supervisor would see it:

1. build an index for a pinned random graph and save it;
2. ``repro serve <index> --port-file ...`` as a *subprocess*;
3. wait for readiness over HTTP, serve the full serving stream, and
   assert every answer equals the serial ``execute_batch`` encoding;
4. send SIGTERM mid-traffic with requests parked behind a paused
   dispatcher, and assert the daemon answers everything admitted,
   exits 0 within the drain deadline, and never restarts.

Exit code 0 means the daemon boots, serves identically, and dies
gracefully on the signal contract; anything else fails the CI job.

Usage: ``PYTHONPATH=src python scripts/daemon_smoke.py [--keep-tmp]``
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.db import GraphDatabase  # noqa: E402
from repro.graph.generators import random_graph  # noqa: E402
from repro.query.workloads import serving_queries  # noqa: E402
from repro.serve.daemon import DaemonClient  # noqa: E402
from repro.serve.daemon.batching import encode_answers  # noqa: E402

BOOT_DEADLINE_S = 60.0
DRAIN_DEADLINE_S = 10.0


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def wait_for_port(port_file: Path, process: subprocess.Popen) -> int:
    deadline = time.monotonic() + BOOT_DEADLINE_S
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(f"daemon exited during boot with code {process.returncode}")
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        time.sleep(0.05)
    fail("daemon never wrote its port file")
    raise AssertionError  # unreachable


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-daemon-smoke-"))
    index_path = tmp / "smoke.idx"
    port_file = tmp / "port"

    print("building the pinned smoke index ...")
    graph = random_graph(120, 800, 3, seed=7)
    queries = serving_queries(graph, seed=7)
    texts = [query.to_text(graph.registry) for query in queries]
    db = GraphDatabase.from_graph(graph).build_index(engine="cpqx", k=2)
    # Serial ground truth per query text, in the daemon's wire encoding.
    batch = db.execute_batch(texts)
    expected = {
        text: encode_answers(result.pairs(), None)
        for text, result in zip(texts, batch.results, strict=True)
    }
    db.save(str(index_path))
    db.close()

    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(index_path),
            "--port-file", str(port_file),
            "--mode", "thread",
            "--capacity", "32", "--drain-deadline", str(DRAIN_DEADLINE_S),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        port = wait_for_port(port_file, process)
        client = DaemonClient("127.0.0.1", port)
        if not client.wait_ready(BOOT_DEADLINE_S):
            fail("daemon never became ready")
        print(f"daemon up on port {port}; serving {len(texts)} queries ...")

        with ThreadPoolExecutor(max_workers=8) as pool:
            rows = list(pool.map(lambda text: (text, client.query(text)), texts))
        mismatched = [
            text
            for text, (status, payload) in rows
            if status != 200 or payload["answers"] != expected[text]
        ]
        if mismatched:
            fail(f"daemon answers differ from execute_batch on: {mismatched[:5]}")
        print("all answers identical to serial execute_batch")

        # SIGTERM with work parked: pause dispatch (one flush request
        # proves the pause landed), park admissions, then signal.
        client.pause()
        status, _ = client.query(texts[0], timeout=30.0)
        if status != 200:
            fail("flush request after pause did not serve")
        with ThreadPoolExecutor(max_workers=6) as pool:
            parked = [
                pool.submit(client.query, texts[index], 30.0) for index in range(6)
            ]
            deadline = time.monotonic() + 10.0
            while client.stats()["queue"]["depth"] < 6:
                if time.monotonic() > deadline:
                    fail("parked requests never reached the admission queue")
                time.sleep(0.02)
            print("sending SIGTERM with 6 requests parked ...")
            process.send_signal(signal.SIGTERM)
            statuses = [future.result()[0] for future in parked]
        if any(status != 200 for status in statuses):
            fail(f"parked requests not served across SIGTERM: {statuses}")
        print("all parked requests answered during the graceful drain")

        try:
            process.wait(timeout=DRAIN_DEADLINE_S + 15.0)
        except subprocess.TimeoutExpired:
            process.kill()
            fail("daemon did not exit within the drain deadline after SIGTERM")
        if process.returncode != 0:
            fail(f"daemon exited {process.returncode} (expected a clean drain)")
        print("daemon exited 0 after SIGTERM; smoke passed")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
        output = process.stdout.read() if process.stdout else ""
        if output:
            print("--- daemon output ---")
            print(output.rstrip())


if __name__ == "__main__":
    raise SystemExit(main())
