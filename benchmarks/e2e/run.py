"""End-to-end benchmark: five workloads, one schema, traced per layer.

Driver form (one workload, one JSON object on the last stdout line)::

    python3 benchmarks/e2e/run.py --workload conj_stream --seed 7 --seconds 10 --trace 0

Human form (every workload, untraced then traced, one output file)::

    python3 benchmarks/e2e/run.py --all --seed 7 --out benchmarks/e2e/out/run.json

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
through the user-facing surface only, with no tracing code installed;
timings of the in-process workloads are in reference seconds (see
"timing on a host whose speed drifts" below).
``--trace 1`` reports the per-layer metrics: half the time budget runs
untraced (the baseline of ``trace.overhead_ratio``), then
:mod:`trace` wraps the layers from outside for one traced pass and the
standalone layer probes.  A per-layer metric a workload does not
exercise reads 0.  README.md next to this file defines every workload
and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

from repro.core import kernels  # noqa: E402
from repro.db import GraphDatabase  # noqa: E402
from repro.query.parser import parse  # noqa: E402
from repro.query.semantics import evaluate  # noqa: E402
from repro.serve.daemon.client import DaemonClient  # noqa: E402



def _sibling(name: str):
    """Load a module of this directory by path.

    ``trace.py`` shares its name with a stdlib module, so a plain import
    would depend on ``sys.path`` order and on who imported first.
    """
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


wl = _sibling("workloads")
Tracer = _sibling("trace").Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
clock = time.perf_counter


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(p / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def tail_percentile(values: list[float], p: float, half_width: float = 0.5) -> float:
    """Percentile ``p`` as the mean of the order statistics within ``half_width`` of it.

    A latency tail is steep: on ``join_stream`` the 10th and the 12th
    slowest of 1,050 positions are 25 % apart, so the nearest-rank p99
    jumped by a fifth whenever the seed's draw put one more heavy
    instance above it (spread across seeds 15-20 %; this mean over the
    98.5th-99.5th percentile: 5-6 %).
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    low = min(last, max(0, round((p - half_width) / 100.0 * last)))
    high = min(last, max(low, round((p + half_width) / 100.0 * last)))
    return statistics.fmean(ordered[low:high + 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_of(counts: dict[str, int]) -> str:
    """sha256 over query text + answer count: equal digests = identical work."""
    sha = hashlib.sha256()
    for text in sorted(counts):
        sha.update(f"{text}\t{counts[text]}\n".encode())
    return sha.hexdigest()


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_metadata(args) -> dict:
    cpus = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    if load1 > 0.5 * cpus:
        print(f"warning: 1-minute load {load1:.2f} exceeds 0.5 x {cpus} cpus; "
              "timings will be noisy", file=sys.stderr)
    return {
        "host": {"cpus": cpus, "platform": platform.platform(), "load1_at_start": load1},
        "python": platform.python_version(),
        "kernels": kernels.active_backend(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "quick" if args.quick else "full",
    }


class Tally:
    """Operations attempted and failed, plus what each distinct query returned."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}
        self.digest: str | None = None
        self.notes: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def seal(self) -> None:
        """Fix ``answers_digest`` (first call wins).

        Called where a run has done a seed-determined amount of work, so
        the digest does not depend on how many passes the time budget
        allowed afterwards.
        """
        if self.digest is None:
            self.digest = digest_of(self.counts)

    def record(self, text: str, count: int) -> None:
        """Every execution of ``text`` must return the same answer count."""
        known = self.counts.setdefault(text, count)
        if known != count:
            self.fail(f"answer count changed for {text}: {known} -> {count}")


def reference_answers(text: str, graph) -> frozenset:
    """``[[q]]_G`` by the paper's semantics (the oracle)."""
    return evaluate(parse(text, graph.registry), graph)


def check_against_reference(db, pool: list[wl.Query], per_template: int, tally: Tally) -> None:
    """Before timing: the first queries of each template, pair for pair."""
    checked: Counter[str] = Counter()
    for query in pool:
        if checked[query.template] >= per_template:
            continue
        checked[query.template] += 1
        tally.attempted += 1
        answers = db.query(query.text).pairs()
        if answers != reference_answers(query.text, db.graph):
            tally.fail(f"{query.template} {query.text}: answers differ from the reference semantics")


# ---------------------------------------------------------------------------
# timing on a host whose speed drifts
# ---------------------------------------------------------------------------
#
# The reference box alternates between a fast state and states up to
# 60 % slower, in phases that last from seconds to minutes.  Loops that
# never touch the program show the same steps; CPU time and wall time
# agree and steal time is zero, so it is the host, not the program.
# Timings of CPU-bound work are therefore reported in *reference
# seconds*: wall seconds divided by the host's slowdown at that moment,
# which a fixed calibration loop, interleaved with the measured
# operations, reads off.

#: Size of the calibration loop, and its duration in the reference box's
#: fast state.  The second constant defines the unit and nothing else.
CALIBRATION_SIZE = 16_000
REFERENCE_S = 0.0064
#: Measured work between two calibrations, in wall seconds.
CALIBRATION_INTERVAL = 0.25


def host_slowdown() -> float:
    """How many times slower than its reference state the host runs right now.

    The loop does what the measured program does — integer arithmetic,
    tuple allocation, hashing into a set, a sort — because the host's
    slow states do not hit arithmetic and memory traffic alike: an
    arithmetic-only loop left 10 % of spread on ``join_stream`` window
    medians where this mix leaves 6 % (raw: 19 %).
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection here would time the program's heap, not the host
    try:
        begin = clock()
        values = [(index * 7919) % 100003 for index in range(CALIBRATION_SIZE)]
        pairs = {(value, value >> 3) for value in values}
        sum(first for first, _ in sorted(pairs))
        return (clock() - begin) / REFERENCE_S
    finally:
        if collecting:
            gc.enable()


class HostScaled:
    """Operation timings converted to reference seconds.

    Operations are added as they complete; about every
    ``CALIBRATION_INTERVAL`` of work the calibration loop runs, and each
    operation is scaled by the mean slowdown of the two calibrations
    around it.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.span_of: list[int] = []
        self.slowdowns = [host_slowdown()]
        self.since = clock()

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.span_of.append(len(self.slowdowns))
        if clock() - self.since >= CALIBRATION_INTERVAL:
            self.slowdowns.append(host_slowdown())
            self.since = clock()

    def seconds(self) -> list[float]:
        """Every added operation, scaled; closes the last span."""
        marks = [*self.slowdowns, host_slowdown()]
        return [
            raw * 2.0 / (marks[span - 1] + marks[min(span, len(marks) - 1)])
            for raw, span in zip(self.raw, self.span_of, strict=True)
        ]


def span(tracer: Tracer | None, name: str, request: int | None = None):
    """A harness-side span, or nothing when the run is untraced (off the hot loop only)."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name, request)


def scaled_call(function):
    """``(reference seconds, result)`` of one long call, calibrated around it."""
    before = host_slowdown()
    begin = clock()
    result = function()
    elapsed = clock() - begin
    return elapsed * 2.0 / (before + host_slowdown()), result


def run_ops(db, texts: list[str], tally: Tally, tracer: Tracer | None = None):
    """One closed-loop pass: text in, materialized answer set out.

    Returns ``(pass seconds, per-op seconds, summed ExecutionStats fields)``,
    times in reference seconds; the pass is the sum of its operations.
    """
    timer = HostScaled()
    stats = dict.fromkeys(STAT_FIELDS, 0)
    answers_total = 0
    gc.collect()
    for number, text in enumerate(texts):
        begin = clock()
        try:
            if tracer is None:
                count = len(db.query(text).pairs())
            else:
                with tracer.span("op", request=number):
                    with tracer.span("session.query"):
                        result = db.query(text)
                    with tracer.span("resultset.pairs"):
                        count = len(result.pairs())
                for field in STAT_FIELDS:
                    stats[field] += getattr(result.stats, field)
                answers_total += count
        except Exception as exc:  # a failed op is counted, never fatal
            tally.fail(f"{text}: {type(exc).__name__}: {exc}")
        else:
            tally.record(text, count)
        timer.add(clock() - begin)
        tally.attempted += 1
    stats["answers"] = answers_total
    latencies = timer.seconds()
    return sum(latencies), latencies, stats


STAT_FIELDS = (
    "lookups", "joins", "class_conjunctions", "pair_conjunctions",
    "classes_touched", "pairs_touched",
)


def repeat_for(seconds: float, minimum: int, one_pass) -> list:
    """Call ``one_pass`` at least ``minimum`` times, then while another fits.

    Passes do identical work, so how many fit changes how many samples
    each median is taken over and nothing else.  ``one_pass`` returns a
    tuple whose first item is the pass's seconds.
    """
    results = []
    deadline = clock() + seconds
    while len(results) < minimum or clock() + results[-1][0] <= deadline:
        results.append(one_pass())
    return results


def per_position(passes: list[list[float]], pick=statistics.median) -> list[float]:
    """One value per position of repeated identical passes (default: the median)."""
    return [pick(samples) for samples in zip(*passes, strict=True)]


def stream_metrics(passes: list[tuple]) -> dict:
    """End-to-end numbers of repeated identical ``run_ops`` passes."""
    latencies = per_position([lats for _, lats, _ in passes])
    pass_s = statistics.median(seconds for seconds, _, _ in passes)
    return {
        "qps": len(latencies) / pass_s,
        "query_p50_ms": 1e3 * percentile(latencies, 50),
        "query_p99_ms": 1e3 * tail_percentile(latencies, 99),
        "pass_s": pass_s,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def span_metrics(totals: dict, names: dict[str, tuple[str, str]]) -> dict:
    """``{metric: totals[span][field]}`` for the spans that were recorded."""
    return {
        metric: totals[span][field]
        for metric, (span, field) in names.items()
        if span in totals
    }


#: Layer metrics read off the traced *pass* (self time unless noted).
PASS_SPANS = {
    "query.parse_s": ("query.parse", "self_s"),
    "query.parse_calls": ("query.parse", "calls"),
    "plan.build_s": ("plan.build", "self_s"),
    "plan.build_calls": ("plan.build", "calls"),
    "executor.execute_s": ("executor.execute", "total_s"),
    "executor.self_s": ("executor.execute", "self_s"),
    "pairset.to_set_s": ("pairset.to_set", "self_s"),
    "pairset.to_set_calls": ("pairset.to_set", "calls"),
    "maintenance.insert_edge_s": ("maintenance.insert_edge", "total_s"),
    "maintenance.insert_edge_calls": ("maintenance.insert_edge", "calls"),
    "maintenance.delete_edge_s": ("maintenance.delete_edge", "total_s"),
    "maintenance.delete_edge_calls": ("maintenance.delete_edge", "calls"),
    "maintenance.reclassify_s": ("maintenance.reclassify", "total_s"),
    "store.write_s": ("store.write", "total_s"),
    "store.open_s": ("store.open", "total_s"),
}
for _layer in ("cpqx.lookup", "cpqx.expand_classes", "cpqx.loop_classes_of"):
    PASS_SPANS[_layer + "_s"] = (_layer, "self_s")
    PASS_SPANS[_layer + "_calls"] = (_layer, "calls")
for _kernel in ("compose", "concat_sorted", "intersect", "union", "difference",
                "from_codes", "column_from_set", "loops"):
    PASS_SPANS[f"kernels.{_kernel}_s"] = (f"kernels.{_kernel}", "self_s")
    PASS_SPANS[f"kernels.{_kernel}_calls"] = (f"kernels.{_kernel}", "calls")

#: Layer metrics read off the traced *set-up*.
SETUP_SPANS = {
    "graph.load_dataset_s": ("graph.load_dataset", "total_s"),
    "graph.interned_s": ("graph.interned", "self_s"),
    "partition.compute_s": ("partition.compute", "total_s"),
}


def pass_layer_metrics(tracer: Tracer, first: int, stats: dict | None) -> dict:
    """Everything the spans from ``first`` on (one traced pass) say about the layers."""
    totals = tracer.totals(first)
    out = span_metrics(totals, PASS_SPANS)
    if "op" in totals:
        op_total = totals["op"]["total_s"]
        outside = sum(totals[name]["self_s"] for name in ("op", "session.query", "resultset.pairs")
                      if name in totals)
        out["session.query_overhead_s"] = outside
        out["trace.span_coverage"] = 1.0 - totals["op"]["self_s"] / op_total if op_total else 0.0
    if stats is not None:
        for field in STAT_FIELDS:
            out[f"executor.{field}"] = stats[field]
        out["executor.pairs_per_answer"] = stats["pairs_touched"] / max(1, stats["answers"])
    return out


def cache_metrics(tracer: Tracer) -> dict:
    """Memo hit/miss counts; the two LRUs are told apart by capacity."""
    from repro.core.executor import EngineBase

    out = {}
    for label, capacity in (
        ("result", getattr(EngineBase, "result_cache_capacity", 256)),
        ("subplan", getattr(EngineBase, "subplan_cache_capacity", 1024)),
    ):
        hits = tracer.counters[f"cache.{capacity}.hit"]
        misses = tracer.counters[f"cache.{capacity}.miss"]
        out[f"cache.{label}_hits"] = hits
        out[f"cache.{label}_misses"] = misses
        out[f"cache.{label}_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Shared set-up: the seeded graph, its CPQx k=2 index, a query pool.

    Subclasses fill in ``make_pool``, ``timed`` (the untraced measurement),
    ``traced`` (one pass under the tracer plus the layer probes) and,
    where needed, ``finish`` (verification after timing) and ``teardown``.
    """

    caching = True

    def __init__(self, args, profile: wl.Profile, tally: Tally, workdir: Path) -> None:
        self.profile = profile
        self.tally = tally
        self.workdir = workdir
        self.seed = args.seed
        self.db: GraphDatabase | None = None
        self.pool: list[wl.Query] = []
        self.build_seconds = 0.0

    # -- set-up ---------------------------------------------------------
    def make_pool(self, graph, rng: random.Random) -> list[wl.Query]:
        raise NotImplementedError

    def setup(self, tracer: Tracer | None = None) -> None:
        """Graph + query generation + index build: what ``setup_s`` times."""
        with span(tracer, "graph.load_dataset"):
            graph = wl.make_graph(self.profile)
        self.pool = self.make_pool(graph, random.Random(self.seed))
        self.db = GraphDatabase.from_graph(graph)

        def build() -> None:
            with span(tracer, "session.build_index"):
                self.db.build_index(engine="cpqx", k=2)

        self.build_seconds, _ = scaled_call(build)
        if not self.caching:
            self.db.engine.set_result_caching(False)

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    def check(self) -> None:
        check_against_reference(self.db, self.pool, self.profile.check_per_template, self.tally)

    def finish(self) -> None:
        """Verification that has to wait until timing is over."""

    def timed(self, seconds: float) -> dict:
        raise NotImplementedError

    def traced(self, tracer: Tracer, baseline: dict) -> dict:
        raise NotImplementedError


class StreamWorkload(Workload):
    """A fixed list of query texts replayed pass after pass, one thread."""

    caching = False
    templates: tuple[str, ...] = ()
    per_template = ""  # name of the Profile field holding the pool size

    def make_pool(self, graph, rng):
        return wl.template_pool(graph, self.templates, getattr(self.profile, self.per_template), rng)

    def setup(self, tracer=None):
        super().setup(tracer)
        self.texts = [query.text for query in self.pool]

    def timed(self, seconds: float) -> dict:
        run_ops(self.db, self.texts, self.tally)  # warm-up pass (fills the memo layers, if on)
        self.tally.seal()
        return stream_metrics(repeat_for(seconds, 3, lambda: run_ops(self.db, self.texts, self.tally)))

    def traced(self, tracer: Tracer, baseline: dict) -> dict:
        first = len(tracer.spans)
        tracer.counters.clear()
        elapsed, _, stats = run_ops(self.db, self.texts, self.tally, tracer)
        out = pass_layer_metrics(tracer, first, stats)
        out.update(cache_metrics(tracer))
        out["trace.overhead_ratio"] = elapsed / baseline["pass_s"]
        return out


class ConjStream(StreamWorkload):
    templates = wl.CONJ_TEMPLATES
    per_template = "conj_per_template"


class JoinStream(StreamWorkload):
    templates = wl.JOIN_TEMPLATES
    per_template = "join_per_template"

    def traced(self, tracer: Tracer, baseline: dict) -> dict:
        out = super().traced(tracer, baseline)
        texts, db = self.texts, self.db

        def batch_qps(batch_texts: list[str], **serve) -> float:
            begin = clock()
            batch = db.serve_batch(batch_texts, **serve) if serve else db.execute_batch(batch_texts)
            elapsed = clock() - begin
            for text, result in zip(batch_texts, batch, strict=True):
                self.tally.attempted += 1
                self.tally.record(text, len(result))
            return len(batch_texts) / elapsed

        # Probes run on halves of the pool.  Workers keep their own memo
        # caches, so the measured process batch must not repeat the
        # queries of the batch that spawned the pool.
        half = len(texts) // 2
        first, second = texts[:half], texts[half:]
        out["session.execute_batch_qps"] = batch_qps(first)
        results = db.execute_batch(second)
        begin = clock()
        for result in results:
            result.to_list()
        out["resultset.to_list_s"] = clock() - begin
        if (os.cpu_count() or 1) < 2:
            self.tally.notes.append("thread/process serving probes skipped: host has 1 cpu; they read 0")
            return out
        out["session.serve_thread2_qps"] = batch_qps(first, workers=2, mode="thread")
        begin = clock()
        batch_qps(first, workers=2, mode="process")  # spawns the pool, ships the index
        out["procserve.first_batch_s"] = clock() - begin
        out["procserve.serve_process2_qps"] = batch_qps(second, workers=2, mode="process")
        pool = getattr(db, "_proc_pool", None)
        out["procserve.shipped_bytes"] = getattr(pool, "shipped_bytes", 0)
        return out


def serving_pool(graph, profile: wl.Profile) -> list[wl.Query]:
    """The pool behind the Zipf cycles; its order is the popularity rank.

    Whether the costliest instances are popular (always cached) or rare
    (a miss every time) decides the stream's cost, so the ranks are the
    same for every seed.
    """
    return wl.template_pool(graph, wl.ALL_TEMPLATES, profile.serve_per_template,
                            random.Random(profile.fixed_seed))


class WarmServe(StreamWorkload):
    """Zipf stream over a pool larger than the result LRU, default caches."""

    caching = True

    def make_pool(self, graph, rng):
        return serving_pool(graph, self.profile)

    def setup(self, tracer=None):
        super().setup(tracer)
        #: One cycle of the request stream.  Replaying it leaves the memo
        #: layers where the previous replay left them, so from the second
        #: replay on every cycle does identical work.
        self.texts = [
            self.pool[index].text
            for index in wl.zipf_cycle(len(self.pool), self.profile.serve_cycle,
                                       self.profile.fixed_seed, self.seed)
        ]


class Lifecycle(Workload):
    """Writes beside reads: open, first touch, single-edge updates, save.

    Every round starts from the same saved store, so every round does
    identical work however many rounds the time budget allows.
    """

    last: GraphDatabase | None = None  # the db of the latest round, kept for ``finish``

    def make_pool(self, graph, rng):
        conj = wl.template_pool(graph, wl.CONJ_TEMPLATES, self.profile.probe_conj_per_template, rng)
        join = wl.template_pool(graph, wl.JOIN_TEMPLATES, self.profile.probe_join_per_template, rng)
        pool = conj + join
        rng.shuffle(pool)
        return pool

    def setup(self, tracer=None):
        super().setup(tracer)
        graph = self.db.graph
        self.script = wl.update_script(graph, self.profile.updates_per_round,
                                       random.Random(self.seed + 2))
        self.edges = graph.num_edges
        self.base = self.workdir / "base.rsx"
        self.db.save(self.base, format="store")
        self.read_counts: list[int] | None = None

    def teardown(self):
        if self.last is not None:
            self.last.close()
            self.last = None
        super().teardown()

    def round(self, tracer: Tracer | None = None) -> tuple[float, dict]:
        """open -> probe batch -> (update -> reads)* -> save, each op timed.

        Returns ``(round seconds, timings by phase)`` in reference seconds.
        """
        if self.last is not None:
            self.last.close()
        texts = [query.text for query in self.pool]
        tally = self.tally
        gc.collect()
        open_s, db = scaled_call(lambda: GraphDatabase.open(self.base))
        first_batch_s, first_reads, _ = run_ops(db, texts, tally, tracer)
        timer = HostScaled()
        is_update: list[bool] = []
        read_counts: list[int] = []
        cursor = 0
        for kind, edge in self.script:
            begin = clock()
            try:
                db.update(**{"add_edges" if kind == "add" else "remove_edges": [edge]})
            except Exception as exc:
                tally.fail(f"update {kind} {edge}: {type(exc).__name__}: {exc}")
            timer.add(clock() - begin)
            is_update.append(True)
            for _ in range(self.profile.reads_per_update):
                text = texts[cursor % len(texts)]
                cursor += 1
                begin = clock()
                try:
                    read_counts.append(len(db.query(text).pairs()))
                except Exception as exc:
                    tally.fail(f"{text}: {type(exc).__name__}: {exc}")
                timer.add(clock() - begin)
                is_update.append(False)
        if self.read_counts is None:
            self.read_counts = read_counts
        elif read_counts != self.read_counts:
            tally.fail("post-update answer counts differ from the first round's")
        save_s, _ = scaled_call(lambda: db.save(self.workdir / "after.rsx", format="store"))
        mixed = timer.seconds()
        tally.attempted += 2 + len(mixed)  # the open, the save, updates and reads
        tally.seal()
        self.last = db
        return open_s + first_batch_s + sum(mixed) + save_s, {
            "open_s": [open_s], "first_batch_s": [first_batch_s], "save_s": [save_s],
            "first_reads": first_reads,
            "updates": [x for x, update in zip(mixed, is_update, strict=True) if update],
            "reads": [x for x, update in zip(mixed, is_update, strict=True) if not update],
        }

    def timed(self, seconds: float) -> dict:
        rounds = repeat_for(seconds, 2, self.round)
        round_s = statistics.median(seconds for seconds, _ in rounds)
        typical = {key: per_position([phases[key] for _, phases in rounds]) for key in rounds[0][1]}
        reads = typical["first_reads"] + typical["reads"]
        return {
            "qps": (2 + len(reads) + len(typical["updates"])) / round_s,
            "query_p50_ms": 1e3 * percentile(reads, 50),
            "query_p99_ms": 1e3 * tail_percentile(reads, 99),
            "pass_s": round_s,
            "lifecycle.build_s": self.build_seconds,
            "lifecycle.save_s": typical["save_s"][0],
            "lifecycle.open_s": typical["open_s"][0],
            "lifecycle.first_batch_s": typical["first_batch_s"][0],
            "lifecycle.update_p50_ms": 1e3 * percentile(typical["updates"], 50),
            "lifecycle.update_p90_ms": 1e3 * percentile(typical["updates"], 90),
            "lifecycle.post_update_query_p50_ms": 1e3 * percentile(typical["reads"], 50),
            "lifecycle.store_bytes_per_edge": self.base.stat().st_size / self.edges,
        }

    def traced(self, tracer: Tracer, baseline: dict) -> dict:
        from repro.query.workloads import workload_interests
        from repro.store import write_generation

        out = {name: value for name, value in baseline.items() if name.startswith("lifecycle.")}
        first = len(tracer.spans)
        tracer.counters.clear()
        round_s, _ = self.round(tracer)
        out.update(pass_layer_metrics(tracer, first, None))
        out.update(cache_metrics(tracer))
        out["trace.overhead_ratio"] = round_s / baseline["pass_s"]
        out["maintenance.affected_pairs"] = tracer.counters["maintenance.affected_pairs.size"]

        graph = self.db.graph
        pairs = self.db.engine.num_pairs
        size = self.base.stat().st_size
        out["store.bytes"] = size
        out["store.bytes_per_pair"] = size / pairs
        out["maintenance.class_growth_ratio"] = self.last.engine.num_classes / self.db.engine.num_classes

        # delta generation: full write of the pristine index, then the delta
        # that the round's updates add on top of it
        spool = self.workdir / "generations"
        spool.mkdir(exist_ok=True)
        probe = GraphDatabase.open(self.base)
        try:
            state = write_generation(probe.engine, spool, None)
            for kind, edge in self.script:
                probe.update(**{"add_edges" if kind == "add" else "remove_edges": [edge]})
            begin = clock()
            delta = write_generation(probe.engine, spool, state)
            out["store.write_generation_s"] = clock() - begin
            out["store.delta_bytes"] = Path(delta.path).stat().st_size
        finally:
            probe.close()

        interests = workload_interests(
            [parse(query.text, graph.registry) for query in self.pool], 2)
        begin = clock()
        aware = GraphDatabase.from_graph(graph).build_index(engine="iacpqx", k=2, interests=interests)
        out["interest.build_s"] = clock() - begin
        aware_path = self.workdir / "interest.rsx"
        aware.save(aware_path, format="store")
        out["interest.store_bytes"] = aware_path.stat().st_size
        aware.close()

        if (os.cpu_count() or 1) < 2:
            self.tally.notes.append("parallel.build_workers2_s skipped: host has 1 cpu; it reads 0")
        else:
            begin = clock()
            sharded = GraphDatabase.from_graph(graph).build_index(engine="cpqx", k=2, workers=2)
            out["parallel.build_workers2_s"] = clock() - begin
            sharded.close()
        return out

    def finish(self) -> None:
        """The lazily maintained index must equal a rebuild on the mutated graph."""
        maintained = self.last
        rebuilt = GraphDatabase.from_graph(maintained.graph.copy()).build_index(engine="cpqx", k=2)
        for query in self.pool:
            self.tally.attempted += 1
            if maintained.query(query.text).pairs() != rebuilt.query(query.text).pairs():
                self.tally.fail(f"{query.text}: maintained index differs from the rebuild")
        rebuilt.close()


class DaemonMixed(Workload):
    """``python -m repro serve`` as a child; two closed-loop HTTP clients."""

    clients = 2
    child: subprocess.Popen | None = None

    def make_pool(self, graph, rng):
        return serving_pool(graph, self.profile)

    def setup(self, tracer=None):
        super().setup(tracer)
        self.lock = threading.Lock()  # the two client threads share the tally
        self.store = self.workdir / "daemon.rsx"
        self.db.save(self.store, format="store")
        port_file = self.workdir / "port"
        port_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        with open(self.workdir / "daemon.log", "ab") as log:
            self.child = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(self.store),
                 "--port-file", str(port_file)],
                env=env, stdout=log, stderr=subprocess.STDOUT, cwd=str(ROOT),
            )
        deadline = time.monotonic() + 120
        while not port_file.exists() or not port_file.read_text().strip():
            if self.child.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon child did not start; see daemon.log")
            time.sleep(0.01)
        self.client = DaemonClient("127.0.0.1", int(port_file.read_text()))
        if not self.client.wait_ready(60):
            raise RuntimeError("daemon child never became ready")
        #: Each client replays its own fixed cycle of the Zipf stream.
        self.cycles = [
            [self.pool[index].text
             for index in wl.zipf_cycle(len(self.pool), self.profile.daemon_cycle,
                                        self.profile.fixed_seed + number, self.seed)]
            for number in range(self.clients)
        ]

    def teardown(self):
        child, self.child = self.child, None
        if child is not None:
            child.send_signal(signal.SIGTERM)
            try:
                child.wait(timeout=20)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        super().teardown()

    def request(self, text: str) -> float:
        """One HTTP round trip; returns its seconds."""
        begin = clock()
        try:
            status, payload = self.client.query(text)
        except (OSError, ValueError) as exc:
            status, payload = 0, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = clock() - begin
        with self.lock:
            self.tally.attempted += 1
            if status == 200:
                self.tally.record(text, payload["count"])
            else:
                self.tally.fail(f"{text}: HTTP {status} {payload.get('error')}")
        return elapsed

    def drive(self, seconds: float, minimum: int, tracer: Tracer | None = None):
        """Closed loop, one thread per client, each replaying its cycle.

        Returns per client the list of ``(cycle seconds, latencies)``.
        """
        replays: list[list[tuple]] = [[] for _ in range(self.clients)]

        def one_cycle(number: int) -> tuple:
            latencies = []
            started = clock()
            for position, text in enumerate(self.cycles[number]):
                with span(tracer, "daemon.request", position * self.clients + number):
                    latencies.append(self.request(text))
            return clock() - started, latencies

        def client_loop(number: int) -> None:
            replays[number] = repeat_for(seconds, minimum, lambda: one_cycle(number))

        threads = [threading.Thread(target=client_loop, args=(n,)) for n in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return replays

    @staticmethod
    def client_metrics(replays: list[list[tuple]]) -> dict:
        latencies = [x for client in replays for x in per_position([lats for _, lats in client], min)]
        return {
            "qps": sum(len(client[0][1]) / min(seconds for seconds, _ in client) for client in replays),
            "query_p50_ms": 1e3 * percentile(latencies, 50),
            "query_p99_ms": 1e3 * tail_percentile(latencies, 99),
        }

    def timed(self, seconds: float) -> dict:
        self.drive(0.0, 1)  # warm-up: one cycle per client
        self.tally.seal()
        out = self.client_metrics(self.drive(seconds, 2))
        out["peak_rss_mb"] = child_peak_rss_mb(self.child.pid)
        return out

    def traced(self, tracer: Tracer, baseline: dict) -> dict:
        from repro.serve.daemon.batching import encode_answers

        before = self.client.stats()
        traced = self.client_metrics(self.drive(0.0, 2, tracer))
        after = self.client.stats()
        batches = after["batches"] - before["batches"]
        completed = after["completed"] - before["completed"]
        client_p50 = traced["query_p50_ms"]
        qps = traced["qps"]
        out = {
            "daemon.server_p50_ms": after["latency"]["p50_ms"] or 0.0,
            "daemon.server_p99_ms": after["latency"]["p99_ms"] or 0.0,
            "daemon.batches": batches,
            "daemon.mean_batch": completed / batches if batches else 0.0,
            "daemon.queue_max_depth": after["queue"]["max_depth"],
            "daemon.shed": after["shed"],
            "daemon.transport_p50_ms": client_p50 - (after["latency"]["p50_ms"] or 0.0),
            "trace.overhead_ratio": baseline["qps"] / qps,
        }
        begin = clock()
        status, _ = self.client.reload(str(self.store))
        out["daemon.reload_ms"] = 1e3 * (clock() - begin)
        self.tally.attempted += 1
        if status != 200:
            self.tally.fail(f"POST /reload answered {status}")

        # the same requests in process: what the network path costs
        texts = [text for cycle in self.cycles for text in cycle]
        run_ops(self.db, texts, self.tally)
        in_process = stream_metrics([run_ops(self.db, texts, self.tally) for _ in range(3)])["qps"]
        out["daemon.inprocess_ratio"] = in_process / qps
        print(f"daemon.inprocess_ratio base: in-process {in_process:.1f} q/s "
              f"over daemon {qps:.1f} q/s", file=sys.stderr)

        answers = [self.db.query(query.text).pairs() for query in self.pool[:300]]
        begin = clock()
        for pairs in answers:
            encode_answers(pairs, None)
        out["daemon.encode_answers_s"] = clock() - begin
        return out

    def finish(self) -> None:
        """Each distinct query's ``count`` over HTTP must equal in-process."""
        for text, count in sorted(self.tally.counts.items()):
            self.tally.attempted += 1
            if len(self.db.query(text).pairs()) != count:
                self.tally.fail(f"{text}: daemon count {count} differs from in-process")


def child_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live child (its ``ru_maxrss`` so far)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


CLASSES = {
    "conj_stream": ConjStream,
    "join_stream": JoinStream,
    "warm_serve": WarmServe,
    "lifecycle": Lifecycle,
    "daemon_mixed": DaemonMixed,
}


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def run_workload(args) -> dict:
    """Set up, check, measure (and trace), verify; returns the result record."""
    profile = wl.PROFILES["quick" if args.quick else "full"]
    tally = Tally()
    meta = run_metadata(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT))
    # Session spools and worker pools use tempfile: keep them in the checkout.
    previous_tmp = (os.environ.get("TMPDIR"), tempfile.tempdir)
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    workload = CLASSES[args.workload](args, profile, tally, workdir)
    tracer = Tracer() if args.trace else None
    measured: dict = {}
    try:
        # Measure on the first set-up, while the heap has seen one build;
        # the repeats that only time ``setup_s`` come afterwards, so their
        # garbage cannot decide ``peak_rss_mb``.
        setup_seconds = [scaled_call(workload.setup)[0]]
        workload.check()
        if tracer is None:
            measured.update(workload.timed(args.seconds))
            measured.setdefault("peak_rss_mb", peak_rss_mb())
            workload.finish()
            for _ in range(profile.setups - 1):
                workload.teardown()
                gc.collect()
                setup_seconds.append(scaled_call(workload.setup)[0])
            measured["setup_s"] = statistics.median(setup_seconds)
        else:
            baseline = workload.timed(args.seconds / 2)
            with tracer.installed():
                measured.update(workload.traced(tracer, baseline))
            workload.finish()
            workload.teardown()
            first = len(tracer.spans)
            with tracer.installed():
                workload.setup(tracer)
            totals = tracer.totals(first)
            measured.update(span_metrics(totals, SETUP_SPANS))
            if "session.build_index" in totals:
                measured["cpqx.build_assembly_s"] = (
                    totals["session.build_index"]["total_s"] - measured.get("partition.compute_s", 0.0)
                )
            tracer.write(OUT / f"trace-{args.workload}.jsonl")
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        tempfile.tempdir = previous_tmp[1]
        if previous_tmp[0] is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = previous_tmp[0]

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in SPEC[kind]:
        value = measured.get(entry["name"])
        if value is None:
            if kind == "end_to_end":
                raise RuntimeError(f"end-to-end metric {entry['name']} was not measured")
            value = 0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    listed = {entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    unlisted = sorted(name for name in measured if name not in listed and name != "pass_s")
    return {
        "workload": args.workload,
        "trace": args.trace,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "answers_digest": tally.digest or digest_of(tally.counts),
        "distinct_queries": len(tally.counts),
        "unlisted_metrics": unlisted,
        "untraced_targets": tracer.missing if tracer else [],
        "notes": tally.notes,
        "meta": meta,
    }


def print_metrics(record: dict) -> None:
    """Every metric by name with its unit, on stderr (stdout ends with the JSON line)."""
    stream = sys.stderr
    print(f"# {record['workload']} trace={record['trace']} attempted={record['attempted']} "
          f"failed={record['failed']} digest={record['answers_digest'][:16]}", file=stream)
    for name, metric in record["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}", file=stream)


def run_all(args) -> int:
    """Every workload in its own process (own peak RSS), untraced then traced."""
    OUT.mkdir(exist_ok=True)
    combined: dict = {"workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = combined["workloads"][name] = {}
        for trace in (0, 1):
            part = OUT / f"part-{os.getpid()}-{name}-{trace}.json"
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(part)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
            if not part.exists():
                print(f"{name} trace={trace}: no result (exit {done.returncode})", file=sys.stderr)
                status = 1
                continue
            record = json.loads(part.read_text(encoding="utf-8"))
            part.unlink()
            combined.setdefault("meta", record["meta"])
            entry["end_to_end" if trace == 0 else "per_layer"] = record.pop("metrics")
            record.pop("meta")
            entry["traced" if trace else "untraced"] = record
            if done.returncode != 0:
                status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke-test size (robots x 0.25)")
    parser.add_argument("--out", help="also write the full result record to this JSON file")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(SPEC["run_seconds"])
    if args.all:
        return run_all(args)
    record = run_workload(args)
    print_metrics(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------------------
# leaving no process behind
# ---------------------------------------------------------------------------
#
# ``teardown`` stops what the workloads start by name (the daemon child,
# the session's worker pool).  Two kinds of process escape it: the
# ``multiprocessing`` resource tracker, which a spawn-context pool
# starts on the side and which outlives its parent by the time it takes
# to notice a closed pipe, and anything a child of ours started and did
# not wait for.  The command-line entry therefore adopts orphans and
# ends only when this process has no child left.

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Have orphaned descendants reparent to this process, so it can reap them."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still reaped


def live_children() -> list[int]:
    """Pids whose parent is this process (zombies included: they still need a wait)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_children() -> None:
    """Stop every child of this process and wait until each has ended."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        # the tracker ignores SIGTERM; closing its pipe is how it is told to end
        with contextlib.suppress(Exception):
            stop()
    for signum, grace in ((None, 2.0), (signal.SIGTERM, 10.0), (signal.SIGKILL, 10.0)):
        pids = live_children()
        if not pids:
            return
        if signum is not None:
            for pid in pids:
                with contextlib.suppress(OSError):
                    os.kill(pid, signum)
        deadline = time.monotonic() + grace
        while pids and time.monotonic() < deadline:
            for pid in pids:
                with contextlib.suppress(OSError):
                    os.waitpid(pid, os.WNOHANG)
            time.sleep(0.01)
            pids = live_children()
    if not live_children():
        return
    print(f"warning: children still alive at exit: {live_children()}", file=sys.stderr)


def terminated(signum, frame) -> None:
    """SIGTERM unwinds through the ``finally`` blocks instead of skipping them."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes order sets, set order shapes the allocation pattern, and
        # with it the peak RSS: 251 MB or 298 MB on warm_serve, by hash seed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    adopt_orphans()
    signal.signal(signal.SIGTERM, terminated)
    try:
        status = main()
    finally:
        reap_children()
    sys.exit(status)
