"""Sharded parallel index construction along the source-vertex axis.

The paper reports CPQx construction as the dominant cost (Table IV), and
the per-source batched ``L≤k`` derivation of
:func:`repro.core.paths.sequence_targets_from_source` made every builder
in this package embarrassingly parallel along one axis: **the interned
source-vertex id**.  Each s-t pair, label-sequence posting, and
representative ``L≤k`` derivation is anchored at exactly one source, so
partitioning the source ids partitions the work with no shared state —
the same axis secondary-memory RDF indexing shards on.

The scheme:

1. the parent partitions sorted source ids round-robin into
   ``workers × SHARDS_PER_WORKER`` shards (round-robin balances degree
   skew better than contiguous ranges);
2. a ``multiprocessing`` pool receives the graph once per worker
   (pickled through the pool initializer, the interned adjacency
   snapshot rebuilt worker-side) and maps the shard tasks;
3. workers ship back per-shard results keyed by class id or label
   sequence, with pair codes packed in ``array('q')`` columns — flat
   64-bit buffers that pickle to raw bytes, not object graphs;
4. the parent merges: shards anchor disjoint source ids, so per-key
   columns concatenate duplicate-free and one sort restores the
   canonical sorted-column form.

Merging is deterministic, so a sharded build is **pair-for-pair
identical** to the serial build — property-tested in
``tests/test_parallel_build.py``.  Engines opt in
through a ``workers`` build argument (default 1 = serial, ``"auto"`` =
one worker per CPU), plumbed through
:meth:`repro.db.GraphDatabase.build_index`, the engine registry, and the
CLI.

Workers select the same kernel backend as the parent: backend choice
is exported through ``os.environ[REPRO_KERNELS]``
(:func:`repro.core.kernels.set_backend`), which both spawn- and
fork-started children read at their own ``repro.core.kernels`` import —
a sharded build never mixes merge-loop and vectorized shards by
accident.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from multiprocessing.connection import Connection
from typing import TypeVar

from repro.core import kernels
from repro.core.pairset import PairSet
from repro.core.paths import sequence_codes_from_sources, sequence_targets_from_source
from repro.errors import IndexBuildError
from repro.graph.digraph import LabeledDigraph
from repro.graph.interner import ID_BITS, InternedView
from repro.graph.labels import LabelSeq

#: Shards handed out per worker — over-decomposition so a worker that
#: drew a low-degree shard picks up another instead of idling.
SHARDS_PER_WORKER = 4


def _start_method() -> str:
    """Pool start method for a :func:`parallel_map` build, chosen per call.

    ``fork`` ships the parent's state to workers for free, but forking
    a multi-threaded process is a deadlock hazard (and deprecated on
    Python 3.12+) — e.g. an ``update()``-triggered parallel rebuild
    while ``serve_batch`` reader threads are alive.  In that case fall
    back to ``spawn`` (always available), which re-imports the package
    in each worker and pickles the graph through the initializer.

    The thread-count check is inherently racy (a reader thread may start
    between the check and the fork), so this heuristic is only used for
    the one-shot build pools, which sessions construct under the
    exclusive side of their RWLock — never with readers in flight.
    :class:`WorkerPool`, which *is* constructed under live readers by
    the process-serving path, always uses ``spawn`` instead.
    """
    if (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return "fork"
    return "spawn"


_T = TypeVar("_T")


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a ``workers`` build argument to a positive int.

    ``None``/``1`` mean serial, ``"auto"`` means one worker per CPU.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers != "auto":
            raise IndexBuildError(f"workers must be a positive int or 'auto', got {workers!r}")
        return os.cpu_count() or 1
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise IndexBuildError(f"workers must be a positive int or 'auto', got {workers!r}")
    return workers


def shard_round_robin(items: Sequence[_T], num_shards: int) -> list[list[_T]]:
    """Deal ``items`` round-robin into at most ``num_shards`` shards.

    Input order should be deterministic (callers pass sorted ids);
    empty shards are dropped so every task does work.
    """
    if num_shards < 1:
        raise IndexBuildError(f"num_shards must be >= 1, got {num_shards}")
    shards = [list(items[offset::num_shards]) for offset in range(num_shards)]
    return [shard for shard in shards if shard]


def merge_code_columns(parts: Iterable[array]) -> array:
    """Concatenate disjoint shard columns and sort into one column.

    Shards anchor disjoint source ids, so the concatenation is
    duplicate-free; one sort restores the canonical form
    :class:`PairSet` stores.
    """
    return kernels.concat_sorted(parts)


# ---------------------------------------------------------------------------
# worker-side state and task functions (top level: they must pickle)
# ---------------------------------------------------------------------------

#: The build graph, installed once per worker by the pool initializer.
_WORKER_GRAPH: LabeledDigraph | None = None

#: The chaos-run fault injector, if any (``None`` in production builds).
_WORKER_INJECTOR: object | None = None


def _init_worker(graph: LabeledDigraph, injector: object | None = None) -> None:
    global _WORKER_GRAPH, _WORKER_INJECTOR
    _WORKER_GRAPH = graph
    _WORKER_INJECTOR = injector


def _worker_view() -> InternedView:
    if _WORKER_GRAPH is None:  # pragma: no cover - initializer always ran
        raise IndexBuildError("parallel build worker has no graph installed")
    return _WORKER_GRAPH.interned()


def derive_class_sequences(
    view: InternedView,
    k: int,
    anchored_by_source: Iterable[tuple[int, Iterable[tuple[int, int]]]],
) -> dict[int, frozenset[LabelSeq]]:
    """CPQx representative ``L≤k`` derivation (Algorithm 2's loop).

    ``anchored_by_source`` lists, per source vertex, the classes whose
    representative pair is anchored there with the representative's
    target id.  One per-source BFS table serves every class anchored at
    that source (Def. 4.2 uniformity).  The single implementation
    behind both the serial build (:meth:`CPQxIndex.build`) and the
    sharded workers — the sharded == serial contract depends on them
    never diverging.
    """
    sequences: dict[int, frozenset[LabelSeq]] = {}
    for source, anchored in anchored_by_source:
        table = sequence_targets_from_source(view, source, k)
        rows = table.items()
        for class_id, target in anchored:
            sequences[class_id] = frozenset(seq for seq, ids in rows if target in ids)
    return sequences


def _class_sequences_shard(
    task: tuple[int, list[tuple[int, list[tuple[int, int]]]]],
) -> dict[int, tuple[LabelSeq, ...]]:
    """Worker wrapper over :func:`derive_class_sequences` for one shard.

    Task: ``(k, [(source, [(class_id, target), ...]), ...])``; the
    frozensets are shipped back as tuples (smaller pickles).
    """
    k, anchored_by_source = task
    derived = derive_class_sequences(_worker_view(), k, anchored_by_source)
    return {class_id: tuple(seqs) for class_id, seqs in derived.items()}


def _sequence_postings_shard(
    task: tuple[int, list[int]],
) -> dict[LabelSeq, array]:
    """Path-index enumeration for one shard of source ids.

    Task: ``(k, sources)``.  Returns sequence → column of pair codes
    anchored at the shard's sources (each source's targets are a set,
    and sources are disjoint across shards, so columns concatenate
    duplicate-free in the parent).
    """
    k, sources = task
    view = _worker_view()
    columns: dict[LabelSeq, array] = {}
    for source in sources:
        v_high = source << ID_BITS
        for seq, targets in sequence_targets_from_source(view, source, k).items():
            column = columns.get(seq)
            if column is None:
                column = columns[seq] = array("q")
            # Shard-local order is irrelevant: merge_code_columns sorts
            # and dedupes every merged column before assembly.
            column.extend(v_high | target for target in targets)  # repro-lint: disable=RPR004
    return columns


def _interest_relations_shard(
    task: tuple[tuple[LabelSeq, ...], list[int]],
) -> dict[LabelSeq, array]:
    """iaCPQx/iaPath relation sweep for one shard of source ids.

    Task: ``(interest sequences, sources)``.  Returns each interest's
    relation column restricted to the shard's sources, via the same
    traversal the serial sweep uses
    (:func:`repro.core.paths.sequence_codes_from_sources`).
    """
    seqs, sources = task
    view = _worker_view()
    out: dict[LabelSeq, array] = {}
    for seq in seqs:
        column = sequence_codes_from_sources(view, sources, seq)
        if column:
            out[seq] = column
    return out


def _run_shard(payload: tuple[Callable, object]) -> tuple[str, object]:
    """Worker-side wrapper: run one shard task, ship a tagged outcome.

    A shard failure must not abort the whole build — the PR 7
    fault-tolerance contract is that a fault costs one shard one retry,
    never the build — so exceptions are tagged (``("err", traceback)``)
    instead of propagating through ``Pool.map``, and the parent decides
    between in-pool retry and serial recomputation
    (:func:`parallel_map`).  Under a chaos-run injector the
    ``build.shard`` site fires here, upstream of the real task.
    """
    import traceback

    worker, task = payload
    try:
        if _WORKER_INJECTOR is not None:
            _WORKER_INJECTOR.fail("build.shard")  # type: ignore[attr-defined]
        return ("ok", worker(task))
    except Exception:
        return ("err", traceback.format_exc())


def _recompute_serially(
    graph: LabeledDigraph,
    worker: Callable,
    task: object,
    shard: int,
    attempts: int,
    reason: object,
) -> object:
    """Last-resort serial recomputation of one failed shard, in-parent.

    Installs the graph under the worker-state global the shard task
    functions read (restoring it afterwards) and runs the task with no
    fault injection — the recovery of last resort must not itself be
    chaos-tested away.  Since the task function is the same code the
    pool ran, the recomputed shard is value-identical to a successful
    parallel run, preserving the sharded == serial fingerprint contract.
    """
    global _WORKER_GRAPH, _WORKER_INJECTOR
    previous_graph, previous_injector = _WORKER_GRAPH, _WORKER_INJECTOR
    _WORKER_GRAPH, _WORKER_INJECTOR = graph, None
    try:
        return worker(task)
    except Exception as exc:
        raise IndexBuildError(
            f"shard failed in the worker pool and its serial recomputation "
            f"also failed; pool-side failure was:\n{reason}",
            shard=shard,
            attempts=attempts + 1,
        ) from exc
    finally:
        _WORKER_GRAPH, _WORKER_INJECTOR = previous_graph, previous_injector


# ---------------------------------------------------------------------------
# parent-side drivers
# ---------------------------------------------------------------------------

#: In-pool re-dispatches per failed shard before the serial fallback.
SHARD_RETRIES = 1


def parallel_map(
    graph: LabeledDigraph,
    worker: Callable,
    tasks: list,
    workers: int,
) -> list:
    """Map shard ``tasks`` over a worker pool sharing ``graph``.

    The graph ships once per worker through the pool initializer (its
    interned snapshot is dropped from the pickle and rebuilt
    worker-side); results come back in task order, so downstream merges
    are deterministic.

    Fault tolerance (PR 7): tasks run through the tagged
    :func:`_run_shard` wrapper, so a shard that raises worker-side does
    not abort the build — it is retried in the pool
    (:data:`SHARD_RETRIES` times) and then recomputed serially in the
    parent, which by construction yields the same value a healthy worker
    would have (asserted fingerprint-identical by the chaos tests).
    Only a shard that fails *serially too* raises, as a structured
    :class:`~repro.errors.IndexBuildError` chaining the original
    worker-side traceback.
    """
    from repro.serve.faults import current_injector

    injector = current_injector()
    payloads = [(worker, task) for task in tasks]
    context = multiprocessing.get_context(_start_method())
    with context.Pool(
        processes=min(workers, len(tasks)) or 1,
        initializer=_init_worker,
        initargs=(graph, injector),
    ) as pool:
        tagged = pool.map(_run_shard, payloads)
        results: list = []
        for shard, (tag, value) in enumerate(tagged):
            attempts = 1
            while tag == "err" and attempts <= SHARD_RETRIES:
                if injector is not None:
                    injector.note("shard.retried")
                tag, value = pool.apply(_run_shard, (payloads[shard],))
                attempts += 1
            if tag == "err":
                if injector is not None:
                    injector.note("shard.serial_fallback")
                value = _recompute_serially(graph, worker, tasks[shard], shard, attempts, value)
            results.append(value)
        return results


class WorkerPool:
    """Persistent pipe-connected worker processes, safe under live readers.

    The reusable machinery behind both level-synchronized builds
    (:func:`shard_processes`, used by the parallel k-path-bisimulation
    refinement of :func:`repro.core.partition.compute_partition_codes`)
    and the process-based serving pool
    (:class:`repro.serve.ProcessServingPool`): one **persistent**
    process per task (each task ships once, through the process
    arguments) with a duplex pipe per worker, in task order, over which
    the caller runs its message exchange.

    ``target(task, connection)`` owns the child side; it must close the
    connection when done (and should ship failures through it — an
    unexpectedly closed pipe surfaces parent-side as ``EOFError``).

    The pool always uses the ``spawn`` start context, explicitly: it is
    constructed at arbitrary points of a session's life — including
    under live ``serve_batch`` reader threads — where forking a
    multi-threaded process would be a deadlock hazard, and any
    thread-count heuristic (see :func:`_start_method`) is racy.
    ``spawn`` re-imports the package in each worker and pickles the
    task through the process arguments, which is deterministic and
    fork-safe everywhere.

    :meth:`close` (or exiting the context manager) closes the parent
    pipe ends first, so workers still blocked in ``recv`` unblock with
    ``EOFError`` instead of deadlocking, then joins every process (and
    terminates stragglers after a grace period).
    """

    def __init__(
        self,
        target: Callable,
        tasks: Sequence[object],
        join_timeout: float = 10.0,
    ) -> None:
        self._join_timeout = join_timeout
        context = multiprocessing.get_context("spawn")
        #: One duplex parent-side connection per worker, in task order.
        self.connections: list[Connection] = []
        self._processes: list = []
        try:
            for task in tasks:
                parent_end, child_end = context.Pipe(duplex=True)
                process = context.Process(target=target, args=(task, child_end), daemon=True)
                process.start()
                child_end.close()
                self.connections.append(parent_end)
                self._processes.append(process)
        except Exception:  # pragma: no cover - spawn failure is environmental
            self.close()
            raise

    def __len__(self) -> int:
        return len(self._processes)

    def alive(self) -> bool:
        """Whether every worker process is still running."""
        return all(process.is_alive() for process in self._processes)

    def close(self) -> None:
        """Unblock, join, and (if need be) terminate every worker."""
        for connection in self.connections:
            with contextlib.suppress(OSError):  # close is best-effort
                connection.close()
        for process in self._processes:
            process.join(timeout=self._join_timeout)
        for process in self._processes:  # pragma: no cover - crash-path cleanup
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@contextmanager
def shard_processes(
    worker: Callable,
    tasks: list,
) -> Iterator[list[Connection]]:
    """Persistent pipe-connected shard workers for level-synchronized maps.

    Where :func:`parallel_map` fits one-shot shard tasks, some
    algorithms — the parallel k-path-bisimulation refinement
    (:func:`repro.core.partition.compute_partition_codes`) — alternate
    per-level local work with a global merge, and re-shipping worker
    state every level would swamp the compute it saves.  A thin
    context-manager view over :class:`WorkerPool` yielding the duplex
    pipes, one per worker, in task order.
    """
    pool = WorkerPool(worker, tasks)
    try:
        yield pool.connections
    finally:
        pool.close()


def _enumeration_sources(view: InternedView) -> list[int]:
    """Live source ids with at least one extended out-edge, sorted."""
    out = view.out
    return [vid for vid in view.live_ids if out[vid]]


def derive_class_sequences_parallel(
    graph: LabeledDigraph,
    k: int,
    by_source: dict[int, list[tuple[int, int]]],
    workers: int,
) -> dict[int, frozenset[LabelSeq]]:
    """Sharded CPQx ``class_sequences`` derivation (Algorithm 2's loop).

    ``by_source`` groups ``(class_id, representative target)`` anchors
    by representative source, exactly as the serial builder does; the
    shards partition those groups.  Content-identical to the serial
    loop: each class's sequences come from the same per-source table.
    """
    anchored = sorted((source, anchors) for source, anchors in by_source.items())
    shards = shard_round_robin(anchored, min(workers * SHARDS_PER_WORKER, len(anchored)))
    results = parallel_map(graph, _class_sequences_shard, [(k, shard) for shard in shards], workers)
    merged: dict[int, frozenset[LabelSeq]] = {}
    for part in results:
        for class_id, seqs in part.items():
            merged[class_id] = frozenset(seqs)
    return merged


def enumerate_sequences_codes_parallel(
    graph: LabeledDigraph, k: int, workers: int
) -> dict[LabelSeq, PairSet]:
    """Sharded :func:`repro.core.paths.enumerate_sequences_codes`.

    Every (sequence, pair) posting is anchored at the pair's source
    vertex, so the union over per-source BFS tables equals the serial
    frontier-extension enumeration, pair for pair.
    """
    view = graph.interned()
    sources = _enumeration_sources(view)
    if not sources:
        return {}
    shards = shard_round_robin(sources, min(workers * SHARDS_PER_WORKER, len(sources)))
    parts = parallel_map(graph, _sequence_postings_shard, [(k, shard) for shard in shards], workers)
    columns: dict[LabelSeq, list[array]] = {}
    for part in parts:
        for seq, column in part.items():
            columns.setdefault(seq, []).append(column)
    interner = graph.interner
    return {
        seq: PairSet.from_sorted_codes(merge_code_columns(cols), interner)
        for seq, cols in columns.items()
    }


def interest_relations_parallel(
    graph: LabeledDigraph,
    interests: Iterable[LabelSeq],
    workers: int,
) -> dict[LabelSeq, array]:
    """Sharded per-interest relation sweep for the ia* builders.

    Returns each interest's full relation as a sorted code column —
    byte-identical to ``sequence_relation_codes(graph, seq).codes`` —
    assembled from per-shard columns restricted to disjoint source sets.
    """
    view = graph.interned()
    sources = _enumeration_sources(view)
    seqs = tuple(sorted(interests))
    if not sources or not seqs:
        return {}
    shards = shard_round_robin(sources, min(workers * SHARDS_PER_WORKER, len(sources)))
    parts = parallel_map(
        graph,
        _interest_relations_shard,
        [(seqs, shard) for shard in shards],
        workers,
    )
    columns: dict[LabelSeq, list[array]] = {}
    for part in parts:
        for seq, column in part.items():
            columns.setdefault(seq, []).append(column)
    return {seq: merge_code_columns(cols) for seq, cols in columns.items()}


# ---------------------------------------------------------------------------
# build-equivalence fingerprinting (bench + property tests)
# ---------------------------------------------------------------------------


def index_fingerprint(engine: object) -> tuple:
    """A canonical, id-independent fingerprint of a built index.

    Two builds of the same graph fingerprint equal iff they store the
    same postings: class-based engines compare the *set* of classes
    (member code column, uniform sequence set, loop flag) plus the
    sequence → member-columns map, so renumbered-but-identical class
    ids still compare equal; Path-family engines compare the sequence →
    code-column map directly.
    """
    entries = getattr(engine, "_entries", None)
    if entries is not None:  # Path / iaPath
        return (
            "path",
            engine.k,  # type: ignore[attr-defined]
            tuple(sorted((seq, tuple(stored.codes)) for seq, stored in entries.items())),
        )
    ic2p = getattr(engine, "_ic2p", None)
    if ic2p is None:
        raise IndexBuildError(f"cannot fingerprint engine {type(engine).__name__}")
    sequences = engine._class_sequences  # type: ignore[attr-defined]
    loops = engine._loop_classes  # type: ignore[attr-defined]
    classes = frozenset(
        (
            tuple(members.codes),
            tuple(sorted(sequences[class_id])),
            class_id in loops,
        )
        for class_id, members in ic2p.items()
    )
    il2c = frozenset(
        (seq, frozenset(tuple(ic2p[c].codes) for c in posted))
        for seq, posted in engine._il2c.items()  # type: ignore[attr-defined]
    )
    return ("classes", engine.k, classes, il2c)  # type: ignore[attr-defined]
