"""k-path-bisimulation partitioning of s-t pairs (Algorithm 1).

The paper partitions ``P≤k`` into CPQ_k-equivalence classes using
k-path-bisimulation (Def. 4.1) computed bottom-up (Sec. IV-C): level-1
blocks group pairs by their direct edge labels, and level-``i`` blocks
refine level-``i-1`` blocks by the *decompositions* of each pair — the set
of ``(block of (v,m) at level i-1, block of (m,u) at level 1)`` over all
midpoints ``m``.

We realize the paper's "sequence of block identifiers
``⟨b1(v,u),…,bk(v,u)⟩``" as **cumulative class ids**: the level-``i``
signature folds the pair's level-``i-1`` class in, so the level-``k`` id
alone identifies the full sequence.  This sidesteps the ``Null``-block
bookkeeping of the pseudo-code while producing a partition at least as
fine as the paper's — and any refinement of a correct partition is still
correct for the index (the paper's own lazy maintenance relies on this,
Prop. 4.2).  The two invariants index correctness actually needs — all
pairs of a class share the same ``L≤k`` set, and agree on ``v == u`` —
are enforced by construction and property-tested.

The computation runs entirely in the interned code space: pairs are
64-bit codes, decompositions pack ``(prev_class, edge_class)`` into one
int, and signatures hash ints instead of nested tuples.
:func:`compute_partition` decodes the result for the public tuple-based
API; the index builders consume :func:`compute_partition_codes` directly.

**Parallel refinement** (``workers`` > 1): every structure a level
touches is anchored at the pair's *source id* — pair ``(v, m)`` only
ever composes into pairs ``(v, u)`` with the same source ``v`` — so the
source axis shards the refinement sweep with no shared mutable state,
exactly as the index builders shard (:mod:`repro.core.parallel`).  Each
persistent worker process owns one round-robin shard of sources and
keeps its pair → class map *local* across levels; per level it ships
only a packed signature table (``array('q')`` columns) to the parent,
which unifies signatures into global class ids and broadcasts back one
small remap array per shard.  The only globally shared inputs — the
level-1 partition and its class-annotated adjacency — are static across
levels and ship once at worker start.  A final canonical renumbering
(classes ordered by smallest member code) makes the result *identical*
to the serial build, class ids included; graphs below
:data:`PARALLEL_MIN_PAIRS` level-1 pairs fall back to the serial loop,
whose per-level cost is smaller than the worker round-trip.
"""

from __future__ import annotations

import contextlib
import traceback
from array import array
from dataclasses import dataclass
from multiprocessing.connection import Connection

from repro.core import kernels
from repro.core.pairset import PairSet
from repro.core.parallel import resolve_workers, shard_processes, shard_round_robin
from repro.errors import IndexBuildError
from repro.graph.digraph import LabeledDigraph, Pair
from repro.graph.interner import ID_BITS, ID_HIGH_MASK, ID_MASK, VertexInterner

#: A level signature: ``(previous class, loop flag, decomposition set)``.
#: ``previous class`` is ``-1`` for pairs first reached at this level.
_Signature = tuple[int, int, frozenset[int]]

#: Minimum level-1 pair count for the sharded parallel refinement.
#: Below it the per-level worker round-trip (process start, signature
#: shipping, remap broadcast) exceeds the serial per-level cost, so
#: ``workers`` is quietly ignored.
PARALLEL_MIN_PAIRS = 2048


@dataclass
class PathPartition:
    """The CPQ_k-equivalence partition of the non-empty-path pairs.

    Attributes:
        k: the path-length bound the partition was computed for.
        class_of: pair → class id, over all pairs with a path of length 1..k.
        blocks: class id → sorted list of member pairs.
        loop_classes: ids of classes whose pairs are loops (``v == u``).
        level_class_counts: number of blocks per level (diagnostics; the
            per-level growth is what Fig. 3's two rows illustrate).
    """

    k: int
    class_of: dict[Pair, int]
    blocks: dict[int, list[Pair]]
    loop_classes: frozenset[int]
    level_class_counts: list[int]

    @property
    def num_classes(self) -> int:
        """``|C|``, the paper's class-count statistic (Table III)."""
        return len(self.blocks)

    @property
    def num_pairs(self) -> int:
        """``|P≤k|`` restricted to non-empty paths."""
        return len(self.class_of)


@dataclass
class CodePartition:
    """The same partition in columnar form (pair codes, not tuples)."""

    k: int
    class_of: dict[int, int]
    blocks: dict[int, PairSet]
    loop_classes: frozenset[int]
    level_class_counts: list[int]

    @property
    def num_classes(self) -> int:
        return len(self.blocks)

    @property
    def num_pairs(self) -> int:
        return len(self.class_of)


def _level1_code_classes(graph: LabeledDigraph) -> dict[int, int]:
    """Level-1 partition over pair codes: ``(v==u, L1(v,u))`` grouping.

    This realizes Def. 4.1 conditions (1) and (2): two pairs are
    1-path-bisimilar iff they agree on loop-ness and on the extended edge
    labels between them (the inverse-extension makes condition 2's
    both-direction clauses a single label-set comparison).
    """
    view = graph.interned()
    label_sets: dict[int, set[int]] = {}
    for vid, uid, lab in view.triples:
        code = (vid << ID_BITS) | uid
        entry = label_sets.get(code)
        if entry is None:
            label_sets[code] = {lab}
        else:
            entry.add(lab)
        inverse_code = (uid << ID_BITS) | vid
        entry = label_sets.get(inverse_code)
        if entry is None:
            label_sets[inverse_code] = {-lab}
        else:
            entry.add(-lab)
    ids: dict[tuple[bool, frozenset[int]], int] = {}
    classes: dict[int, int] = {}
    for code, labels in label_sets.items():
        signature = ((code >> ID_BITS) == (code & ID_MASK), frozenset(labels))
        class_id = ids.setdefault(signature, len(ids))
        classes[code] = class_id
    return classes


def level1_classes(graph: LabeledDigraph) -> dict[Pair, int]:
    """Level-1 partition, decoded to vertex pairs (public API)."""
    decode = graph.interner.decode_pair
    return {decode(code): class_id for code, class_id in _level1_code_classes(graph).items()}


def _class_annotated_adjacency(level1: dict[int, int], num_ids: int) -> list[list[tuple[int, int]]]:
    """Level-1 adjacency annotated with classes: ``m → [(u, C1(m, u))]``.

    Static across levels — built once, reused by every level's
    composition step (and shipped once to each partition worker).
    """
    annotated: list[list[tuple[int, int]]] = [[] for _ in range(num_ids)]
    for code, class_id in level1.items():
        annotated[code >> ID_BITS].append((code & ID_MASK, class_id))
    return annotated


def _refine_level(
    current: dict[int, int],
    edge_class_by_source: list[list[tuple[int, int]]],
) -> tuple[dict[int, int], list[_Signature]]:
    """One refinement level of Algorithm 1 over one shard of pairs.

    Composes every pair ``(v, m)`` of ``current`` with the
    class-annotated level-1 edges out of ``m`` (decomposition entries
    pack ``prev_class << 32 | edge_class`` into single ints, so each
    level hashes flat integers rather than nested tuples) and re-groups
    the resulting pairs by ``(previous class, loop flag, decomposition
    set)``.  Returns the pair → signature-id map (ids dense, in
    first-seen order) and the signature table in id order.

    The per-level work is ``O(d · |P≤i-1|)`` plus the grouping, matching
    Theorem 4.3's bound (grouping here is a hash aggregation rather than
    the paper's sort — same asymptotics, simpler in Python).  This is
    the single implementation behind both the serial loop and the
    sharded partition workers — the parallel == serial contract depends
    on them never diverging.
    """
    high_mask = ID_HIGH_MASK
    id_mask = ID_MASK
    # Duplicate decomposition entries are appended freely and collapsed
    # by the signature's frozenset — cheaper than hashing a set per add.
    decompositions: dict[int, list[int]] = {}
    get_bucket = decompositions.get
    for code, prev_class in current.items():
        annotated = edge_class_by_source[code & id_mask]
        if not annotated:
            continue
        v_high = code & high_mask
        prev_high = prev_class << ID_BITS
        for u, edge_class in annotated:
            pair_code = v_high | u
            decomposition = prev_high | edge_class
            bucket = get_bucket(pair_code)
            if bucket is None:
                decompositions[pair_code] = [decomposition]
            else:
                bucket.append(decomposition)
    ids: dict[_Signature, int] = {}
    assign = ids.setdefault
    signatures: list[_Signature] = []
    refined: dict[int, int] = {}
    get_prev = current.get
    for code, bucket in decompositions.items():
        signature = (
            get_prev(code, -1),
            1 if (code >> ID_BITS) == (code & id_mask) else 0,
            frozenset(bucket),
        )
        sig_id = assign(signature, len(ids))
        if sig_id == len(signatures):
            signatures.append(signature)
        refined[code] = sig_id
    empty_decomposition: frozenset[int] = frozenset()
    for code, prev_class in current.items():
        if code not in decompositions:
            signature = (
                prev_class,
                1 if (code >> ID_BITS) == (code & id_mask) else 0,
                empty_decomposition,
            )
            sig_id = assign(signature, len(ids))
            if sig_id == len(signatures):
                signatures.append(signature)
            refined[code] = sig_id
    return refined, signatures


def _block_columns(current: dict[int, int]) -> list[array]:
    """Group a final pair → class map into sorted member-code columns."""
    grouped: dict[int, list[int]] = {}
    for code, class_id in current.items():
        bucket = grouped.get(class_id)
        if bucket is None:
            grouped[class_id] = [code]
        else:
            bucket.append(code)
    # Block members are unique by construction; sort without a dedup pass.
    return [array("q", sorted(codes)) for codes in grouped.values()]


def _assemble(
    k: int,
    block_columns: list[array],
    level_counts: list[int],
    interner: VertexInterner,
) -> CodePartition:
    """Renumber the final blocks canonically and build the result.

    Classes are ordered by their smallest member code — a total order
    independent of refinement iteration order *and* shard count (blocks
    are disjoint, so the minima are distinct) — which makes the serial
    and sharded paths return identical ``CodePartition``s, class ids
    included, and hence identical ``index_fingerprint``s downstream.
    """
    ordered = sorted(block_columns, key=lambda column: column[0])
    class_of: dict[int, int] = {}
    blocks: dict[int, PairSet] = {}
    loop_classes: list[int] = []
    for class_id, column in enumerate(ordered):
        blocks[class_id] = PairSet.from_sorted_codes(column, interner)
        for code in column:
            class_of[code] = class_id
        # Loop-ness is part of every level signature, so the first
        # member's flag is the whole block's flag.
        first = column[0]
        if first >> ID_BITS == first & ID_MASK:
            loop_classes.append(class_id)
    return CodePartition(
        k=k,
        class_of=class_of,
        blocks=blocks,
        loop_classes=frozenset(loop_classes),
        level_class_counts=level_counts,
    )


# ---------------------------------------------------------------------------
# sharded refinement (worker protocol)
# ---------------------------------------------------------------------------


def _partition_shard_worker(
    task: tuple[int, list[int], int, array, array, object],
    conn: Connection,
) -> None:
    """Refine one shard of sources through levels ``2..k`` (worker side).

    Task: ``(k, shard sources, num_ids, level-1 codes, level-1 classes,
    injector)`` — the packed level-1 partition is the only graph-derived
    state a worker needs (refinement never touches the graph again), so
    nothing larger ever crosses the process boundary; ``injector`` is the
    chaos-run fault source (``None`` in production), consulted at the
    ``partition.shard`` site once per level so failures land mid-protocol
    too.  Per level the
    worker sends its packed signature table — ``("sigs", meta, decomps)``
    with three ``meta`` slots ``(prev_class, loop_flag, decomposition
    count)`` per local signature and the sorted decompositions
    concatenated in ``decomps`` — then receives the parent's remap array
    (local signature id → global class id) and rewrites its local pair
    map in place.  After level ``k`` it ships its final assignment as
    ``("blocks", codes, classes)`` — two aligned packed columns, the
    cheapest wire form (dicts of per-class arrays pickled an object per
    class, which dominated the protocol cost on discrete partitions).
    """
    k, shard_sources, num_ids, codes, classes, injector = task
    try:
        if kernels.active_backend() == "numpy":
            # Same wire protocol, vectorized refinement: the table rows
            # a numpy worker ships are content-equal to a pure worker's
            # (decompositions sorted and duplicate-free), so the parent
            # unifies mixed-backend shards without knowing the difference.
            nk = kernels.backend_module()
            all_codes, all_classes = nk.sorted_columns(codes, classes)
            csr = nk.edge_csr(all_codes, all_classes, num_ids)
            shard_codes, shard_classes = nk.filter_by_sources(
                all_codes, all_classes, shard_sources
            )
            for _ in range(2, k + 1):
                if injector is not None:
                    injector.fail("partition.shard")  # type: ignore[attr-defined]
                shard_codes, signature_ids, _, table = nk.refine_level(
                    shard_codes, shard_classes, csr, want_table=True
                )
                conn.send(("sigs", table[0], table[1]))
                remap = conn.recv()
                shard_classes = nk.apply_remap(remap, signature_ids)
            conn.send(
                ("blocks", nk.to_column(shard_codes), nk.to_column(shard_classes))
            )
            return
        level1 = dict(zip(codes, classes, strict=True))
        edge_class_by_source = _class_annotated_adjacency(level1, num_ids)
        shard = set(shard_sources)
        current = {code: class_id for code, class_id in level1.items() if (code >> ID_BITS) in shard}
        for _ in range(2, k + 1):
            if injector is not None:
                injector.fail("partition.shard")  # type: ignore[attr-defined]
            current, signatures = _refine_level(current, edge_class_by_source)
            meta = array("q")
            decomps = array("q")
            for prev_class, loop_flag, bucket in signatures:
                ordered = sorted(bucket)
                meta.extend((prev_class, loop_flag, len(ordered)))
                decomps.extend(ordered)
            conn.send(("sigs", meta, decomps))
            remap = conn.recv()
            current = {code: remap[sig_id] for code, sig_id in current.items()}
        conn.send(("blocks", array("q", current.keys()), array("q", current.values())))
    except Exception:  # pragma: no cover - ship the failure, don't hang
        with contextlib.suppress(OSError):
            conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _recv_payload(conn: Connection) -> tuple[array, array]:
    """Receive one shard message's two-column payload.

    Both protocol stages carry the same shape — ``("sigs", meta,
    decomps)`` per level, ``("blocks", codes, classes)`` at the end —
    and a worker that failed ships ``("error", traceback)`` instead,
    surfaced here as :class:`IndexBuildError` (as is a worker that died
    without reporting, which closes the pipe).
    """
    try:
        message = conn.recv()
    except EOFError:
        raise IndexBuildError("parallel partition worker exited unexpectedly") from None
    if message[0] == "error":
        raise IndexBuildError(f"parallel partition worker failed:\n{message[1]}")
    return message[1], message[2]


def _parallel_refinement(
    codes: array,
    classes: array,
    num_ids: int,
    k: int,
    sources: list[int],
    num_workers: int,
) -> tuple[list[array], list[int]]:
    """Run refinement levels ``2..k`` sharded over persistent workers.

    ``codes``/``classes`` are the aligned level-1 assignment columns
    (any order — workers normalize).  The parent's per-level job is pure
    signature unification: read each shard's packed signature table **in
    shard order** (deterministic — equal signatures across shards
    resolve to one global class id, new ids assigned first-seen), answer
    with a remap array per shard, and record the level's class count.
    Under the numpy backend the unification reuses the vectorized table
    build (:func:`repro.core.kernels.numpy_backend.unify_tables`):
    shipped decomposition runs are sorted and duplicate-free, so their
    raw byte slices key the signature dict directly instead of a
    per-signature frozenset fold — the PR-4 parent-side residue.
    Per-pair state never crosses the process boundary between levels;
    only the final assignment columns do, regrouped into member columns
    exactly as the serial path does.
    """
    from repro.serve.faults import current_injector

    use_numpy = kernels.active_backend() == "numpy"
    shards = shard_round_robin(sources, min(num_workers, len(sources)))
    injector = current_injector()
    tasks = [(k, shard, num_ids, codes, classes, injector) for shard in shards]
    level_counts: list[int] = []
    final: dict[int, int] = {}
    assignments: list[tuple[array, array]] = []
    with shard_processes(_partition_shard_worker, tasks) as connections:
        for _ in range(2, k + 1):
            tables = [_recv_payload(conn) for conn in connections]
            if use_numpy:
                remaps, level_count = kernels.backend_module().unify_tables(tables)
                for conn, remap in zip(connections, remaps, strict=True):
                    conn.send(remap)
                level_counts.append(level_count)
                continue
            global_ids: dict[_Signature, int] = {}
            assign = global_ids.setdefault
            for conn, (meta, decomps) in zip(connections, tables, strict=True):
                remap = array("q")
                offset = 0
                for row in range(0, len(meta), 3):
                    count = meta[row + 2]
                    signature = (
                        meta[row],
                        meta[row + 1],
                        frozenset(decomps[offset : offset + count]),
                    )
                    offset += count
                    remap.append(assign(signature, len(global_ids)))
                conn.send(remap)
            level_counts.append(len(global_ids))
        for conn in connections:
            shard_codes, shard_classes = _recv_payload(conn)
            if use_numpy:
                assignments.append((shard_codes, shard_classes))
            else:
                final.update(zip(shard_codes, shard_classes, strict=True))
    if use_numpy:
        return kernels.backend_module().merged_member_columns(assignments), level_counts
    return _block_columns(final), level_counts


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def compute_partition_codes(
    graph: LabeledDigraph,
    k: int,
    workers: int | str = 1,
    min_pairs: int | None = None,
) -> CodePartition:
    """Compute the CPQ_k-equivalence partition bottom-up (Algorithm 1).

    Level ``i`` composes every level-``i-1`` pair ``(v, m)`` with every
    level-1 pair ``(m, u)``; pairs are then re-grouped by ``(previous
    class, decomposition-class set)`` — see :func:`_refine_level`.

    ``workers`` > 1 (or ``"auto"``) shards the per-level refinement
    sweep along the interned source-vertex axis over persistent worker
    processes (see the module docstring for the protocol); the result is
    *identical* to the serial build, class ids included.  Graphs with
    fewer than ``min_pairs`` level-1 pairs (default
    :data:`PARALLEL_MIN_PAIRS`) stay on the serial loop regardless of
    ``workers``.
    """
    if k < 1:
        raise IndexBuildError(f"k must be >= 1, got {k}")
    num_workers = resolve_workers(workers)
    if kernels.active_backend() == "numpy":
        return _compute_partition_codes_numpy(graph, k, num_workers, min_pairs)
    current = _level1_code_classes(graph)
    level_counts = [len(set(current.values()))]
    interner = graph.interner

    if k == 1:
        return _assemble(k, _block_columns(current), level_counts, interner)

    threshold = PARALLEL_MIN_PAIRS if min_pairs is None else min_pairs
    if num_workers > 1 and len(current) >= threshold:
        sources = sorted({code >> ID_BITS for code in current})
        if len(sources) > 1:
            # Fault tolerance (PR 7): the level-synchronized protocol
            # cannot re-dispatch one shard mid-level (every shard's
            # signature table feeds the same global unification), so a
            # failed refinement is retried whole once, then recomputed
            # serially — the serial loop is value-identical including
            # class ids (see _assemble), so the build still fingerprints
            # equal to a healthy parallel run.
            from repro.serve.faults import current_injector

            injector = current_injector()
            for attempt in range(2):
                try:
                    columns, refined_counts = _parallel_refinement(
                        array("q", current.keys()),
                        array("q", current.values()),
                        len(interner),
                        k,
                        sources,
                        num_workers,
                    )
                    return _assemble(k, columns, level_counts + refined_counts, interner)
                except IndexBuildError:  # noqa: PERF203 - retry ladder
                    if injector is not None:
                        injector.note(
                            "partition.retried" if attempt == 0 else "partition.serial_fallback"
                        )

    edge_class_by_source = _class_annotated_adjacency(current, len(interner))
    for _ in range(2, k + 1):
        current, signatures = _refine_level(current, edge_class_by_source)
        level_counts.append(len(signatures))
    return _assemble(k, _block_columns(current), level_counts, interner)


def _compute_partition_codes_numpy(
    graph: LabeledDigraph,
    k: int,
    num_workers: int,
    min_pairs: int | None,
) -> CodePartition:
    """Columnar twin of the pure flow above (numpy backend active).

    Intermediate class ids are assigned in sorted-code order rather than
    the pure refinement's first-seen dict order — a bijective relabeling
    at every level, invisible after :func:`_assemble`'s canonical
    renumbering: the returned ``CodePartition`` (class ids included) is
    identical to the pure backend's, serial or sharded.
    """
    nk = kernels.backend_module()
    interner = graph.interner
    codes, classes, num_classes = nk.level1_columns(graph.interned())
    level_counts = [num_classes]

    if k == 1:
        return _assemble(k, nk.class_member_columns(codes, classes), level_counts, interner)

    threshold = PARALLEL_MIN_PAIRS if min_pairs is None else min_pairs
    if num_workers > 1 and len(codes) >= threshold:
        sources = nk.source_ids(codes)
        if len(sources) > 1:
            # The same retry-then-serial ladder as the pure path: a
            # failed sharded refinement reruns whole once, then falls
            # back to the serial loop below (value-identical result).
            from repro.serve.faults import current_injector

            injector = current_injector()
            for attempt in range(2):
                try:
                    columns, refined_counts = _parallel_refinement(
                        nk.to_column(codes),
                        nk.to_column(classes),
                        len(interner),
                        k,
                        sources,
                        num_workers,
                    )
                    return _assemble(k, columns, level_counts + refined_counts, interner)
                except IndexBuildError:  # noqa: PERF203 - retry ladder
                    if injector is not None:
                        injector.note(
                            "partition.retried" if attempt == 0 else "partition.serial_fallback"
                        )

    csr = nk.edge_csr(codes, classes, len(interner))
    for _ in range(2, k + 1):
        codes, classes, level_count, _ = nk.refine_level(codes, classes, csr)
        level_counts.append(level_count)
    return _assemble(k, nk.class_member_columns(codes, classes), level_counts, interner)


def compute_partition(
    graph: LabeledDigraph,
    k: int,
    workers: int | str = 1,
) -> PathPartition:
    """Tuple-decoded view of :func:`compute_partition_codes` (public API)."""
    coded = compute_partition_codes(graph, k, workers=workers)
    decode = graph.interner.decode_pair
    blocks = {class_id: sorted(members, key=repr) for class_id, members in coded.blocks.items()}
    return PathPartition(
        k=coded.k,
        class_of={decode(code): cid for code, cid in coded.class_of.items()},
        blocks=blocks,
        loop_classes=coded.loop_classes,
        level_class_counts=coded.level_class_counts,
    )


def refines(finer: dict[Pair, int], coarser: dict[Pair, int]) -> bool:
    """True if partition ``finer`` refines ``coarser`` on the common domain.

    Exposed for the property-based tests of the refinement chain
    ``level-i refines level-(i-1)`` (Sec. IV-C's key invariant).
    """
    block_map: dict[int, int] = {}
    for pair, fine_id in finer.items():
        coarse_id = coarser.get(pair)
        if coarse_id is None:
            continue
        known = block_map.setdefault(fine_id, coarse_id)
        if known != coarse_id:
            return False
    return True
