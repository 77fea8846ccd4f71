"""NumPy set-algebra kernels: vectorized twins of :mod:`.pure`.

Sorted duplicate-free ``int64`` columns are NumPy's native habitat, so
every primitive here is a thin composition of ``np.frombuffer`` (zero
copy — owned ``array('q')`` columns and mapped ``.rsx`` memoryviews both
export the buffer protocol, so neither is ever deserialized),
``searchsorted``, ``intersect1d``/``union1d``/``setdiff1d`` with
``assume_unique=True``, and vectorized code packing/unpacking.

Contract: **bit-identical results.**  Every function shared with the
pure backend returns the same sorted duplicate-free column the
merge/gallop loops produce, so builds fingerprint equal under either
backend (``tests/test_kernels.py`` property-tests this).  The partition
and path-enumeration kernels additionally exploit the canonical
renumbering in :func:`repro.core.partition._assemble`: intermediate
class/signature ids may differ from the pure refinement's first-seen
ids (here they are assigned in sorted-code order), because signatures
are only ever compared for equality within a level and both assignments
are bijective relabelings — the assembled partition, and everything
built from it, is identical.

Two pitfalls this module works around:

* ``ID_HIGH_MASK`` exceeds ``int64``; the high half of a (non-negative)
  code is recovered as ``code - (code & ID_MASK)`` instead;
* class ids are shifted into the high word when packing decompositions,
  which requires ``class id < 2**31`` — the same bound the pure
  refinement's ``array('q')`` wire format already imposes.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable

import numpy as np

from repro.graph.interner import ID_BITS, ID_MASK

_MASK = np.int64(ID_MASK)
_EMPTY_ND = np.empty(0, dtype=np.int64)

#: Above this many distinct (inverse-extended) labels the per-label
#: probe sweep of :func:`enumerate_sequence_columns` loses to the pure
#: per-vertex loop (each level pays ``O(labels · frontier)`` probes
#: here versus ``O(Σ out-degree)`` there); callers fall back to pure.
MAX_ENUMERATION_LABELS = 64

Column = array | memoryview


def as_ndarray(column: Column | np.ndarray) -> np.ndarray:
    """A zero-copy int64 view over a column (owned or mapped)."""
    if isinstance(column, np.ndarray):
        return column
    if len(column) == 0:
        return _EMPTY_ND
    return np.frombuffer(column, dtype=np.int64)


def to_column(codes: np.ndarray) -> array:
    """An owned ``array('q')`` with ``codes``'s values (one memcpy)."""
    out = array("q")
    if len(codes):
        out.frombytes(memoryview(np.ascontiguousarray(codes)).cast("B"))
    return out


def _expand_ranges(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Gather indices for the ranges ``[starts[i], starts[i]+counts[i])``.

    The standard CSR-expansion trick: one ``arange`` minus the repeated
    exclusive prefix sums yields every range's local offsets at once.
    """
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + offsets


# ---------------------------------------------------------------------------
# set algebra on columns
# ---------------------------------------------------------------------------


def intersect(a: Column, b: Column) -> array:
    return to_column(
        np.intersect1d(as_ndarray(a), as_ndarray(b), assume_unique=True)
    )


def union(a: Column, b: Column) -> array:
    return to_column(np.union1d(as_ndarray(a), as_ndarray(b)))


def difference(a: Column, b: Column) -> array:
    return to_column(
        np.setdiff1d(as_ndarray(a), as_ndarray(b), assume_unique=True)
    )


def contains(column: Column, code: int) -> bool:
    codes = as_ndarray(column)
    pos = int(np.searchsorted(codes, code))
    return pos < len(codes) and int(codes[pos]) == code


def from_codes(codes: Iterable[int]) -> array:
    """Arbitrary codes → sorted duplicate-free column."""
    if isinstance(codes, (array, memoryview, np.ndarray)):
        return to_column(np.unique(as_ndarray(codes)))
    if isinstance(codes, (set, frozenset)):
        # Known unique: a straight sort beats unique's sort-plus-mask.
        nd = np.fromiter(codes, dtype=np.int64, count=len(codes))
        nd.sort()
        return to_column(nd)
    return to_column(np.unique(np.fromiter(codes, dtype=np.int64)))


def column_from_set(codes: set[int]) -> array:
    nd = np.fromiter(codes, dtype=np.int64, count=len(codes))
    nd.sort()
    return to_column(nd)


def concat_sorted(columns: Iterable[Column]) -> array:
    """Pairwise-disjoint sorted columns → one sorted column.

    A constant number of C calls however many columns there are: one
    ``b"".join`` over their buffers (owned arrays and mapped memoryviews
    alike) builds the owned result, which is then sorted in place
    through a single ndarray view.  Per-column overhead, not the sort,
    is what a class set with hundreds of small columns pays for.
    """
    merged = array("q", b"".join(columns))
    if len(merged) > 1:
        np.frombuffer(merged, dtype=np.int64).sort()
    return merged


def compose(left, right, loops_only: bool = False) -> array:
    """Sort-merge-join composition on the packed middle ids.

    The vectorized twin of the pure backend's hash join: the right
    column is already clustered by its packed source id, so per left
    code a ``searchsorted`` range over the unpacked right sources
    replaces the hash probe, and the cross products materialize through
    one CSR expansion.  Unlike the pure kernel this returns the *sorted
    column* directly — ``np.unique`` is the dedup — so the resulting
    PairSet is born frozen (same value, different physical state).
    """
    lhs = as_ndarray(left.codes)
    rhs = as_ndarray(right.codes)
    if not len(lhs) or not len(rhs):
        return array("q")
    mids = lhs & _MASK
    if loops_only:
        # Only (m, v) can close a loop for left code (v, m): probe the
        # right column for the swapped codes, no expansion needed.
        sources = lhs >> ID_BITS
        probes = (mids << ID_BITS) | sources
        pos = np.minimum(np.searchsorted(rhs, probes), len(rhs) - 1)
        closed = np.unique(sources[rhs[pos] == probes])
        return to_column((closed << ID_BITS) | closed)
    rhs_sources = rhs >> ID_BITS
    lo = np.searchsorted(rhs_sources, mids, side="left")
    hi = np.searchsorted(rhs_sources, mids, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return array("q")
    gather = _expand_ranges(lo, counts, total)
    highs = lhs - mids
    targets = rhs[gather] & _MASK
    # Dedup: the join output is grouped by left source already, so when
    # the (distinct sources) x (target id range) grid is not much larger
    # than the row count, a presence bitmap + row-major np.nonzero beats
    # np.unique's full sort — nonzero scans in exactly the packed-code
    # order.  Sparse/wide outputs fall back to the sort.  The left column
    # is sorted, so its distinct sources are its run heads: no re-sort.
    width = int(targets.max()) + 1
    heads = np.empty(len(highs), dtype=bool)
    heads[0] = True
    np.not_equal(highs[1:], highs[:-1], out=heads[1:])
    sources = highs[heads]
    if len(sources) * width <= 4 * total + 4096:
        row_of = np.cumsum(heads) - 1
        grid = np.zeros((len(sources), width), dtype=bool)
        grid[np.repeat(row_of, counts), targets] = True
        rows, cols = np.nonzero(grid)
        return to_column(sources[rows] | cols)
    out = np.repeat(highs, counts) | targets
    return to_column(np.unique(out))


def loops(pairs) -> array:
    """The ``v == u`` subset of a PairSet-shaped operand, as a column."""
    codes = as_ndarray(pairs.codes)
    return to_column(codes[(codes >> ID_BITS) == (codes & _MASK)])


# ---------------------------------------------------------------------------
# partition refinement (Algorithm 1's per-level signature build)
# ---------------------------------------------------------------------------


def level1_columns(view) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized level-1 code classing: ``(codes, classes, count)``.

    Groups the inverse-extended triples by pair code with one lexsort,
    then keys each pair's class on ``(loop flag, label slice)`` — the
    sorted duplicate-free label run is bijective with the pure
    implementation's frozenset, so the grouping is identical (class ids
    are assigned in sorted-code order rather than dict order; see the
    module docstring for why that cannot be observed).
    """
    triples = view.triples
    if not triples:
        return _EMPTY_ND, _EMPTY_ND, 0
    t = np.asarray(triples, dtype=np.int64)
    v, u, lab = t[:, 0], t[:, 1], t[:, 2]
    codes = np.concatenate(((v << ID_BITS) | u, (u << ID_BITS) | v))
    labels = np.concatenate((lab, -lab))
    order = np.lexsort((labels, codes))
    codes = codes[order]
    labels = labels[order]
    keep = np.empty(len(codes), dtype=bool)
    keep[0] = True
    keep[1:] = (codes[1:] != codes[:-1]) | (labels[1:] != labels[:-1])
    codes = codes[keep]
    labels = np.ascontiguousarray(labels[keep])
    first = np.empty(len(codes), dtype=bool)
    first[0] = True
    first[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(first)
    unique_codes = codes[starts]
    ends = np.append(starts[1:], len(codes))
    is_loop = (unique_codes >> ID_BITS) == (unique_codes & _MASK)
    ids: dict[tuple[bool, bytes], int] = {}
    assign = ids.setdefault
    classes = np.empty(len(unique_codes), dtype=np.int64)
    for i in range(len(unique_codes)):
        key = (bool(is_loop[i]), labels[starts[i] : ends[i]].tobytes())
        classes[i] = assign(key, len(ids))
    return unique_codes, classes, len(ids)


def edge_csr(
    codes: np.ndarray, classes: np.ndarray, num_ids: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class-annotated level-1 adjacency in CSR form.

    The sorted code column is already clustered by source id, so the
    CSR is one ``bincount``: ``indptr`` over sources, aligned target
    and edge-class arrays as the payload.
    """
    indptr = np.zeros(num_ids + 1, dtype=np.int64)
    if len(codes):
        counts = np.bincount(codes >> ID_BITS, minlength=num_ids)
        np.cumsum(counts, out=indptr[1:])
    return indptr, codes & _MASK, classes


def refine_level(
    codes: np.ndarray,
    classes: np.ndarray,
    csr: tuple[np.ndarray, np.ndarray, np.ndarray],
    want_table: bool = False,
) -> tuple[np.ndarray, np.ndarray, int, tuple[array, array] | None]:
    """One refinement level over sorted ``(codes, classes)`` columns.

    Vectorizes the composition sweep and the per-pair decomposition
    grouping (expansion, dedup, and boundary detection are all one
    lexsort pass); signature ids are then assigned with one cheap dict
    probe per *pair* — keys are ``(prev class, loop flag, bytes)``
    where the bytes are the pair's sorted duplicate-free decomposition
    run, bijective with the pure signature's frozenset.

    Returns ``(new codes, new classes, signature count, table)`` where
    ``table`` (only when ``want_table``, i.e. inside a partition shard
    worker) is the wire-format ``(meta, decomps)`` column pair of
    :func:`repro.core.partition._partition_shard_worker` — three meta
    slots per signature in local-id order, decompositions concatenated.
    """
    indptr, targets, edge_classes = csr
    mids = codes & _MASK
    lo = indptr[mids]
    counts = indptr[mids + np.int64(1)] - lo
    total = int(counts.sum())
    if total:
        gather = _expand_ranges(lo, counts, total)
        pairs = np.repeat(codes - mids, counts) | targets[gather]
        decomps = np.repeat(classes << ID_BITS, counts) | edge_classes[gather]
        order = np.lexsort((decomps, pairs))
        pairs = pairs[order]
        decomps = decomps[order]
        keep = np.empty(total, dtype=bool)
        keep[0] = True
        keep[1:] = (pairs[1:] != pairs[:-1]) | (decomps[1:] != decomps[:-1])
        pairs = pairs[keep]
        decomps = np.ascontiguousarray(decomps[keep])
        first = np.empty(len(pairs), dtype=bool)
        first[0] = True
        first[1:] = pairs[1:] != pairs[:-1]
        starts = np.flatnonzero(first)
        emitted = pairs[starts]
        ends = np.append(starts[1:], len(pairs))
    else:
        decomps = _EMPTY_ND
        starts = ends = _EMPTY_ND
        emitted = _EMPTY_ND
    # Previous class of each emitted pair: -1 when first reached here.
    if len(codes) and len(emitted):
        pos = np.minimum(np.searchsorted(codes, emitted), len(codes) - 1)
        known = codes[pos] == emitted
        prev = np.where(known, classes[pos], np.int64(-1))
    else:
        prev = np.full(len(emitted), -1, dtype=np.int64)
    emitted_loop = (emitted >> ID_BITS) == (emitted & _MASK)
    # Current pairs that composed into nothing keep an empty
    # decomposition (they still carry their previous class forward).
    if len(emitted):
        pos = np.minimum(np.searchsorted(emitted, codes), len(emitted) - 1)
        rest_mask = emitted[pos] != codes
    else:
        rest_mask = np.ones(len(codes), dtype=bool)
    rest_codes = codes[rest_mask]
    rest_prev = classes[rest_mask]
    rest_loop = (rest_codes >> ID_BITS) == (rest_codes & _MASK)
    ids: dict[tuple[int, bool, bytes], int] = {}
    emitted_sigs = np.empty(len(emitted), dtype=np.int64)
    meta: list[int] = []
    slices: list[np.ndarray] = []
    for i in range(len(emitted)):
        run = decomps[starts[i] : ends[i]]
        key = (int(prev[i]), bool(emitted_loop[i]), run.tobytes())
        sig = ids.get(key)
        if sig is None:
            sig = len(ids)
            ids[key] = sig
            if want_table:
                meta.extend((key[0], int(key[1]), len(run)))
                slices.append(run)
        emitted_sigs[i] = sig
    rest_sigs = np.empty(len(rest_codes), dtype=np.int64)
    for i in range(len(rest_codes)):
        key = (int(rest_prev[i]), bool(rest_loop[i]), b"")
        sig = ids.get(key)
        if sig is None:
            sig = len(ids)
            ids[key] = sig
            if want_table:
                meta.extend((key[0], int(key[1]), 0))
        rest_sigs[i] = sig
    new_codes = np.concatenate((emitted, rest_codes))
    new_sigs = np.concatenate((emitted_sigs, rest_sigs))
    order = np.argsort(new_codes, kind="stable")
    table = None
    if want_table:
        packed = np.concatenate(slices) if slices else _EMPTY_ND
        table = (array("q", meta), to_column(packed))
    return new_codes[order], new_sigs[order], len(ids), table


def apply_remap(remap: Column, signature_ids: np.ndarray) -> np.ndarray:
    """Rewrite local signature ids through the parent's remap column."""
    return as_ndarray(remap)[signature_ids]


def source_ids(codes: np.ndarray) -> list[int]:
    """The distinct source ids of a code column, ascending."""
    return np.unique(codes >> ID_BITS).tolist()


def sorted_columns(
    codes: Column, classes: Column
) -> tuple[np.ndarray, np.ndarray]:
    """Wire columns → aligned ndarrays sorted by code.

    The shard-worker entry point: the parent ships the level-1
    assignment in whatever order its backend produced (the pure path
    ships dict order), and the CSR build below requires code order.
    """
    code_nd = as_ndarray(codes)
    class_nd = as_ndarray(classes)
    order = np.argsort(code_nd)
    return code_nd[order], class_nd[order]


def filter_by_sources(
    codes: np.ndarray, classes: np.ndarray, sources: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict an assignment to the pairs anchored at ``sources``."""
    mask = np.isin(codes >> ID_BITS, np.asarray(sources, dtype=np.int64))
    return codes[mask], classes[mask]


def merged_member_columns(
    column_pairs: list[tuple[Column, Column]],
) -> list[array]:
    """Shard-final ``(codes, classes)`` column pairs → member columns.

    Shards anchor disjoint sources and class ids are already global, so
    the assignments concatenate directly into one grouping pass.
    """
    if not column_pairs:
        return []
    codes = np.concatenate([as_ndarray(codes) for codes, _ in column_pairs])
    classes = np.concatenate(
        [as_ndarray(classes) for _, classes in column_pairs]
    )
    return class_member_columns(codes, classes)


def unify_tables(
    tables: list[tuple[Column, Column]],
) -> tuple[list[array], int]:
    """Parent-side signature unification over shard tables (satellite of
    the PR-4 protocol): one remap column per shard, plus the level's
    global class count.

    Replaces the per-signature frozenset folds with slice views into the
    shipped decomposition columns — workers send each signature's
    decompositions sorted and duplicate-free, so the raw byte run is
    already a canonical set key.
    """
    global_ids: dict[tuple[int, int, bytes], int] = {}
    assign = global_ids.setdefault
    remaps: list[array] = []
    for meta_column, decomps_column in tables:
        meta = as_ndarray(meta_column).reshape(-1, 3)
        decomps = as_ndarray(decomps_column)
        bounds = np.zeros(len(meta) + 1, dtype=np.int64)
        np.cumsum(meta[:, 2], out=bounds[1:])
        remap = array("q")
        for row in range(len(meta)):
            key = (
                int(meta[row, 0]),
                int(meta[row, 1]),
                decomps[bounds[row] : bounds[row + 1]].tobytes(),
            )
            remap.append(assign(key, len(global_ids)))
        remaps.append(remap)
    return remaps, len(global_ids)


def class_member_columns(codes: np.ndarray, classes: np.ndarray) -> list[array]:
    """Group a final assignment into sorted member-code columns."""
    if not len(codes):
        return []
    order = np.lexsort((codes, classes))
    codes = codes[order]
    classes = classes[order]
    first = np.empty(len(classes), dtype=bool)
    first[0] = True
    first[1:] = classes[1:] != classes[:-1]
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(codes))
    return [to_column(codes[s:e]) for s, e in zip(starts, ends)]


# ---------------------------------------------------------------------------
# path enumeration (L≤k traversals)
# ---------------------------------------------------------------------------

#: Per-view adjacency caches, keyed by view identity.  Strong references
#: to the two most recent views: the serial and sharded builders each
#: traverse one snapshot many times (once per interest sequence / per
#: level), and holding the view pins its id against reuse.
_VIEW_CACHES: list[tuple[object, dict]] = []


def _view_cache(view) -> dict:
    for cached_view, cache in _VIEW_CACHES:
        if cached_view is view:
            return cache
    cache: dict = {}
    _VIEW_CACHES.insert(0, (view, cache))
    del _VIEW_CACHES[2:]
    return cache


def _label_adjacency(view) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per-label CSR adjacency ``label → (indptr, targets, codes)``.

    Built once per view from the triples (inverse-extended, deduped)
    with one lexsort; ``codes`` is the label's full sorted relation
    column, which makes length-1 relations free.
    """
    cache = _view_cache(view)
    adjacency = cache.get("labels")
    if adjacency is not None:
        return adjacency
    adjacency = {}
    triples = view.triples
    if triples:
        num_ids = view.num_ids
        t = np.asarray(triples, dtype=np.int64)
        sources = np.concatenate((t[:, 0], t[:, 1]))
        targets = np.concatenate((t[:, 1], t[:, 0]))
        labels = np.concatenate((t[:, 2], -t[:, 2]))
        order = np.lexsort((targets, sources, labels))
        sources = sources[order]
        targets = targets[order]
        labels = labels[order]
        keep = np.empty(len(labels), dtype=bool)
        keep[0] = True
        keep[1:] = (
            (labels[1:] != labels[:-1])
            | (sources[1:] != sources[:-1])
            | (targets[1:] != targets[:-1])
        )
        sources = sources[keep]
        targets = targets[keep]
        labels = labels[keep]
        first = np.empty(len(labels), dtype=bool)
        first[0] = True
        first[1:] = labels[1:] != labels[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(labels))
        for s, e in zip(starts, ends):
            src = sources[s:e]
            dst = np.ascontiguousarray(targets[s:e])
            indptr = np.zeros(num_ids + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=num_ids), out=indptr[1:])
            adjacency[int(labels[s])] = (indptr, dst, (src << ID_BITS) | dst)
    cache["labels"] = adjacency
    return adjacency


def _expand_step(
    codes: np.ndarray, indptr: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Extend pair codes by one adjacency step; output NOT deduped."""
    mids = codes & _MASK
    lo = indptr[mids]
    counts = indptr[mids + np.int64(1)] - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_ND
    gather = _expand_ranges(lo, counts, total)
    return np.repeat(codes - mids, counts) | targets[gather]


def sequence_codes_from_sources(view, sources, seq) -> array:
    """Vectorized twin of :func:`repro.core.paths.sequence_codes_from_sources`."""
    adjacency = _label_adjacency(view)
    entry = adjacency.get(seq[0])
    if entry is None:
        return array("q")
    indptr, targets, _ = entry
    src = np.fromiter(sources, dtype=np.int64)
    src = np.unique(src)
    lo = indptr[src]
    counts = indptr[src + np.int64(1)] - lo
    total = int(counts.sum())
    if total == 0:
        return array("q")
    gather = _expand_ranges(lo, counts, total)
    # (source, target) rows are unique within one label and emitted in
    # sorted source-major order: already a canonical column.
    codes = np.repeat(src << ID_BITS, counts) | targets[gather]
    for label in seq[1:]:
        entry = adjacency.get(label)
        if entry is None:
            return array("q")
        codes = _expand_step(codes, entry[0], entry[1])
        if not len(codes):
            return array("q")
        codes = np.unique(codes)
    return to_column(codes)


def reachable_codes(view, k: int) -> array:
    """Vectorized ``P≤k`` sweep over the all-label pair adjacency."""
    cache = _view_cache(view)
    pair_adjacency = cache.get("pairs")
    if pair_adjacency is None:
        triples = view.triples
        if not triples:
            return array("q")
        t = np.asarray(triples, dtype=np.int64)
        codes = np.unique(
            np.concatenate(
                (
                    (t[:, 0] << ID_BITS) | t[:, 1],
                    (t[:, 1] << ID_BITS) | t[:, 0],
                )
            )
        )
        indptr = np.zeros(view.num_ids + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(codes >> ID_BITS, minlength=view.num_ids), out=indptr[1:]
        )
        pair_adjacency = cache["pairs"] = (codes, indptr, codes & _MASK)
    level1, indptr, targets = pair_adjacency
    if not len(level1):
        return array("q")
    known = level1
    frontier = level1
    for _ in range(1, k):
        extended = _expand_step(frontier, indptr, targets)
        if not len(extended):
            break
        frontier = np.setdiff1d(np.unique(extended), known, assume_unique=True)
        if not len(frontier):
            break
        known = np.union1d(known, frontier)
    return to_column(known)


def enumerate_sequence_columns(view, k: int) -> dict | None:
    """Vectorized sequence enumeration: ``seq → sorted code column``.

    Returns ``None`` when the label alphabet exceeds
    :data:`MAX_ENUMERATION_LABELS` (the caller falls back to the pure
    per-vertex frontier loop — see the constant's docstring).
    """
    adjacency = _label_adjacency(view)
    if len(adjacency) > MAX_ENUMERATION_LABELS:
        return None
    labels = sorted(adjacency)
    sequences: dict[tuple[int, ...], np.ndarray] = {}
    frontier: dict[tuple[int, ...], np.ndarray] = {}
    for label in labels:
        column = adjacency[label][2]
        sequences[(label,)] = frontier[(label,)] = column
    for _ in range(1, k):
        extended: dict[tuple[int, ...], np.ndarray] = {}
        for seq, codes in frontier.items():
            for label in labels:
                indptr, targets, _ = adjacency[label]
                grown = _expand_step(codes, indptr, targets)
                if len(grown):
                    extended[seq + (label,)] = np.unique(grown)
        for seq, codes in extended.items():
            known = sequences.get(seq)
            sequences[seq] = codes if known is None else np.union1d(known, codes)
        frontier = extended
        if not frontier:
            break
    return sequences
