"""Pure-Python set-algebra kernels: the merge/gallop loops.

This is the reference backend — the exact loops that lived in
:mod:`repro.core.pairset` before the kernel layer existed, relocated
verbatim.  Every function operates on raw *columns*: sorted,
duplicate-free ``int64`` sequences, either an owned ``array('q')`` or a
read-only ``'q'``-cast ``memoryview`` over an ``mmap``-ed store file.
Higher-level kernels (:func:`compose`, :func:`loops`) duck-type
:class:`~repro.core.pairset.PairSet` operands through their public
surface only (``codes`` / ``code_set()`` / ``is_frozen()``), so this
module never imports ``pairset`` and the two layers cannot cycle.

The numpy backend (:mod:`repro.core.kernels.numpy_backend`) must return
bit-identical columns for every function here — that contract is what
lets the backends swap freely under one ``index_fingerprint``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable

from repro.graph.interner import ID_BITS, ID_HIGH_MASK, ID_MASK

#: Size ratio beyond which merge operations gallop instead of scanning.
GALLOP_RATIO = 8

Column = array | memoryview


def owned_copy(column: Column) -> array:
    """A fresh owned ``array('q')`` with ``column``'s codes."""
    if type(column) is array:
        return array("q", column)
    out = array("q")
    out.frombytes(column.cast("B"))
    return out


def owned_slice(column: Column, start: int, stop: int) -> array:
    """``column[start:stop]`` as a fresh owned ``array('q')``."""
    if type(column) is array:
        return column[start:stop]
    out = array("q")
    if start < stop:
        out.frombytes(column[start:stop].cast("B"))
    return out


def extend_from(out: array, column: Column, start: int = 0) -> None:
    """Append ``column[start:]`` to ``out`` without Python-level iteration."""
    if type(column) is array:
        out.extend(column if start == 0 else column[start:])
    elif start < len(column):
        out.frombytes(column[start:].cast("B"))


def intersect(a: Column, b: Column) -> array:
    """Sorted-merge intersection; gallops when one column dwarfs the other."""
    if len(a) > len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    out = array("q")
    if la == 0:
        return out
    if lb >= GALLOP_RATIO * la:
        lo = 0
        for code in a:
            lo = bisect_left(b, code, lo)
            if lo == lb:
                break
            if b[lo] == code:
                out.append(code)
                lo += 1
        return out
    i = j = 0
    while i < la and j < lb:
        x = a[i]
        y = b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def union(a: Column, b: Column) -> array:
    """Sorted-merge union of two sorted duplicate-free columns."""
    if not a:
        return owned_copy(b)
    if not b:
        return owned_copy(a)
    la, lb = len(a), len(b)
    if min(la, lb) * GALLOP_RATIO <= max(la, lb):
        # skewed: binary-probe the small side, then one C-level sort of
        # the large column plus the genuinely new codes
        small, large = (a, b) if la < lb else (b, a)
        missing = [
            code for code in small
            if (pos := bisect_left(large, code)) == len(large) or large[pos] != code
        ]
        if not missing:
            return owned_copy(large)
        merged = owned_copy(large)
        merged.extend(missing)
        return array("q", sorted(merged))
    out = array("q")
    i = j = 0
    while i < la and j < lb:
        x = a[i]
        y = b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    extend_from(out, a, i)
    extend_from(out, b, j)
    return out


def difference(a: Column, b: Column) -> array:
    """Sorted-merge difference ``a \\ b``; gallops when ``b`` is much larger."""
    if not a or not b:
        return owned_copy(a)
    la, lb = len(a), len(b)
    out = array("q")
    if lb >= GALLOP_RATIO * la:
        lo = 0
        for code in a:
            lo = bisect_left(b, code, lo)
            if lo == lb or b[lo] != code:
                out.append(code)
        return out
    i = j = 0
    while i < la and j < lb:
        x = a[i]
        y = b[j]
        if x < y:
            out.append(x)
            i += 1
        elif x > y:
            j += 1
        else:
            i += 1
            j += 1
    extend_from(out, a, i)
    return out


def contains(column: Column, code: int) -> bool:
    """Membership on a sorted column via binary search."""
    pos = bisect_left(column, code)
    return pos < len(column) and column[pos] == code


def from_codes(codes: Iterable[int]) -> array:
    """Arbitrary codes → sorted duplicate-free column."""
    return array("q", sorted(set(codes)))


def column_from_set(codes: set[int]) -> array:
    """A known-unique code set → sorted column (no dedup pass)."""
    return array("q", sorted(codes))


def concat_sorted(columns: Iterable[Column]) -> array:
    """Pairwise-disjoint sorted columns → one sorted column.

    Disjointness means no dedup pass is needed: one ``b"".join`` over the
    columns' buffers, then one sort.
    """
    return array("q", sorted(array("q", b"".join(columns))))


def _scan_codes(pairs) -> set[int] | Column:
    """A PairSet's codes in whichever representation is cheapest to scan."""
    return pairs.codes if pairs.is_frozen() else pairs.code_set()


def compose(left, right, loops_only: bool = False) -> set[int]:
    """Hash-join composition on the packed middle ids (lazy output).

    ``left`` and ``right`` are :class:`~repro.core.pairset.PairSet`-shaped
    operands (duck-typed).  The right operand is grouped once by its
    packed source id — one machine-width int per key — then the left
    codes stream through it.  ``loops_only=True`` fuses the trailing
    ``∩ id`` (the paper's JOIN ID operator), probing only for ``(m, v)``
    on the right instead of emitting the full cross product.  Returns a
    plain code set: the sort is deferred to the consumer.
    """
    by_source: dict[int, list[int]] = {}
    for code in _scan_codes(right):
        key = code >> ID_BITS
        bucket = by_source.get(key)
        if bucket is None:
            by_source[key] = [code & ID_MASK]
        else:
            bucket.append(code & ID_MASK)
    out: set[int] = set()
    get = by_source.get
    add = out.add
    if loops_only:
        for code in _scan_codes(left):
            targets = get(code & ID_MASK)
            if targets is not None:
                v = code >> ID_BITS
                if v in targets:
                    add((v << ID_BITS) | v)
    else:
        for code in _scan_codes(left):
            targets = get(code & ID_MASK)
            if targets is not None:
                v_high = code & ID_HIGH_MASK
                for u in targets:
                    add(v_high | u)
    return out


def loops(pairs) -> set[int] | array:
    """The ``v == u`` subset (the ``∩ id`` filter), matching the backing.

    A lazy operand stays lazy (returns a set); a frozen one returns a
    column (already sorted — filtering preserves order).
    """
    if not pairs.is_frozen():
        return {
            c for c in pairs.code_set() if (c >> ID_BITS) == (c & ID_MASK)
        }
    return array(
        "q",
        (c for c in pairs.codes if (c >> ID_BITS) == (c & ID_MASK)),
    )
