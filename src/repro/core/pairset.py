"""Columnar s-t pair sets: sorted ``array('q')`` columns of packed ids.

Every structure the paper builds — ``P≤k``, the per-sequence relations,
``Ic2p`` postings, executor intermediates — is a set of s-t pairs.  The
seed kept them as Python sets of ``(v, u)`` tuples over arbitrary
vertices; :class:`PairSet` instead packs interned ids (see
:mod:`repro.graph.interner`) into 64-bit codes ``v_id << 32 | u_id``
with two physical states:

* **frozen** — one sorted, duplicate-free ``array('q')`` column: 8
  bytes per pair in a contiguous buffer.  This is the storage form
  (index postings, enumeration output) and supports merge-based
  union/intersection/difference, switching to galloping (binary probes
  into the larger column) when the operands are size-skewed — the
  classic adaptive strategy of sorted-posting systems;
* **lazy** — a plain ``set`` of codes, produced by operators whose
  output order is not yet needed (composition, hash-path algebra).
  Sorting an operator's output costs more than every downstream
  consumer that doesn't need order, so the sort is deferred: the column
  materializes (once, cached) only when something asks for it.

Composition — the relational join on the shared middle vertex — runs as
a hash join grouped on the packed middle id, from either physical
state.  It beats the seed executor's per-call dict-of-vertex-lists
rebuild: grouping keys are single machine-width ints, never tuples of
objects, and the output stays a lazy code set.

A ``PairSet`` is an immutable :class:`collections.abc.Set` of original
``(v, u)`` vertex pairs, and it is what a columnar plan root returns:
``len``, truthiness and membership read codes, and only iteration
decodes, through the interner's reverse lookup.  Equality, the
comparisons (``<=``, ``<``, ``>=``, ``>``, :meth:`isdisjoint`) and the
binary set operators accept any ``Set`` of vertex tuples in either
operand order; two ``PairSet`` operands over one interner stay in code
space, mixed operands decode.  The seed's set-of-tuples form is one
explicit :meth:`to_set` call away.

A third backing joined in PR 8: a frozen column may be a read-only
``memoryview`` cast to ``'q'`` over an ``mmap``-ed store file
(:mod:`repro.store`) instead of an owned ``array('q')``.  Both backings
are sorted int64 sequences supporting ``len``/indexing/``bisect`` *and*
the buffer protocol, so the set-algebra kernels run on either — zero
copy under the numpy backend, which views them through
``np.frombuffer``.  Mapped sets pickle by converting to an owned column
(:meth:`__reduce__`) — a ``memoryview`` cannot cross a process boundary.

The algebra itself lives in :mod:`repro.core.kernels` (PR 10): frozen
operands dispatch to the active backend — the original merge/gallop
loops (:mod:`repro.core.kernels.pure`) or their vectorized numpy twins —
while lazy operands stay on hash-based set operations here, where
deferring the sort is the whole point.  Both backends return
bit-identical columns; only the physical state of *lazy-producing*
operators may differ (the numpy compose returns its output born frozen,
since the vectorized join sorts as a side effect of deduplication).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Set
from itertools import repeat
from operator import attrgetter, is_

from repro.core import kernels
from repro.core.kernels.pure import extend_from, owned_copy, owned_slice
from repro.graph.digraph import Pair
from repro.graph.interner import ID_BITS, ID_MASK, VertexInterner

_EMPTY = array("q")

#: A part's stored column, or None while it is still a lazy code set.
_raw_column = attrgetter("_codes")


def _decoded(other: Set) -> frozenset[Pair]:
    """A set operand as vertex tuples (a frozenset comes back as itself)."""
    return other.to_set() if isinstance(other, PairSet) else frozenset(other)


class PairSet(Set):
    """An immutable set of packed ``(v_id, u_id)`` pair codes.

    Physically either a frozen sorted column, a lazy code set, or (after
    first column access on a lazy set) both.  All mutation is
    copy-on-write; cached representations never change observable state.
    """

    __slots__ = ("_codes", "_codeset", "_interner")

    def __init__(
        self,
        codes: array | None,
        interner: VertexInterner,
        codeset: set[int] | None = None,
    ) -> None:
        """Wrap a **sorted, duplicate-free** column and/or a code set.

        Use the ``from_*`` constructors unless the invariant is already
        guaranteed by construction.
        """
        self._codes = codes
        self._codeset = codeset
        self._interner = interner

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, interner: VertexInterner) -> PairSet:
        """The empty pair set."""
        return cls(_EMPTY, interner)

    @classmethod
    def from_codes(cls, codes: Iterable[int], interner: VertexInterner) -> PairSet:
        """Build a frozen column from arbitrary codes (sorts + dedups)."""
        return cls(kernels.from_codes(codes), interner)

    @classmethod
    def from_sorted_codes(cls, codes: array, interner: VertexInterner) -> PairSet:
        """Adopt an already sorted duplicate-free column (no copy)."""
        return cls(codes, interner)

    @classmethod
    def from_mapped(cls, view: memoryview, interner: VertexInterner) -> PairSet:
        """Adopt a read-only mapped column (``'q'``-cast memoryview).

        The store reader's constructor: ``view`` is a zero-copy slice
        into an ``mmap``-ed store file holding the sorted duplicate-free
        codes.  The view pins its backing map alive; the set behaves
        exactly like an owned-column set (and converts to one when it
        must — pickling, point updates).
        """
        if view.format != "q":
            raise ValueError(f"mapped column must be 'q'-cast, got {view.format!r}")
        return cls(view, interner)

    @classmethod
    def from_code_set(cls, codes: set[int], interner: VertexInterner) -> PairSet:
        """Adopt a code set lazily — the column sorts on first demand."""
        return cls(None, interner, codeset=codes)

    @classmethod
    def from_vertex_pairs(
        cls, pairs: Iterable[Pair], interner: VertexInterner
    ) -> PairSet:
        """Encode original-vertex pairs through the interner."""
        id_of = interner.id_of
        return cls.from_codes(
            ((id_of(v) << ID_BITS) | id_of(u) for v, u in pairs), interner
        )

    @classmethod
    def union_disjoint(
        cls, parts: Iterable["PairSet"], interner: VertexInterner
    ) -> PairSet:
        """K-way union of pairwise-disjoint sets (``Ic2p`` classes).

        Disjointness (classes partition the pair universe) means no
        dedup pass: one concatenation plus one sort per call, however
        many parts there are.  The columns are gathered at C level (no
        Python frame per part); if any part is still lazy, the parts'
        :attr:`codes` materialize them instead.  A single part comes
        back as itself.
        """
        parts = list(parts)
        if len(parts) < 2:
            return parts[0] if parts else cls.empty(interner)
        columns = list(map(_raw_column, parts))
        # An identity scan: ``None in columns`` would rich-compare every
        # mapped memoryview with None, raising and clearing a TypeError
        # per column.
        if any(map(is_, columns, repeat(None))):
            columns = [part.codes for part in parts]
        return cls(kernels.concat_sorted(columns), interner)

    # ------------------------------------------------------------------
    # physical representations
    # ------------------------------------------------------------------
    @property
    def codes(self) -> array:
        """The sorted code column (materialized and cached on demand)."""
        codes = self._codes
        if codes is None:
            codes = self._codes = kernels.column_from_set(self._codeset)
        return codes

    @property
    def interner(self) -> VertexInterner:
        """The interner that decodes this column's ids."""
        return self._interner

    def code_set(self) -> set[int]:
        """The codes as a set (the lazy state's native form; else built)."""
        if self._codeset is not None:
            return self._codeset
        return set(self._codes)

    def _any_codes(self) -> set[int] | array:
        """Whichever representation exists, for order-free scans."""
        return self._codeset if self._codeset is not None else self._codes

    def is_frozen(self) -> bool:
        """True when the sorted column is already materialized."""
        return self._codes is not None

    def is_mapped(self) -> bool:
        """True when the column is a view into a mapped store file."""
        return type(self._codes) is memoryview

    def __reduce__(self) -> tuple:
        """Pickle support: a mapped column ships as an owned copy.

        ``memoryview`` cannot cross a process boundary; everything else
        round-trips as-is (the snapshot-shipping fallback path).
        """
        codes = self._codes
        if type(codes) is memoryview:
            codes = owned_copy(codes)
        return (PairSet, (codes, self._interner, self._codeset))

    def iter_codes(self) -> Iterator[int]:
        """Iterate the packed codes in ascending column order."""
        return iter(self.codes)

    def contains_code(self, code: int) -> bool:
        """Membership on the packed code (hash or binary search)."""
        if self._codeset is not None:
            return code in self._codeset
        return kernels.contains(self._codes, code)

    # ------------------------------------------------------------------
    # set protocol (decoded boundary)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        backing = self._codeset if self._codeset is not None else self._codes
        return len(backing)

    def __bool__(self) -> bool:
        backing = self._codeset if self._codeset is not None else self._codes
        return bool(backing)

    def __iter__(self) -> Iterator[Pair]:
        vertices = self._interner._vertices
        for code in self.codes:
            yield (vertices[code >> ID_BITS], vertices[code & ID_MASK])

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        get_id = self._interner.get_id
        vid = get_id(pair[0])
        uid = get_id(pair[1])
        if vid is None or uid is None:
            return False
        return self.contains_code((vid << ID_BITS) | uid)

    def to_set(self) -> frozenset[Pair]:
        """Decode into the seed's set-of-tuples representation."""
        vertices = self._interner._vertices
        return frozenset(
            (vertices[code >> ID_BITS], vertices[code & ID_MASK])
            for code in self._any_codes()
        )

    def __eq__(self, other: object) -> bool:
        if self._coerce(other) is None and isinstance(other, (set, frozenset, PairSet)):
            # A plain set or a foreign-interner column: one decode.
            return len(self) == len(other) and self.to_set() == _decoded(other)
        # ``Set.__eq__`` is ``len`` plus ``__le__``: code space for a peer.
        return Set.__eq__(self, other)

    def __hash__(self) -> int:
        return hash(self.to_set())

    # ------------------------------------------------------------------
    # comparisons — ``<`` / ``>`` are the ``Set`` mixins over these two
    # ------------------------------------------------------------------
    def __le__(self, other: object) -> bool:
        peer = self._coerce(other)
        if peer is None:
            return Set.__le__(self, other)
        return len(self) <= len(peer) and not (self - peer)

    def __ge__(self, other: object) -> bool:
        peer = self._coerce(other)
        if peer is None:
            return Set.__ge__(self, other)
        return len(self) >= len(peer) and not (peer - self)

    def isdisjoint(self, other: Iterable) -> bool:
        peer = self._coerce(other)
        if peer is None:
            return Set.isdisjoint(self, other)
        return not (self & peer)

    @classmethod
    def _from_iterable(cls, pairs: Iterable[Pair]) -> frozenset[Pair]:
        """What the ``Set`` mixins (``^``) build from decoded pairs."""
        return frozenset(pairs)

    # ------------------------------------------------------------------
    # set algebra — merge-based on frozen columns, hash-based when an
    # operand is still a lazy code set
    # ------------------------------------------------------------------
    def _coerce(self, other: object) -> PairSet | None:
        if isinstance(other, PairSet) and other._interner is self._interner:
            return other
        return None

    def _both_frozen(self, peer: PairSet) -> bool:
        return self._codes is not None and peer._codes is not None

    def __and__(self, other: object) -> PairSet | frozenset[Pair]:
        peer = self._coerce(other)
        if peer is not None:
            if self._both_frozen(peer):
                return PairSet(
                    kernels.intersect(self._codes, peer._codes), self._interner
                )
            return PairSet.from_code_set(
                self.code_set() & peer.code_set(), self._interner
            )
        if isinstance(other, Set):
            return self.to_set() & _decoded(other)
        return NotImplemented

    __rand__ = __and__

    def __or__(self, other: object) -> PairSet | frozenset[Pair]:
        peer = self._coerce(other)
        if peer is not None:
            if self._both_frozen(peer):
                return PairSet(
                    kernels.union(self._codes, peer._codes), self._interner
                )
            return PairSet.from_code_set(
                self.code_set() | peer.code_set(), self._interner
            )
        if isinstance(other, Set):
            return self.to_set() | _decoded(other)
        return NotImplemented

    __ror__ = __or__

    def __sub__(self, other: object) -> PairSet | frozenset[Pair]:
        peer = self._coerce(other)
        if peer is not None:
            if self._both_frozen(peer):
                return PairSet(
                    kernels.difference(self._codes, peer._codes), self._interner
                )
            return PairSet.from_code_set(
                self.code_set() - peer.code_set(), self._interner
            )
        if isinstance(other, Set):
            return self.to_set() - _decoded(other)
        return NotImplemented

    def __rsub__(self, other: object) -> frozenset[Pair]:
        if isinstance(other, Set):
            return _decoded(other) - self.to_set()
        return NotImplemented

    def intersection(self, other: PairSet) -> PairSet:
        """Intersection (alias of ``&`` for PairSets)."""
        result = self & other
        assert isinstance(result, PairSet)
        return result

    def union(self, other: PairSet) -> PairSet:
        """Union (alias of ``|`` for PairSets)."""
        result = self | other
        assert isinstance(result, PairSet)
        return result

    def difference(self, other: PairSet) -> PairSet:
        """Difference (alias of ``-`` for PairSets)."""
        result = self - other
        assert isinstance(result, PairSet)
        return result

    # ------------------------------------------------------------------
    # point updates (persistent: return a new column)
    # ------------------------------------------------------------------
    def with_code(self, code: int) -> PairSet:
        """A new set with ``code`` inserted (no-op copy if present)."""
        codes = self.codes
        pos = bisect_left(codes, code)
        if pos < len(codes) and codes[pos] == code:
            return self
        updated = owned_slice(codes, 0, pos)
        updated.append(code)
        extend_from(updated, codes, pos)
        return PairSet(updated, self._interner)

    def without_code(self, code: int) -> PairSet:
        """A new set with ``code`` removed; raises KeyError if absent."""
        codes = self.codes
        pos = bisect_left(codes, code)
        if pos == len(codes) or codes[pos] != code:
            raise KeyError(code)
        updated = owned_slice(codes, 0, pos)
        extend_from(updated, codes, pos + 1)
        return PairSet(updated, self._interner)

    # ------------------------------------------------------------------
    # relational operators
    # ------------------------------------------------------------------
    def loops(self) -> PairSet:
        """The subset with ``v == u`` (the ``∩ id`` filter)."""
        filtered = kernels.loops(self)
        if isinstance(filtered, set):
            return PairSet.from_code_set(filtered, self._interner)
        return PairSet(filtered, self._interner)

    def compose(self, other: PairSet, loops_only: bool = False) -> PairSet:
        """Relational composition ``{(v, u) | (v, m) ∈ self, (m, u) ∈ other}``.

        A single-pass hash join on the *packed ids*: the right column is
        grouped once by its packed source id (one machine-width int per
        key — never a dict of vertex objects rebuilt per call, which is
        what the seed executor did), then the left column streams
        through it.  The frozen right column is naturally clustered by
        source, so grouping is a run-length scan of the sorted codes.
        The output stays a lazy code set — its sort is deferred until
        (and unless) a consumer needs the column.  ``loops_only=True``
        fuses the trailing ``∩ id`` (the paper's JOIN ID operator),
        probing only for ``(m, v)`` on the right instead of emitting the
        full cross product.

        Under the numpy backend the join is sort-merge instead of hash
        (the right column is clustered by source, so a ``searchsorted``
        range replaces the probe) and its output arrives *born frozen* —
        the vectorized dedup is a sort — rather than lazy.  Same value
        either way.
        """
        interner = self._interner
        if not self or not other:
            return PairSet.empty(interner)
        joined = kernels.compose(self, other, loops_only)
        if isinstance(joined, set):
            return PairSet.from_code_set(joined, interner)
        return PairSet(joined, interner)

    def __repr__(self) -> str:
        state = "frozen" if self._codes is not None else "lazy"
        return f"PairSet({len(self)} pairs, {state})"
