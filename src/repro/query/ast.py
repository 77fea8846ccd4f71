"""The Conjunctive Path Query (CPQ) algebra.

The grammar of Sec. III-B::

    CPQ ::= id | l | CPQ ∘ CPQ | CPQ ∩ CPQ | (CPQ)

is modelled as an immutable expression tree: :class:`Identity`,
:class:`EdgeLabel`, :class:`Join`, :class:`Conjunction`.  Expressions are
hashable and comparable, carry the paper's *diameter* measure, and support
fluent construction through operator overloading::

    q = (label("f") >> label("f")) & label("f").inverse()   # (f∘f) ∩ f⁻¹

``>>`` is join (``∘``) and ``&`` is conjunction (``∩``).

Label atoms may carry either a human-readable name or a signed integer id
(see :mod:`repro.graph.labels`); :func:`resolve` converts a name-form query
into the id-form required by all evaluation engines.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.errors import QuerySyntaxError
from repro.graph.labels import LabelRegistry, LabelSeq


class CPQ:
    """Abstract base of CPQ expressions (immutable, hashable)."""

    __slots__ = ()

    def diameter(self) -> int:
        """The paper's ``dia(q)``: max count of joined edge labels."""
        raise NotImplementedError

    def children(self) -> tuple["CPQ", ...]:
        """Direct sub-expressions (empty for atoms)."""
        return ()

    def __rshift__(self, other: CPQ) -> Join:
        """``q1 >> q2`` builds the join ``q1 ∘ q2``."""
        return Join(self, _as_cpq(other))

    def __and__(self, other: CPQ) -> Conjunction:
        """``q1 & q2`` builds the conjunction ``q1 ∩ q2``."""
        return Conjunction(self, _as_cpq(other))

    def walk(self) -> Iterator["CPQ"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def to_text(self, registry: LabelRegistry | None = None) -> str:
        """Render the expression in the parser's concrete syntax."""
        raise NotImplementedError


def _as_cpq(value: object) -> CPQ:
    if isinstance(value, CPQ):
        return value
    raise TypeError(f"expected a CPQ expression, got {value!r}")


@dataclass(frozen=True, slots=True)
class Identity(CPQ):
    """The nullary ``id`` operation: ``⟦id⟧G = {(v, v) | v ∈ V}``."""

    def diameter(self) -> int:
        return 0

    def to_text(self, registry: LabelRegistry | None = None) -> str:
        return "id"

    def __repr__(self) -> str:
        return "id"


@dataclass(frozen=True, slots=True)
class EdgeLabel(CPQ):
    """An edge-label atom ``l`` (or its inverse ``l⁻¹``).

    ``label`` is either a signed integer id (engine form) or a string name
    (authoring form; negative direction expressed via ``inverted=True``).
    """

    label: int | str
    inverted: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.label, int):
            if self.label == 0:
                raise QuerySyntaxError("label id 0 is reserved")
            if self.label < 0:
                # normalize: negative id folded into the inverted flag
                object.__setattr__(self, "label", -self.label)
                object.__setattr__(self, "inverted", not self.inverted)
        elif not self.label:
            raise QuerySyntaxError("empty label name")

    def diameter(self) -> int:
        return 1

    def inverse(self) -> EdgeLabel:
        """The inverse atom ``l⁻¹`` (an involution)."""
        return EdgeLabel(self.label, not self.inverted)

    def label_id(self) -> int:
        """Signed id of this atom; requires id (resolved) form."""
        if not isinstance(self.label, int):
            raise QuerySyntaxError(
                f"label {self.label!r} is unresolved; call resolve(query, registry)"
            )
        return -self.label if self.inverted else self.label

    def to_text(self, registry: LabelRegistry | None = None) -> str:
        if isinstance(self.label, str):
            name = self.label
        elif registry is not None:
            name = registry.name_of(self.label)
        else:
            name = str(self.label)
        return f"{name}^-" if self.inverted else name

    def __repr__(self) -> str:
        return self.to_text()


@dataclass(frozen=True, slots=True)
class Join(CPQ):
    """The join (relational composition) ``q1 ∘ q2``."""

    left: CPQ
    right: CPQ

    def diameter(self) -> int:
        return self.left.diameter() + self.right.diameter()

    def children(self) -> tuple[CPQ, ...]:
        return (self.left, self.right)

    def to_text(self, registry: LabelRegistry | None = None) -> str:
        return f"({self.left.to_text(registry)} . {self.right.to_text(registry)})"

    def __repr__(self) -> str:
        return self.to_text()


@dataclass(frozen=True, slots=True)
class Conjunction(CPQ):
    """The conjunction (intersection) ``q1 ∩ q2``."""

    left: CPQ
    right: CPQ

    def diameter(self) -> int:
        return max(self.left.diameter(), self.right.diameter())

    def children(self) -> tuple[CPQ, ...]:
        return (self.left, self.right)

    def to_text(self, registry: LabelRegistry | None = None) -> str:
        return f"({self.left.to_text(registry)} & {self.right.to_text(registry)})"

    def __repr__(self) -> str:
        return self.to_text()


#: Shared identity instance (expressions are immutable, sharing is safe).
ID = Identity()


def label(name_or_id: int | str, inverted: bool = False) -> EdgeLabel:
    """Convenience constructor for an edge-label atom."""
    return EdgeLabel(name_or_id, inverted)


def join_all(parts: list[CPQ]) -> CPQ:
    """Left-deep join of one or more expressions."""
    if not parts:
        raise QuerySyntaxError("cannot join zero expressions")
    query = parts[0]
    for part in parts[1:]:
        query = Join(query, part)
    return query


def conjoin_all(parts: list[CPQ]) -> CPQ:
    """Left-deep conjunction of one or more expressions."""
    if not parts:
        raise QuerySyntaxError("cannot conjoin zero expressions")
    query = parts[0]
    for part in parts[1:]:
        query = Conjunction(query, part)
    return query


def sequence_query(seq: LabelSeq) -> CPQ:
    """Build the chain query ``l1 ∘ l2 ∘ ... ∘ ln`` from a label sequence."""
    return join_all([EdgeLabel(lab) for lab in seq])


def resolve(query: CPQ, registry: LabelRegistry) -> CPQ:
    """Convert a name-form query to id form against ``registry``.

    Id-form atoms pass through unchanged, so resolution is idempotent.
    """
    if isinstance(query, Identity):
        return query
    if isinstance(query, EdgeLabel):
        if isinstance(query.label, int):
            return query
        return EdgeLabel(registry.id_of(query.label), query.inverted)
    if isinstance(query, Join):
        return Join(resolve(query.left, registry), resolve(query.right, registry))
    if isinstance(query, Conjunction):
        return Conjunction(resolve(query.left, registry), resolve(query.right, registry))
    raise QuerySyntaxError(f"unknown CPQ node {query!r}")


def is_resolved(query: CPQ) -> bool:
    """True if every label atom carries an integer id.

    A plain recursion rather than a :meth:`CPQ.walk` generator: this
    check runs on every evaluation, result-memo hits included.
    """
    if isinstance(query, EdgeLabel):
        return isinstance(query.label, int)
    if isinstance(query, (Join, Conjunction)):
        return is_resolved(query.left) and is_resolved(query.right)
    return True


def as_label_sequence(query: CPQ) -> LabelSeq | None:
    """If ``query`` is a pure join of label atoms, return its sequence.

    Returns ``None`` for anything containing a conjunction or identity.
    Used by the planner to recognize LOOKUP-able sub-trees (Sec. IV-D).
    """
    if isinstance(query, EdgeLabel):
        return (query.label_id(),)
    if isinstance(query, Join):
        left = as_label_sequence(query.left)
        if left is None:
            return None
        right = as_label_sequence(query.right)
        if right is None:
            return None
        return left + right
    return None


def label_sequences_in(query: CPQ) -> set[LabelSeq]:
    """All maximal label sequences appearing as join-chains in ``query``.

    These are the sequences the planner will LOOKUP (before ≤k splitting);
    the interest-aware experiments use them as the interest set
    ("we specify all label sequences in the set of queries as the
    interests", Sec. VI).
    """
    sequences: set[LabelSeq] = set()

    def visit(node: CPQ) -> None:
        seq = as_label_sequence(node)
        if seq is not None:
            sequences.add(seq)
            return
        for child in node.children():
            visit(child)

    visit(query)
    return sequences


def count_operations(query: CPQ) -> tuple[int, int]:
    """Count (joins, conjunctions) — the ``α1``/``α2`` of Theorem 4.5."""
    joins = sum(1 for node in query.walk() if isinstance(node, Join))
    conjunctions = sum(1 for node in query.walk() if isinstance(node, Conjunction))
    return joins, conjunctions
