"""CPQ expression → logical plan translation (Sec. IV-D).

The planner applies the paper's three optimizations in one bottom-up
walk over the expression tree:

1. ``q ∘ id = q`` — literal identity factors in joins are removed;
2. only ``q ∩ id`` is handled as IDENTITY — a conjunction with a literal
   ``id`` is fused into the sibling operator's ``with_identity`` flag
   (Algorithm 4's \\*ID variants);
3. maximal label-sequence chains are recognized and split into LOOKUP
   leaves of length at most ``k`` (Fig. 4: ``l1∘l2∘l3`` with ``k = 2``
   becomes ``Lookup(⟨l1,l2⟩) ⋈ Lookup(⟨l3⟩)``).  The walk returns a join
   chain of labels as its sequence, so a chain is split once, where it
   meets a conjunction, a non-chain join or the root.

Splitting is pluggable: CPQx splits greedily at length ``k``; iaCPQx
splits at the boundaries of its interest set (Sec. V-B: "we divide label
sequences into sub-label sequences if the label sequences are not included
in the given label sequences").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from repro.errors import QueryDiameterError, QuerySyntaxError
from repro.graph.labels import LabelSeq
from repro.plan.nodes import ConjNode, IdentityAll, JoinNode, Lookup, PlanNode
from repro.query.ast import CPQ, Conjunction, EdgeLabel, Identity, Join

#: A splitter maps a label sequence to LOOKUP-able chunks (len ≥ 1 each).
Splitter = Callable[[LabelSeq], list[LabelSeq]]


def greedy_splitter(k: int) -> Splitter:
    """Split a sequence into prefix chunks of length ``k`` (the default)."""
    if k < 1:
        raise QueryDiameterError(f"index parameter k must be >= 1, got {k}")

    def split(seq: LabelSeq) -> list[LabelSeq]:
        return [seq[i:i + k] for i in range(0, len(seq), k)]

    return split


def interest_splitter(interests: frozenset[LabelSeq], k: int) -> Splitter:
    """Split into the longest prefixes found in ``interests``.

    Falls back to single labels, which are always interests by
    construction (Sec. V-A: all length-1 sequences are in ``Lq``).
    """
    max_len = max((len(seq) for seq in interests), default=1)
    limit = min(k, max_len)

    def split(seq: LabelSeq) -> list[LabelSeq]:
        chunks: list[LabelSeq] = []
        position = 0
        while position < len(seq):
            take = 1
            for width in range(min(limit, len(seq) - position), 1, -1):
                if seq[position:position + width] in interests:
                    take = width
                    break
            chunks.append(seq[position:position + take])
            position += take
        return chunks

    return split


def build_plan(query: CPQ, splitter: Splitter) -> PlanNode:
    """Translate a resolved CPQ expression into a logical plan."""
    return _plan_of(_shape(query, splitter), splitter, with_identity=False)


#: What :func:`_shape` makes of a subtree: a label sequence (a join chain
#: of labels, not yet split), ``id`` (it reduces to the identity), or its plan.
_Shape = LabelSeq | Identity | PlanNode


def _shape(query: CPQ, splitter: Splitter) -> _Shape:
    """One bottom-up walk: strips ``q ∘ id``, folds join chains of labels
    into sequences and plans everything else."""
    if isinstance(query, EdgeLabel):
        return (query.label_id(),)
    if isinstance(query, Join):
        left = _shape(query.left, splitter)
        right = _shape(query.right, splitter)
        if isinstance(left, Identity):
            return right
        if isinstance(right, Identity):
            return left
        if isinstance(left, tuple) and isinstance(right, tuple):
            return left + right
        return JoinNode(_plan_of(left, splitter, False), _plan_of(right, splitter, False))
    if isinstance(query, Conjunction):
        left = _shape(query.left, splitter)
        right = _shape(query.right, splitter)
        if isinstance(left, Identity):
            if isinstance(right, Identity):
                return IdentityAll()
            return _plan_of(right, splitter, True)
        if isinstance(right, Identity):
            return _plan_of(left, splitter, True)
        return ConjNode(_plan_of(left, splitter, False), _plan_of(right, splitter, False))
    if isinstance(query, Identity):
        return query
    raise QuerySyntaxError(f"cannot plan CPQ node {query!r}")


def _plan_of(shape: _Shape, splitter: Splitter, with_identity: bool) -> PlanNode:
    """The plan of a shape, with a fused ``∩ id`` if ``with_identity``."""
    if isinstance(shape, tuple):
        return _sequence_plan(shape, splitter, with_identity)
    if isinstance(shape, Identity):
        return IdentityAll()
    if with_identity and isinstance(shape, (Lookup, JoinNode, ConjNode)):
        return replace(shape, with_identity=True)
    return shape


def _sequence_plan(seq: LabelSeq, splitter: Splitter, with_identity: bool) -> PlanNode:
    chunks = splitter(seq)
    if not chunks or any(not chunk for chunk in chunks):
        raise QueryDiameterError(f"splitter produced invalid chunks for {seq}")
    if sum(len(c) for c in chunks) != len(seq):
        raise QueryDiameterError(f"splitter lost labels for {seq}")
    if len(chunks) == 1:
        return Lookup(chunks[0], with_identity)
    plan: PlanNode = Lookup(chunks[0])
    for chunk in chunks[1:-1]:
        plan = JoinNode(plan, Lookup(chunk))
    return JoinNode(plan, Lookup(chunks[-1]), with_identity=with_identity)
