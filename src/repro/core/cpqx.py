"""The CPQ-aware path index **CPQx** (Sec. IV, Definitions 4.2/4.3).

CPQx is an inverted index in two parts:

* ``Il2c`` — label sequence (length ≤ k) → set of class identifiers whose
  pairs' ``L≤k`` sets contain that sequence;
* ``Ic2p`` — class identifier → sorted column of member s-t pair codes
  (:class:`repro.core.pairset.PairSet`).

Classes are the CPQ_k-equivalence classes computed by
:mod:`repro.core.partition`.  A lookup touches class ids instead of
pairs; conjunctions intersect class-id sets (Prop. 4.1); pairs are only
materialized when a JOIN or the query root demands them — and then as
sorted code columns combined without decoding (classes are disjoint, so
expanding a class set is one concatenation plus one sort, however many
classes it holds).

Construction (Algorithm 2) supports two strategies:

* ``"representative"`` (default) — exploit label-sequence uniformity
  (Def. 4.2): compute ``L≤k`` once per class from a representative pair;
* ``"per-pair"`` — the paper's literal Algorithm 2 loop over every pair
  and each of its sequences; used by the construction ablation bench to
  show the two produce identical indexes at different cost.

The index retains a reference to its graph and supports the paper's lazy
maintenance (Sec. IV-E) through :meth:`insert_edge` / :meth:`delete_edge`.
"""

from __future__ import annotations

from collections.abc import Set

from repro.core.executor import EngineBase, Result
from repro.core.pairset import PairSet
from repro.core.parallel import derive_class_sequences, derive_class_sequences_parallel, resolve_workers
from repro.core.partition import compute_partition_codes
from repro.core.paths import enumerate_sequences_codes, invert_sequences_codes
from repro.errors import IndexBuildError, QueryDiameterError
from repro.graph.digraph import LabeledDigraph, Pair, Vertex
from repro.graph.interner import ID_BITS, ID_MASK
from repro.graph.labels import LabelSeq
from repro.plan.planner import Splitter, greedy_splitter

#: What ``lookup`` returns for a sequence with no posting.
_NO_CLASSES: frozenset[int] = frozenset()


def _adopt_ic2p(
    ic2p: dict[int, PairSet] | dict[int, list[Pair]], graph: LabeledDigraph
) -> dict[int, PairSet]:
    """Accept ``Ic2p`` in columnar or legacy list-of-tuples form."""
    interner = graph.interner
    return {
        class_id: (
            members
            if isinstance(members, PairSet)
            else PairSet.from_vertex_pairs(members, interner)
        )
        for class_id, members in ic2p.items()
    }


def _adopt_class_of(
    class_of: dict[int, int] | dict[Pair, int], graph: LabeledDigraph
) -> dict[int, int]:
    """Accept the pair→class map keyed by codes (ints) or vertex tuples."""
    if not class_of or isinstance(next(iter(class_of)), int):
        return dict(class_of)
    encode = graph.interner.encode_pair
    return {encode(pair): class_id for pair, class_id in class_of.items()}


class CPQxIndex(EngineBase):
    """The CPQ-aware path index of Sec. IV."""

    name = "CPQx"

    def __init__(
        self,
        graph: LabeledDigraph,
        k: int,
        il2c: dict[LabelSeq, set[int]],
        ic2p: dict[int, PairSet] | dict[int, list[Pair]],
        class_of: dict[int, int] | dict[Pair, int] | None,
        class_sequences: dict[int, frozenset[LabelSeq]],
        loop_classes: set[int],
    ) -> None:
        self.graph = graph
        self.k = k
        self._il2c = il2c
        self._ic2p = _adopt_ic2p(ic2p, graph)
        # ``class_of=None`` defers the pair→class map: the query path
        # never reads it, so a store-opened engine skips building it
        # (it materializes from the columns on first maintenance or
        # introspection access — see the ``_class_of`` property).
        self._class_of_map: dict[int, int] | None = (
            None if class_of is None else _adopt_class_of(class_of, graph)
        )
        self._class_sequences = class_sequences
        self._loop_classes = loop_classes
        self._next_class = max(ic2p, default=-1) + 1

    @property
    def _class_of(self) -> dict[int, int]:
        """The pair-code → class map, built lazily from the columns.

        Classes partition the pair universe, so the inversion is exact;
        once built (or assigned) the dict is cached and mutated in place
        by the maintenance path like any eager map.
        """
        mapping = self._class_of_map
        if mapping is None:
            mapping = {
                code: class_id
                for class_id, members in self._ic2p.items()
                for code in members.iter_codes()
            }
            self._class_of_map = mapping
        return mapping

    @_class_of.setter
    def _class_of(self, value: dict[int, int] | dict[Pair, int]) -> None:
        self._class_of_map = _adopt_class_of(value, self.graph)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: LabeledDigraph,
        k: int = 2,
        il2c_method: str = "representative",
        workers: int | str = 1,
    ) -> CPQxIndex:
        """Build CPQx over ``graph`` with path-length bound ``k``.

        Runs Algorithm 1 (partition) then Algorithm 2 (index assembly),
        entirely in the interned code space.  ``workers`` > 1 (or
        ``"auto"``) shards *both* stages along the interned
        source-vertex axis — the per-level k-path-bisimulation
        refinement over persistent shard workers
        (:func:`repro.core.partition.compute_partition_codes`, serial
        below its pair-count threshold) and the per-representative
        ``L≤k`` derivation over a process pool
        (:mod:`repro.core.parallel`) — producing an identical index.
        """
        if k < 1:
            raise IndexBuildError(f"k must be >= 1, got {k}")
        num_workers = resolve_workers(workers)
        partition = compute_partition_codes(graph, k, workers=num_workers)
        ic2p = partition.blocks
        view = graph.interned()

        class_sequences: dict[int, frozenset[LabelSeq]] = {}
        if il2c_method == "representative":
            # One L≤k BFS per *source vertex*, shared by every class whose
            # representative pair starts there (Def. 4.2 uniformity makes
            # any member's derivation the class's derivation).
            by_source: dict[int, list[tuple[int, int]]] = {}
            for class_id, members in ic2p.items():
                rep = members.codes[0]
                by_source.setdefault(rep >> ID_BITS, []).append(
                    (class_id, rep & ID_MASK)
                )
            class_sequences = (
                derive_class_sequences_parallel(graph, k, by_source, num_workers)
                if num_workers > 1 and len(by_source) > 1
                else derive_class_sequences(view, k, by_source.items())
            )
        elif il2c_method == "per-pair":
            per_code = invert_sequences_codes(enumerate_sequences_codes(graph, k))
            class_of = partition.class_of
            for code, seqs in per_code.items():
                class_id = class_of[code]
                known = class_sequences.get(class_id)
                if known is None:
                    class_sequences[class_id] = seqs
                elif known != seqs:  # pragma: no cover - uniformity invariant
                    raise IndexBuildError(
                        f"class {class_id} is not label-sequence uniform"
                    )
        else:
            raise IndexBuildError(f"unknown il2c_method {il2c_method!r}")

        il2c: dict[LabelSeq, set[int]] = {}
        for class_id, seqs in class_sequences.items():
            for seq in sorted(seqs):
                il2c.setdefault(seq, set()).add(class_id)

        return cls(
            graph=graph,
            k=k,
            il2c=il2c,
            ic2p=ic2p,
            class_of=partition.class_of,
            class_sequences=class_sequences,
            loop_classes=set(partition.loop_classes),
        )

    # ------------------------------------------------------------------
    # executor interface
    # ------------------------------------------------------------------
    def splitter(self) -> Splitter:
        """CPQx splits label sequences greedily at length ``k`` (Fig. 4)."""
        return greedy_splitter(self.k)

    def lookup(self, seq: LabelSeq) -> Result:
        """``Il2c(seq)`` — the class identifiers of a label sequence.

        The result holds the live posting itself, not a copy: it is
        read-only, and valid until the next maintenance call.
        """
        if len(seq) > self.k:
            raise QueryDiameterError(
                f"sequence of length {len(seq)} exceeds index parameter k={self.k}"
            )
        return Result(classes=self._il2c.get(seq, _NO_CLASSES))

    def expand_classes(self, classes: Set[int]) -> PairSet:
        """``∪ Ic2p(c)`` over ``classes``: one concatenation plus one
        sort of the disjoint class columns.

        Every class id an ``Il2c`` posting yields is in ``Ic2p``:
        maintenance drops an emptied class from both together.
        """
        return PairSet.union_disjoint(
            map(self._ic2p.__getitem__, classes), self.graph.interner
        )

    def loop_classes_of(self, classes: Set[int]) -> Set[int]:
        """IDENTITY on class sets: keep classes whose pairs are loops."""
        return classes & self._loop_classes

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        """``|C|`` — the number of CPQ_k-equivalence classes."""
        return len(self._ic2p)

    @property
    def num_pairs(self) -> int:
        """``|P≤k|`` restricted to non-empty paths."""
        return len(self._class_of)

    @property
    def num_sequences(self) -> int:
        """Number of distinct label sequences keyed in ``Il2c``."""
        return len(self._il2c)

    def class_of(self, pair: Pair) -> int | None:
        """The class identifier of a pair, or None if not indexed."""
        interner = self.graph.interner
        vid = interner.get_id(pair[0])
        uid = interner.get_id(pair[1])
        if vid is None or uid is None:
            return None
        return self._class_of.get((vid << ID_BITS) | uid)

    def class_size(self, class_id: int) -> int:
        """``|Ic2p(c)|`` without decoding (COUNT pushdown reads this)."""
        members = self._ic2p.get(class_id)
        return len(members) if members is not None else 0

    def pairs_of_class(self, class_id: int) -> list[Pair]:
        """``Ic2p(c)`` decoded to a deterministically sorted list."""
        members = self._ic2p.get(class_id)
        if members is None:
            return []
        return sorted(members, key=repr)

    def codes_of_class(self, class_id: int) -> PairSet:
        """``Ic2p(c)`` as its columnar pair set."""
        members = self._ic2p.get(class_id)
        if members is None:
            return PairSet.empty(self.graph.interner)
        return members

    def sequences_of_class(self, class_id: int) -> frozenset[LabelSeq]:
        """The (uniform) ``L≤k`` set shared by every pair of the class."""
        return self._class_sequences.get(class_id, frozenset())

    def classes(self) -> list[int]:
        """All class identifiers."""
        return list(self._ic2p)

    def gamma(self) -> float:
        """Average ``|L≤k(v,u)|`` over indexed pairs (the paper's γ)."""
        if not self._class_of:
            return 0.0
        total = sum(
            len(self._class_sequences[c]) * len(members)
            for c, members in self._ic2p.items()
        )
        return total / len(self._class_of)

    def size_bytes(self) -> int:
        """Deterministic size model with 32-bit ids (Thm. 4.2's accounting).

        ``Il2c``: 4 bytes per label in each key plus 4 per posted class id;
        ``Ic2p``: 4 bytes per class key plus 8 per stored s-t pair (one
        64-bit packed code — exactly what the columns store).
        """
        il2c_bytes = sum(
            4 * len(seq) + 4 * len(classes) for seq, classes in self._il2c.items()
        )
        ic2p_bytes = sum(4 + 8 * len(pairs) for pairs in self._ic2p.values())
        return il2c_bytes + ic2p_bytes

    # ------------------------------------------------------------------
    # maintenance (Sec. IV-E); implementation in repro.core.maintenance
    # ------------------------------------------------------------------
    def insert_edge(self, v: Vertex, u: Vertex, label: object) -> None:
        """Insert a forward edge and lazily update the index."""
        from repro.core.maintenance import insert_edge

        insert_edge(self, v, u, label)

    def delete_edge(self, v: Vertex, u: Vertex, label: object) -> None:
        """Delete a forward edge and lazily update the index."""
        from repro.core.maintenance import delete_edge

        delete_edge(self, v, u, label)

    def change_edge_label(
        self, v: Vertex, u: Vertex, old_label: object, new_label: object
    ) -> None:
        """Relabel an edge and lazily update the index (Sec. IV-E)."""
        from repro.core.maintenance import change_edge_label

        change_edge_label(self, v, u, old_label, new_label)

    def delete_vertex(self, v: Vertex) -> None:
        """Remove a vertex with its edges and lazily update the index."""
        from repro.core.maintenance import delete_vertex

        delete_vertex(self, v)

    def insert_vertex(self, v: Vertex, edges: list[tuple] = ()) -> None:
        """Add a vertex (plus incident edges) and lazily update the index."""
        from repro.core.maintenance import insert_vertex

        insert_vertex(self, v, edges)

    def describe_classes(self, max_pairs: int = 4) -> str:
        """Render the equivalence classes the way Fig. 3 presents them.

        One line per class: the member pairs (truncated to ``max_pairs``)
        followed by the class's uniform label-sequence set.  Classes are
        ordered by their smallest member for stable output.
        """
        registry = self.graph.registry
        lines = []
        decoded = {
            class_id: self.pairs_of_class(class_id) for class_id in self._ic2p
        }
        ordered = sorted(decoded.items(), key=lambda item: repr(item[1][0]))
        for class_id, members in ordered:
            shown = ", ".join(f"({v},{u})" for v, u in members[:max_pairs])
            if len(members) > max_pairs:
                shown += ", ..."
            sequences = sorted(
                self._class_sequences[class_id], key=lambda s: (len(s), s)
            )
            labels = "{" + ", ".join(
                "".join(registry.name_of(lab) for lab in seq) for seq in sequences
            ) + "}"
            lines.append(f"c={class_id}: {shown} {labels}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"CPQxIndex(k={self.k}, |C|={self.num_classes}, "
            f"|P|={self.num_pairs}, |Il2c|={self.num_sequences})"
        )
