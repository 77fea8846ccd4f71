"""The interest-aware index **iaCPQx** (Sec. V).

iaCPQx partitions s-t pairs by *interest-aware path-equivalence*
(Def. 5.1): ``(v,u) ≈ (x,y)`` iff they agree on loop-ness and on
``L≤k ∩ Lq``, where ``Lq`` is the user's set of interesting label
sequences.  All length-1 sequences are always included in ``Lq``
(Sec. V-A), so *every* CPQ remains answerable: the planner splits
non-interest sequences into interest-covered chunks
(:func:`repro.plan.planner.interest_splitter`).

Because only the interest sequences are evaluated during construction —
never the full ``L≤k`` enumeration — build time and size shrink roughly
with ``|Lq| / |L≤k|`` (Thm. 5.1), which is the paper's scalability story:
the graphs whose full CPQx ran out of memory in Table IV all get an
iaCPQx here.

Like CPQx, the class postings are columnar
(:class:`repro.core.pairset.PairSet` code columns) and the pair→class
map is keyed on packed pair codes; the construction sweep enumerates
each interest's relation directly in code space.

Maintenance covers the paper's four update kinds: edge insertion/deletion
(like CPQx, restricted to interest sequences) and interest (label
sequence) insertion/deletion (Sec. V-C).
"""

from __future__ import annotations

from collections.abc import Set

from repro.core.executor import EngineBase, Result
from repro.core.maintenance import affected_pairs
from repro.core.pairset import PairSet
from repro.core.parallel import interest_relations_parallel, resolve_workers
from repro.core.paths import sequence_relation_codes
from repro.errors import IndexBuildError, MaintenanceError
from repro.graph.digraph import LabeledDigraph, Pair, Vertex
from repro.graph.interner import ID_BITS, ID_MASK
from repro.graph.labels import LabelSeq
from repro.plan.planner import Splitter, interest_splitter

#: What ``lookup`` returns for a sequence with no posting.
_NO_CLASSES: frozenset[int] = frozenset()


def _single_label_interests(graph: LabeledDigraph) -> set[LabelSeq]:
    """All length-1 sequences over labels used in the graph (fwd + inverse)."""
    singles: set[LabelSeq] = set()
    for label in graph.labels_used():
        singles.add((label,))
        singles.add((-label,))
    return singles


def _pair_matches(graph: LabeledDigraph, pair: Pair, seq: LabelSeq) -> bool:
    """Does some path from pair[0] to pair[1] spell ``seq``?  ``O(d^|seq|)``."""
    frontier = {pair[0]}
    for label in seq:
        next_frontier: set[Vertex] = set()
        for vertex in frontier:
            next_frontier.update(graph.successors(vertex, label))
        if not next_frontier:
            return False
        frontier = next_frontier
    return pair[1] in frontier


class InterestAwareIndex(EngineBase):
    """iaCPQx: the interest-aware CPQ index of Sec. V."""

    name = "iaCPQx"

    def __init__(
        self,
        graph: LabeledDigraph,
        k: int,
        interests: frozenset[LabelSeq],
        il2c: dict[LabelSeq, set[int]],
        ic2p: dict[int, PairSet] | dict[int, list[Pair]],
        class_of: dict[int, int] | dict[Pair, int] | None,
        class_sequences: dict[int, frozenset[LabelSeq]],
        loop_classes: set[int],
    ) -> None:
        from repro.core.cpqx import _adopt_class_of, _adopt_ic2p

        self.graph = graph
        self.k = k
        self.interests = interests
        self._il2c = il2c
        self._ic2p = _adopt_ic2p(ic2p, graph)
        # ``class_of=None`` defers the pair→class inversion exactly like
        # CPQxIndex (see its ``_class_of`` property) — store-opened
        # engines build it on first maintenance/introspection access.
        self._class_of_map: dict[int, int] | None = (
            None if class_of is None else _adopt_class_of(class_of, graph)
        )
        self._class_sequences = class_sequences
        self._loop_classes = loop_classes
        self._next_class = max(ic2p, default=-1) + 1

    @property
    def _class_of(self) -> dict[int, int]:
        """Lazily materialized pair-code → class map (see CPQxIndex)."""
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
        from repro.core.cpqx import _adopt_class_of

        self._class_of_map = _adopt_class_of(value, self.graph)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: LabeledDigraph,
        k: int = 2,
        interests: set[LabelSeq] | frozenset[LabelSeq] = frozenset(),
        workers: int | str = 1,
    ) -> InterestAwareIndex:
        """Build iaCPQx for the given interest sequences.

        Length-1 sequences are added automatically; interests longer than
        ``k`` are rejected (the paper instead registers their length-k
        prefixes — do that at workload level, see
        :func:`repro.query.workloads.workload_interests`).

        ``workers`` > 1 (or ``"auto"``) shards the per-interest relation
        sweep across a process pool by source vertex; the sharded
        relation columns merge to exactly the serial sweep's sorted
        columns, so the classing that follows is byte-identical.
        """
        if k < 1:
            raise IndexBuildError(f"k must be >= 1, got {k}")
        num_workers = resolve_workers(workers)
        for seq in interests:
            if not seq:
                raise IndexBuildError("empty interest sequence")
            if len(seq) > k:
                raise IndexBuildError(
                    f"interest {seq} longer than k={k}; register its k-prefix instead"
                )
        full_interests = frozenset(set(interests) | _single_label_interests(graph))

        if num_workers > 1 and full_interests:
            relations = interest_relations_parallel(
                graph, full_interests, num_workers
            )

            def relation_codes(seq: LabelSeq):
                return relations.get(seq, ())
        else:

            def relation_codes(seq: LabelSeq):
                return sequence_relation_codes(graph, seq).iter_codes()

        code_seqs: dict[int, set[LabelSeq]] = {}
        # Sorted so class ids (assigned first-seen below) are identical
        # across runs regardless of set hash order.
        for seq in sorted(full_interests):
            for code in relation_codes(seq):
                entry = code_seqs.get(code)
                if entry is None:
                    code_seqs[code] = {seq}
                else:
                    entry.add(seq)

        signature_ids: dict[tuple[bool, frozenset[LabelSeq]], int] = {}
        il2c: dict[LabelSeq, set[int]] = {}
        members_by_class: dict[int, list[int]] = {}
        class_of: dict[int, int] = {}
        class_sequences: dict[int, frozenset[LabelSeq]] = {}
        loop_classes: set[int] = set()
        for code, seqs in code_seqs.items():
            signature = ((code >> ID_BITS) == (code & ID_MASK), frozenset(seqs))
            class_id = signature_ids.setdefault(signature, len(signature_ids))
            bucket = members_by_class.get(class_id)
            if bucket is None:
                members_by_class[class_id] = [code]
                class_sequences[class_id] = signature[1]
                if signature[0]:
                    loop_classes.add(class_id)
                for seq in sorted(signature[1]):
                    il2c.setdefault(seq, set()).add(class_id)
            else:
                bucket.append(code)
            class_of[code] = class_id
        interner = graph.interner
        ic2p = {
            class_id: PairSet.from_codes(codes, interner)
            for class_id, codes in members_by_class.items()
        }
        return cls(
            graph=graph,
            k=k,
            interests=full_interests,
            il2c=il2c,
            ic2p=ic2p,
            class_of=class_of,
            class_sequences=class_sequences,
            loop_classes=loop_classes,
        )

    # ------------------------------------------------------------------
    # executor interface
    # ------------------------------------------------------------------
    def splitter(self) -> Splitter:
        """Split sequences at interest boundaries (Sec. V-B)."""
        return interest_splitter(self.interests, self.k)

    def lookup(self, seq: LabelSeq) -> Result:
        """``Il2c(seq)``; sequences outside the interests return empty.

        The result holds the live posting itself, not a copy: it is
        read-only, and valid until the next maintenance call.
        """
        return Result(classes=self._il2c.get(seq, _NO_CLASSES))

    def expand_classes(self, classes: Set[int]) -> PairSet:
        """``∪ Ic2p(c)`` over ``classes``: one concatenation plus one
        sort of the disjoint class columns.

        Every class id an ``Il2c`` posting yields is in ``Ic2p``:
        :meth:`_remove_code` drops an emptied class from both together.
        """
        return PairSet.union_disjoint(
            map(self._ic2p.__getitem__, classes), self.graph.interner
        )

    def loop_classes_of(self, classes: Set[int]) -> Set[int]:
        """IDENTITY on class sets."""
        return classes & self._loop_classes

    # ------------------------------------------------------------------
    # introspection (mirrors CPQxIndex)
    # ------------------------------------------------------------------
    @property
    def num_classes(self) -> int:
        """Number of interest-aware equivalence classes."""
        return len(self._ic2p)

    @property
    def num_pairs(self) -> int:
        """Number of indexed s-t pairs."""
        return len(self._class_of)

    @property
    def num_sequences(self) -> int:
        """Number of label sequences keyed in ``Il2c``."""
        return len(self._il2c)

    def class_of(self, pair: Pair) -> int | None:
        """Class identifier of a pair, or None."""
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
        """Members of a class, decoded to a deterministically sorted list."""
        members = self._ic2p.get(class_id)
        if members is None:
            return []
        return sorted(members, key=repr)

    def sequences_of_class(self, class_id: int) -> frozenset[LabelSeq]:
        """The uniform ``L≤k ∩ Lq`` set of a class."""
        return self._class_sequences.get(class_id, frozenset())

    def gamma(self) -> float:
        """Average interest-sequence count per indexed pair."""
        if not self._class_of:
            return 0.0
        total = sum(
            len(self._class_sequences[c]) * len(members)
            for c, members in self._ic2p.items()
        )
        return total / len(self._class_of)

    def size_bytes(self) -> int:
        """Size model identical to CPQx's (32-bit ids; Thm. 5.1)."""
        il2c_bytes = sum(
            4 * len(seq) + 4 * len(classes) for seq, classes in self._il2c.items()
        )
        ic2p_bytes = sum(4 + 8 * len(pairs) for pairs in self._ic2p.values())
        return il2c_bytes + ic2p_bytes

    # ------------------------------------------------------------------
    # maintenance (Sec. V-C)
    # ------------------------------------------------------------------
    def insert_edge(self, v: Vertex, u: Vertex, label: object) -> None:
        """Insert a graph edge and lazily patch the index."""
        lid = self.graph.add_edge(v, u, label)
        for single in ((lid,), (-lid,)):
            if single not in self.interests:
                self.interests = self.interests | {single}
        self._reclassify(affected_pairs(self.graph, v, u, self.k))

    def delete_edge(self, v: Vertex, u: Vertex, label: object) -> None:
        """Delete a graph edge and lazily patch the index."""
        affected = affected_pairs(self.graph, v, u, self.k)
        try:
            self.graph.remove_edge(v, u, label)
        except Exception as exc:
            raise MaintenanceError(str(exc)) from exc
        self._reclassify(affected)

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

    def insert_interest(self, seq: LabelSeq) -> None:
        """Add a label sequence to the interests (Sec. V-C).

        Enumerates the pairs matching the new sequence and re-classes
        them (grouped by previous class, so uniformity is preserved
        without merging into existing classes).
        """
        if not seq or len(seq) > self.k:
            raise MaintenanceError(f"interest must have length 1..k, got {seq}")
        if seq in self.interests:
            return
        self.interests = self.interests | {seq}
        self.invalidate_cache()
        matching = sequence_relation_codes(self.graph, seq)
        by_old_class: dict[int | None, list[int]] = {}
        for code in matching.iter_codes():
            by_old_class.setdefault(self._class_of.get(code), []).append(code)
        for old_class, members in by_old_class.items():
            if old_class is None:
                loops = [c for c in members if (c >> ID_BITS) == (c & ID_MASK)]
                non_loops = [c for c in members if (c >> ID_BITS) != (c & ID_MASK)]
                for group, is_loop in ((non_loops, False), (loops, True)):
                    if group:
                        self._create_class(frozenset((seq,)), is_loop, group)
            else:
                # project the old class's record onto the *current*
                # interests — it may still carry sequences deleted by
                # delete_interest, which must not be resurrected in Il2c
                live_seqs = self._class_sequences[old_class] & self.interests
                new_seqs = live_seqs | {seq}
                is_loop = old_class in self._loop_classes
                for code in members:
                    self._remove_code(code, old_class)
                self._create_class(frozenset(new_seqs), is_loop, members)

    def delete_interest(self, seq: LabelSeq) -> None:
        """Drop a label sequence from the interests (Sec. V-C).

        Only the ``Il2c`` postings are removed; classes are left split
        (the paper: "while we do not merge two sets of paths, we can
        still guarantee correct query answers").
        """
        if len(seq) == 1:
            raise MaintenanceError("length-1 interests are mandatory (Sec. V-A)")
        if seq not in self.interests:
            raise MaintenanceError(f"{seq} is not an interest")
        self.interests = self.interests - {seq}
        self._il2c.pop(seq, None)
        self.invalidate_cache()

    # ------------------------------------------------------------------
    # internal helpers shared by the maintenance paths
    # ------------------------------------------------------------------
    def _reclassify(self, pairs: set[Pair]) -> None:
        encode = self.graph.interner.encode_pair
        regrouped: dict[tuple[frozenset[LabelSeq], bool], list[int]] = {}
        # Vertex pairs hash by string, so set order is salted per run;
        # sort (key=repr: vertices are only Hashable) so regrouped's
        # group order — and the fresh class ids — are deterministic.
        for pair in sorted(pairs, key=repr):
            new_seqs = frozenset(
                seq
                for seq in self.interests
                if _pair_matches(self.graph, pair, seq)
            )
            code = encode(pair)
            old_class = self._class_of.get(code)
            old_seqs = (
                self._class_sequences[old_class] & self.interests
                if old_class is not None
                else frozenset()
            )
            if new_seqs == old_seqs:
                continue
            if old_class is not None:
                self._remove_code(code, old_class)
            if new_seqs:
                key = (new_seqs, pair[0] == pair[1])
                regrouped.setdefault(key, []).append(code)
        for (seqs, is_loop), members in regrouped.items():
            self._create_class(seqs, is_loop, members)

    def _remove_code(self, code: int, class_id: int) -> None:
        members = self._ic2p[class_id].without_code(code)
        self._class_of.pop(code, None)
        if members:
            self._ic2p[class_id] = members
            return
        for seq in self._class_sequences[class_id]:
            postings = self._il2c.get(seq)
            if postings is not None:
                postings.discard(class_id)
                if not postings:
                    del self._il2c[seq]
        del self._ic2p[class_id]
        del self._class_sequences[class_id]
        self._loop_classes.discard(class_id)

    def _create_class(
        self, seqs: frozenset[LabelSeq], is_loop: bool, members: list[int]
    ) -> int:
        class_id = self._next_class
        self._next_class += 1
        self._ic2p[class_id] = PairSet.from_codes(members, self.graph.interner)
        self._class_sequences[class_id] = seqs
        for code in members:
            self._class_of[code] = class_id
        if is_loop:
            self._loop_classes.add(class_id)
        for seq in sorted(seqs):
            self._il2c.setdefault(seq, set()).add(class_id)
        return class_id

    def __repr__(self) -> str:
        return (
            f"InterestAwareIndex(k={self.k}, |Lq|={len(self.interests)}, "
            f"|C|={self.num_classes}, |P|={self.num_pairs})"
        )
