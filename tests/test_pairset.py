"""Property tests for the columnar PairSet against reference set semantics."""

from __future__ import annotations

from collections.abc import Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.graph.digraph import LabeledDigraph
from repro.graph.interner import VertexInterner, pack_pair, unpack_pair
from repro.core.pairset import PairSet

#: Small id universe so random pair sets collide often (the interesting case).
ids = st.integers(min_value=0, max_value=30)
pairs = st.tuples(ids, ids)
pair_sets = st.sets(pairs, max_size=120)


def make_interner(n: int = 31) -> VertexInterner:
    return VertexInterner(range(n))


def encode(pair_set: set, interner: VertexInterner) -> PairSet:
    return PairSet.from_vertex_pairs(pair_set, interner)


def reference(ps: PairSet) -> set:
    return set(ps.to_set())


class TestCodecs:
    def test_pack_unpack_roundtrip(self):
        for v, u in ((0, 0), (1, 2), (2**32 - 1, 5), (7, 2**32 - 1)):
            assert unpack_pair(pack_pair(v, u)) == (v, u)

    def test_interner_assigns_dense_ids(self):
        interner = VertexInterner()
        assert [interner.intern(v) for v in ("a", "b", "a", "c")] == [0, 1, 0, 2]
        assert interner.vertex_of(1) == "b"
        assert len(interner) == 3


class TestConstruction:
    def test_from_codes_sorts_and_dedups(self):
        interner = make_interner()
        ps = PairSet.from_codes([5, 3, 5, 1], interner)
        assert list(ps.iter_codes()) == [1, 3, 5]

    def test_lazy_set_freezes_on_demand(self):
        interner = make_interner()
        ps = PairSet.from_code_set({9, 2, 4}, interner)
        assert not ps.is_frozen()
        assert len(ps) == 3
        assert list(ps.iter_codes()) == [2, 4, 9]
        assert ps.is_frozen()

    def test_vertex_pairs_roundtrip(self):
        interner = VertexInterner()
        graph_pairs = {("a", "b"), ("b", "a"), (("x", 1), "a")}
        for v, u in graph_pairs:
            interner.intern(v)
            interner.intern(u)
        ps = PairSet.from_vertex_pairs(graph_pairs, interner)
        assert ps.to_set() == graph_pairs


class TestSetAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=pair_sets, b=pair_sets)
    def test_union_matches_set_semantics(self, a, b):
        interner = make_interner()
        assert reference(encode(a, interner) | encode(b, interner)) == a | b

    @settings(max_examples=60, deadline=None)
    @given(a=pair_sets, b=pair_sets)
    def test_intersection_matches_set_semantics(self, a, b):
        interner = make_interner()
        assert reference(encode(a, interner) & encode(b, interner)) == a & b

    @settings(max_examples=60, deadline=None)
    @given(a=pair_sets, b=pair_sets)
    def test_difference_matches_set_semantics(self, a, b):
        interner = make_interner()
        assert reference(encode(a, interner) - encode(b, interner)) == a - b

    @settings(max_examples=60, deadline=None)
    @given(a=pair_sets, b=pair_sets)
    def test_lazy_and_frozen_operands_agree(self, a, b):
        interner = make_interner()
        frozen_a = encode(a, interner)
        lazy_a = PairSet.from_code_set(set(frozen_a.iter_codes()), interner)
        frozen_b = encode(b, interner)
        for op in ("__and__", "__or__", "__sub__"):
            lazy_result = getattr(lazy_a, op)(frozen_b)
            frozen_result = getattr(frozen_a, op)(frozen_b)
            assert lazy_result == frozen_result

    @settings(max_examples=60, deadline=None)
    @given(a=pair_sets, b=pair_sets)
    def test_compose_matches_reference_join(self, a, b):
        interner = make_interner()
        expected = {(v, u) for v, m in a for m2, u in b if m == m2}
        got = reference(encode(a, interner).compose(encode(b, interner)))
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(a=pair_sets, b=pair_sets)
    def test_compose_loops_only_matches_filtered_join(self, a, b):
        interner = make_interner()
        expected = {
            (v, u) for v, m in a for m2, u in b if m == m2 and v == u
        }
        got = reference(
            encode(a, interner).compose(encode(b, interner), loops_only=True)
        )
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(a=pair_sets)
    def test_loops_filter(self, a):
        interner = make_interner()
        assert reference(encode(a, interner).loops()) == {
            (v, u) for v, u in a if v == u
        }

    @settings(max_examples=60, deadline=None)
    @given(a=pair_sets, b=pair_sets)
    def test_equality_and_interop_with_plain_sets(self, a, b):
        interner = make_interner()
        ps = encode(a, interner)
        assert ps == a
        assert (ps == b) == (a == b)
        # mixed operator falls back to decoded frozensets
        assert ps & frozenset(b) == a & b


BACKINGS = ("owned", "lazy", "mapped")


def backed(pair_set: set, backing: str, interner: VertexInterner) -> PairSet:
    """``pair_set`` as a PairSet with the given physical backing."""
    owned = encode(pair_set, interner)
    if backing == "lazy":
        return PairSet.from_code_set(set(owned.iter_codes()), interner)
    if backing == "mapped":
        return PairSet.from_mapped(memoryview(owned.codes), interner)
    return owned


@st.composite
def related_pair_sets(draw):
    """Two pair sets that are often equal, nested or disjoint."""
    a = draw(pair_sets)
    shape = draw(st.sampled_from(("independent", "subset", "superset", "equal")))
    if shape == "equal":
        return a, set(a)
    if shape == "independent":
        return a, draw(pair_sets)
    part = {pair for pair in a if draw(st.booleans())}
    return (a, part) if shape == "subset" else (part, a)


COMPARISONS = (
    ("<=", lambda x, y: x <= y),
    ("<", lambda x, y: x < y),
    (">=", lambda x, y: x >= y),
    (">", lambda x, y: x > y),
    ("==", lambda x, y: x == y),
    ("!=", lambda x, y: x != y),
    ("isdisjoint", lambda x, y: x.isdisjoint(y)),
)
ALGEBRA = (
    ("&", lambda x, y: x & y),
    ("|", lambda x, y: x | y),
    ("-", lambda x, y: x - y),
    ("^", lambda x, y: x ^ y),
)


class TestSetProtocol:
    """PairSet is a ``collections.abc.Set`` with frozenset semantics."""

    @settings(max_examples=80, deadline=None)
    @given(
        operands=related_pair_sets(),
        backing_a=st.sampled_from(BACKINGS),
        backing_b=st.sampled_from(BACKINGS),
    )
    def test_operators_match_frozenset(self, operands, backing_a, backing_b):
        a, b = (frozenset(operand) for operand in operands)
        interner = make_interner()
        # Same vertices, different ids: the decoded cross-interner path.
        foreign = VertexInterner(reversed(range(31)))
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                pa = backed(a, backing_a, interner)
                pb = backed(b, backing_b, interner)
                mixes = {
                    "same interner": (pa, pb),
                    "other interner": (pa, backed(b, backing_b, foreign)),
                    "PairSet op frozenset": (pa, b),
                    "frozenset op PairSet": (a, pb),
                }
                for mix, (left, right) in mixes.items():
                    for name, op in COMPARISONS:
                        assert op(left, right) == op(a, b), (backend, mix, name)
                    for name, op in ALGEBRA:
                        assert set(op(left, right)) == op(a, b), (backend, mix, name)

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("backing_b", BACKINGS)
    @pytest.mark.parametrize("backing_a", BACKINGS)
    def test_same_interner_comparisons_never_decode(
        self, monkeypatch, backend, backing_a, backing_b
    ):
        interner = make_interner()
        small = {(1, 2), (3, 3)}
        with kernels.use_backend(backend):
            pa = backed(small, backing_a, interner)
            pb = backed(small | {(4, 5)}, backing_b, interner)

            def refuse(*_args):
                raise AssertionError("decoded")

            monkeypatch.setattr(PairSet, "to_set", refuse)
            monkeypatch.setattr(PairSet, "__iter__", refuse)
            assert pa <= pb and pa < pb and pb >= pa and pb > pa
            assert not pb <= pa and pa != pb
            assert pa == backed(small, backing_b, interner)
            assert not pa.isdisjoint(pb)
            assert (pa ^ pb) == backed({(4, 5)}, "owned", interner)

    def test_is_a_set_and_hashes_like_frozenset(self):
        interner = make_interner()
        ps = encode({(1, 2), (2, 1)}, interner)
        assert isinstance(ps, Set)
        assert hash(ps) == hash(frozenset({(1, 2), (2, 1)}))
        assert ps == {(1, 2), (2, 1)} and {(1, 2), (2, 1)} == ps
        assert ps != {(1, 2)} and ps != [(1, 2), (2, 1)]


class TestGallopingPaths:
    def test_skewed_intersection_uses_galloping(self):
        interner = make_interner()
        big = PairSet.from_codes(range(0, 2000, 2), interner)
        small = PairSet.from_codes([4, 5, 1000, 1001, 1998], interner)
        assert list((small & big).iter_codes()) == [4, 1000, 1998]

    def test_skewed_union_and_difference(self):
        interner = make_interner()
        big = PairSet.from_codes(range(0, 3000, 3), interner)
        small = PairSet.from_codes([1, 3, 2998], interner)
        assert set((big | small).iter_codes()) == set(range(0, 3000, 3)) | {1, 2998}
        assert set((small - big).iter_codes()) == {1, 2998}

    def test_union_disjoint_merges_classes(self):
        interner = make_interner()
        parts = [
            PairSet.from_codes([1, 10], interner),
            PairSet.from_codes([5], interner),
            PairSet.from_codes([2, 7], interner),
        ]
        merged = PairSet.union_disjoint(parts, interner)
        assert list(merged.iter_codes()) == [1, 2, 5, 7, 10]


class TestPointUpdates:
    def test_with_and_without_code(self):
        interner = make_interner()
        ps = PairSet.from_codes([1, 5], interner)
        grown = ps.with_code(3)
        assert list(grown.iter_codes()) == [1, 3, 5]
        assert list(ps.iter_codes()) == [1, 5]  # persistent
        shrunk = grown.without_code(5)
        assert list(shrunk.iter_codes()) == [1, 3]
        with pytest.raises(KeyError):
            shrunk.without_code(99)

    def test_contains(self):
        interner = make_interner()
        ps = PairSet.from_vertex_pairs({(1, 2)}, interner)
        assert (1, 2) in ps
        assert (2, 1) not in ps
        assert ("nope", 2) not in ps
        assert "not-a-pair" not in ps


class TestInternerRoundTripThroughGraph:
    @pytest.mark.parametrize(
        "vertices",
        [
            ["a", "b", "c"],
            [1, 2, 3],
            ["a", 1, ("t", 2), "b"],
        ],
        ids=["strings", "ints", "mixed"],
    )
    def test_graph_interner_roundtrips_vertices(self, vertices):
        graph = LabeledDigraph()
        for i, v in enumerate(vertices):
            graph.add_edge(v, vertices[(i + 1) % len(vertices)], "l")
        interner = graph.interner
        for v in vertices:
            assert interner.vertex_of(interner.id_of(v)) == v
        ps = PairSet.from_vertex_pairs(
            {(vertices[0], vertices[-1])}, interner
        )
        assert ps.to_set() == {(vertices[0], vertices[-1])}

    def test_removed_vertex_keeps_decodable_id(self):
        graph = LabeledDigraph()
        graph.add_edge("a", "b", "l")
        vid = graph.interner.id_of("b")
        graph.remove_vertex("b")
        assert graph.interner.vertex_of(vid) == "b"

    def test_graph_version_bumps_on_mutation(self):
        graph = LabeledDigraph()
        v0 = graph.version
        graph.add_edge("a", "b", "l")
        v1 = graph.version
        assert v1 > v0
        graph.remove_edge("a", "b", "l")
        assert graph.version > v1
