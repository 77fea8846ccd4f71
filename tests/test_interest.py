"""Unit tests for the interest-aware index iaCPQx (Sec. V)."""

from __future__ import annotations

import pytest

from repro.errors import IndexBuildError, MaintenanceError
from repro.core.cpqx import CPQxIndex
from repro.core.interest import InterestAwareIndex, _pair_matches
from repro.graph.generators import random_graph
from repro.graph.io import edges_from_strings
from repro.query.parser import parse
from repro.query.semantics import evaluate as reference
from repro.query.workloads import random_template_queries


@pytest.fixture()
def g():
    return edges_from_strings([
        "0 1 a", "1 2 b", "2 0 a", "0 0 b", "1 0 a", "2 3 b", "3 0 a",
    ])


class TestBuild:
    def test_singles_always_included(self, g):
        index = InterestAwareIndex.build(g, k=2, interests=set())
        assert (1,) in index.interests
        assert (-1,) in index.interests
        assert (2,) in index.interests

    def test_k_zero_rejected(self, g):
        with pytest.raises(IndexBuildError):
            InterestAwareIndex.build(g, 0)

    def test_interest_longer_than_k_rejected(self, g):
        with pytest.raises(IndexBuildError):
            InterestAwareIndex.build(g, 2, interests={(1, 2, 1)})

    def test_empty_interest_rejected(self, g):
        with pytest.raises(IndexBuildError):
            InterestAwareIndex.build(g, 2, interests={()})

    def test_classes_uniform_on_interests(self, g):
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2), (2, -2)})
        for class_id in list(index._ic2p):
            seqs = index.sequences_of_class(class_id)
            for pair in index.pairs_of_class(class_id):
                matched = {
                    seq for seq in index.interests
                    if _pair_matches(g, pair, seq)
                }
                assert matched == seqs

    def test_coarser_than_cpqx(self, g):
        """Interest-aware equivalence merges more pairs (Sec. V-A)."""
        full = CPQxIndex.build(g, k=2)
        ia = InterestAwareIndex.build(g, k=2, interests={(1, 2)})
        assert ia.num_classes <= full.num_classes
        assert ia.num_pairs <= full.num_pairs

    def test_size_shrinks_with_fewer_interests(self, g):
        many = InterestAwareIndex.build(
            g, k=2, interests={(1, 1), (1, 2), (2, -2), (-1, 1), (1, -1)}
        )
        few = InterestAwareIndex.build(g, k=2, interests=set())
        assert few.size_bytes() <= many.size_bytes()
        assert few.gamma() <= many.gamma()


class TestQueries:
    def test_interest_query_exact(self, g):
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2)})
        query = parse("a . b", g.registry)
        assert index.evaluate(query) == reference(query, g)

    def test_non_interest_query_still_correct(self, g):
        """Sequences outside Lq split into single-label lookups."""
        index = InterestAwareIndex.build(g, k=2, interests=set())
        for text in ("a . b", "(a . b) & (b . a)", "(a . a . a) & id", "b & id"):
            query = parse(text, g.registry)
            assert index.evaluate(query) == reference(query, g), text

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs_match_reference(self, seed):
        g = random_graph(18, 45, 3, seed=seed)
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2), (2, 1)})
        for template in ("C2", "T", "S", "St", "Ti", "C4"):
            for wq in random_template_queries(g, template, count=2, seed=seed):
                assert index.evaluate(wq.query) == reference(wq.query, g)

    def test_lookup_of_noninterest_sequence_empty(self, g):
        index = InterestAwareIndex.build(g, k=2, interests=set())
        assert index.lookup((1, 2)).classes == frozenset()

    def test_lookup_hands_out_the_posting_itself(self, g):
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2), (2, 1)})
        assert (1, 2) in index._il2c
        for seq, posting in index._il2c.items():
            assert index.lookup(seq).classes is posting

    def test_k3_with_three_label_interests(self, g):
        """Interests up to length k=3 answer diameter-3 chains in one hop."""
        index = InterestAwareIndex.build(g, k=3, interests={(1, 2, 1), (1, 1)})
        query = parse("a . b . a", g.registry)
        assert index.evaluate(query) == reference(query, g)
        assert index.lookup((1, 2, 1)).classes  # served as one lookup
        # and the identity-fused variant still works
        cyclic = parse("(a . b . a) & id", g.registry)
        assert index.evaluate(cyclic) == reference(cyclic, g)


class TestGraphMaintenance:
    def test_insert_edge(self, g):
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2)})
        index.insert_edge(3, 1, "a")
        query = parse("a . b", g.registry)
        assert index.evaluate(query) == reference(query, index.graph)

    def test_delete_edge(self, g):
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2)})
        index.delete_edge(0, 1, "a")
        query = parse("a . b", g.registry)
        assert index.evaluate(query) == reference(query, index.graph)

    def test_delete_missing_edge_raises(self, g):
        index = InterestAwareIndex.build(g, k=2)
        with pytest.raises(MaintenanceError):
            index.delete_edge(0, 1, "zz")

    def test_insert_edge_with_new_label_extends_interests(self, g):
        index = InterestAwareIndex.build(g, k=2)
        index.insert_edge(0, 3, "fresh")
        lid = index.graph.registry.id_of("fresh")
        assert (lid,) in index.interests
        assert index.evaluate(parse("fresh", index.graph.registry)) == {(0, 3)}


class TestInterestMaintenance:
    def test_insert_interest_accelerates_and_stays_exact(self, g):
        index = InterestAwareIndex.build(g, k=2)
        query = parse("a . b", g.registry)
        expected = reference(query, g)
        assert index.evaluate(query) == expected
        index.insert_interest((1, 2))
        assert (1, 2) in index.interests
        assert index.evaluate(query) == expected
        # now answered via a single lookup
        assert index.lookup((1, 2)).classes

    def test_insert_interest_idempotent(self, g):
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2)})
        before = index.num_classes
        index.insert_interest((1, 2))
        assert index.num_classes == before

    def test_insert_interest_bad_length(self, g):
        index = InterestAwareIndex.build(g, k=2)
        with pytest.raises(MaintenanceError):
            index.insert_interest((1, 2, 1))
        with pytest.raises(MaintenanceError):
            index.insert_interest(())

    def test_delete_interest(self, g):
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2)})
        query = parse("a . b", g.registry)
        expected = reference(query, g)
        index.delete_interest((1, 2))
        assert (1, 2) not in index.interests
        assert index.lookup((1, 2)).classes == frozenset()
        assert index.evaluate(query) == expected  # still answerable

    def test_delete_single_label_interest_forbidden(self, g):
        index = InterestAwareIndex.build(g, k=2)
        with pytest.raises(MaintenanceError):
            index.delete_interest((1,))

    def test_delete_unknown_interest(self, g):
        index = InterestAwareIndex.build(g, k=2)
        with pytest.raises(MaintenanceError):
            index.delete_interest((1, 9))

    def test_deleted_interest_not_resurrected(self):
        """insert_interest must not re-register sequences deleted earlier.

        Regression test: the old class's sequence record may still carry
        deleted interests; copying it verbatim into the fresh class would
        resurrect their Il2c postings, which can serve stale answers to
        direct lookups after further graph updates.
        """
        from repro.graph.io import edges_from_strings

        graph = edges_from_strings(["0 1 a", "1 2 b", "0 3 a", "3 2 a"])
        index = InterestAwareIndex.build(graph, k=2, interests={(1, 2)})
        index.delete_interest((1, 2))
        index.insert_interest((1, 1))  # touches the same (0, 2) pair
        assert (1, 2) not in index._il2c
        assert index.lookup((1, 2)).classes == frozenset()

    def test_interest_roundtrip_preserves_answers(self, g):
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2), (2, -2)})
        queries = [parse(t, g.registry) for t in ("a . b", "b . b^-", "(a.b)&(b.a)")]
        expected = [index.evaluate(q) for q in queries]
        index.delete_interest((1, 2))
        index.insert_interest((1, 2))
        assert [index.evaluate(q) for q in queries] == expected


class TestIntrospection:
    def test_accessors(self, g):
        index = InterestAwareIndex.build(g, k=2, interests={(1, 2)})
        assert index.num_classes == len(index._ic2p)
        some_class = next(iter(index._ic2p))
        assert index.pairs_of_class(some_class)
        pair = index.pairs_of_class(some_class)[0]
        assert index.class_of(pair) == some_class
        assert index.class_of(("x", "y")) is None
        assert index.num_sequences >= 1
        assert "InterestAwareIndex" in repr(index)

    def test_gamma_zero_on_empty(self):
        from repro.graph.digraph import LabeledDigraph

        g = LabeledDigraph()
        g.add_vertex(0)
        index = InterestAwareIndex.build(g, k=2)
        assert index.gamma() == 0.0
