"""Unit tests for the CPQx index: construction, lookups, properties."""

from __future__ import annotations

import copy

import pytest

from repro import GraphDatabase
from repro.errors import IndexBuildError, QueryDiameterError
from repro.core.cpqx import CPQxIndex
from repro.core.paths import enumerate_sequences, reachable_pairs
from repro.graph.generators import random_graph
from repro.graph.io import edges_from_strings
from repro.query.parser import parse
from repro.query.semantics import evaluate as reference
from repro.query.templates import TEMPLATES
from repro.query.workloads import random_template_queries


@pytest.fixture()
def g():
    return edges_from_strings(["0 1 a", "1 2 b", "2 0 a", "0 0 b"])


@pytest.fixture()
def index(g):
    return CPQxIndex.build(g, k=2)


class TestBuild:
    def test_k_zero_rejected(self, g):
        with pytest.raises(IndexBuildError):
            CPQxIndex.build(g, 0)

    def test_unknown_method_rejected(self, g):
        with pytest.raises(IndexBuildError):
            CPQxIndex.build(g, 2, il2c_method="nope")

    def test_both_construction_methods_agree(self, g):
        rep = CPQxIndex.build(g, 2, il2c_method="representative")
        per_pair = CPQxIndex.build(g, 2, il2c_method="per-pair")
        assert rep.num_classes == per_pair.num_classes
        assert rep.size_bytes() == per_pair.size_bytes()
        for seq in enumerate_sequences(g, 2):
            assert rep.lookup(seq).classes == per_pair.lookup(seq).classes

    def test_indexes_exactly_pk(self, g, index):
        assert index.num_pairs == len(reachable_pairs(g, 2))

    def test_every_sequence_is_keyed(self, g, index):
        for seq, pairs in enumerate_sequences(g, 2).items():
            classes = index.lookup(seq).classes
            assert classes, seq
            assert index.expand_classes(classes) == frozenset(pairs)


class TestLookup:
    def test_lookup_unknown_sequence_empty(self, index):
        assert index.lookup((99,)).classes == frozenset()

    def test_lookup_too_long_raises(self, index):
        with pytest.raises(QueryDiameterError):
            index.lookup((1, 2, 1))

    def test_lookup_returns_class_result(self, index):
        result = index.lookup((1,))
        assert result.classes is not None
        assert result.pairs is None

    def test_lookup_hands_out_the_posting_itself(self, index):
        for seq, posting in index._il2c.items():
            assert index.lookup(seq).classes is posting


def _indexed_session(engine: str, stored: bool, tmp_path) -> GraphDatabase:
    db = GraphDatabase.from_graph(random_graph(24, 90, 3, seed=11))
    if engine == "iacpqx":
        l1, l2 = (db.graph.registry.id_of(name) for name in ("l1", "l2"))
        db.build_index(engine=engine, k=2, interests=[(l1, l2), (l2, l1), (l1, -l1)])
    else:
        db.build_index(engine=engine, k=2)
    if not stored:
        return db
    path = tmp_path / f"{engine}.rsx"
    db.save(path, format="store")
    return GraphDatabase.open(path)


class TestEvaluationNeverWritesAPosting:
    """``lookup`` hands the executor live ``Il2c`` postings; every
    consumer only reads them, and maintenance moves the freshness token
    before it touches one."""

    @pytest.mark.parametrize("stored", [False, True], ids=["owned", "rsx"])
    @pytest.mark.parametrize("engine", ["cpqx", "iacpqx"])
    def test_every_consumer_leaves_postings_intact(self, engine, stored, tmp_path):
        db = _indexed_session(engine, stored, tmp_path)
        index = db.engine
        il2c = copy.deepcopy(index._il2c)
        loops = copy.deepcopy(index._loop_classes)
        queries = [
            wq.query
            for template in TEMPLATES
            for wq in random_template_queries(db.graph, template, count=2, seed=5)
        ]
        assert len(queries) >= 2 * len(TEMPLATES) - 2
        # class-id conjunctions of two lookups, on iaCPQx's interests too
        queries += ["l1 & l2", "(l1 . l2) & (l2 . l1)", "(l1 . l1^-) & l1 & id"]
        for caching in (False, True):
            index.set_result_caching(caching)
            for query in queries:
                db.query(query).pairs()
                db.query(query).count()
                db.query(query).explain()
                db.query(query, limit=3).pairs()
        assert index._il2c == il2c
        assert index._loop_classes == loops

    @pytest.mark.parametrize("engine", ["cpqx", "iacpqx"])
    def test_subplan_entry_from_before_update_is_not_served(self, engine):
        db = GraphDatabase.from_triples([("0", "1", "a"), ("1", "2", "a"), ("2", "0", "b")])
        db.build_index(engine=engine, k=2)
        text = "(a . a) & b^-"  # two lookups conjoined on class ids
        assert db.query(text).pairs() == {("0", "2")}
        memo = db.engine._memo_subplans
        assert any(result.classes is not None for result, _ in memo._data.values())
        db.update(add_edges=[("2", "3", "a"), ("3", "1", "b")])
        answers = db.query(text).pairs()
        assert answers == {("0", "2"), ("1", "3")}
        assert answers == reference(parse(text, db.graph.registry), db.graph)
        assert db.engine._memo_subplans is not memo


class TestClassAccessors:
    def test_class_of_indexed_pair(self, index):
        assert index.class_of((0, 1)) is not None

    def test_class_of_missing_pair(self, index):
        assert index.class_of((99, 98)) is None

    def test_pairs_of_class_copy(self, index):
        class_id = index.class_of((0, 1))
        pairs = index.pairs_of_class(class_id)
        pairs.append(("junk", "junk"))
        assert ("junk", "junk") not in index.pairs_of_class(class_id)

    def test_sequences_of_class_uniform(self, g, index):
        from repro.core.paths import label_sequences_for_pair

        for class_id in index.classes():
            expected = index.sequences_of_class(class_id)
            for pair in index.pairs_of_class(class_id):
                assert label_sequences_for_pair(g, pair[0], pair[1], 2) == expected

    def test_loop_classes(self, index):
        loops = index.loop_classes_of(frozenset(index.classes()))
        for class_id in loops:
            for v, u in index.pairs_of_class(class_id):
                assert v == u


class TestSizeAccounting:
    def test_size_positive_and_decomposable(self, index):
        assert index.size_bytes() > 0

    def test_gamma_at_least_one(self, index):
        assert index.gamma() >= 1.0

    def test_size_smaller_than_path_on_redundant_graph(self):
        """Thm. 4.2's comparison on a graph with high γ."""
        from repro.baselines.path_index import PathIndex

        g = edges_from_strings([
            f"{v} {u} {lab}"
            for v in range(5) for u in range(5) if v != u
            for lab in ("a", "b")
        ])
        cpqx = CPQxIndex.build(g, 2)
        path = PathIndex.build(g, 2)
        assert cpqx.gamma() > 2
        assert cpqx.size_bytes() < path.size_bytes()

    def test_num_sequences_matches_enumeration(self, g, index):
        assert index.num_sequences == len(enumerate_sequences(g, 2))


class TestEvaluation:
    def test_simple_queries(self, g, index):
        registry = g.registry
        assert index.evaluate(parse("a", registry)) == {(0, 1), (2, 0)}
        assert index.evaluate(parse("a . b", registry)) == {(0, 2), (2, 0)}
        assert index.evaluate(parse("b & id", registry)) == {(0, 0)}

    def test_three_hop_query_splits(self, g, index):
        """Diameter-3 query on a k=2 index exercises the Fig. 4 split."""
        assert index.evaluate(parse("(a . b . a) & id", g.registry)) == {(0, 0)}

    def test_name_form_query_resolved_automatically(self, g, index):
        from repro.query.ast import label

        assert index.evaluate(label("a")) == {(0, 1), (2, 0)}

    def test_empty_answer(self, g, index):
        assert index.evaluate(parse("a & b", g.registry)) == frozenset()

    def test_limit_one(self, g, index):
        answer = index.evaluate(parse("a", g.registry), limit=1)
        assert len(answer) == 1
        assert answer <= {(0, 1), (2, 0)}

    def test_stats_collection(self, g, index):
        from repro.core.executor import ExecutionStats

        stats = ExecutionStats()
        index.evaluate(parse("(a . a^-) & (b . b^-)", g.registry), stats=stats)
        assert stats.lookups == 2
        assert stats.class_conjunctions == 1
        assert stats.classes_touched > 0

    def test_repr(self, index):
        assert "CPQxIndex" in repr(index)


class TestAgainstReferenceOnRandomGraphs:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_reference(self, seed, k):
        from tests.conftest import assert_engine_matches_reference
        from repro.query.workloads import random_template_queries

        g = random_graph(18, 45, 3, seed=seed)
        index = CPQxIndex.build(g, k=k)
        queries = []
        for template in ("C2", "T", "S", "C2i", "Ti", "C4"):
            queries.extend(
                wq.query
                for wq in random_template_queries(g, template, count=2, seed=seed)
            )
        assert_engine_matches_reference(index, queries, g)
