"""Unit tests for random workload generation (Sec. VI 'Queries')."""

from __future__ import annotations

import pytest

from repro.core.cpqx import CPQxIndex
from repro.db import GraphDatabase
from repro.graph.generators import random_graph
from repro.query.ast import label_sequences_in
from repro.query.semantics import evaluate
from repro.query.workloads import (
    mixed_emptiness_workload,
    random_template_queries,
    serving_queries,
    split_by_emptiness,
    subpaths_nonempty,
    workload_interests,
)


@pytest.fixture()
def g():
    return random_graph(num_vertices=40, num_edges=140, num_labels=3, seed=11)


class TestSubpathFilter:
    def test_filter_honoured(self, g):
        queries = random_template_queries(g, "C4", count=5, seed=1)
        for wq in queries:
            assert subpaths_nonempty(wq.query, g)

    def test_filter_rejects_unused_label(self, g):
        from repro.query.ast import EdgeLabel

        # label id 99 never occurs in the graph
        assert not subpaths_nonempty(EdgeLabel(99) >> EdgeLabel(1), g)

    def test_c2_filter_implies_nonempty_answer(self, g):
        """For C2 the whole sequence is a checked sub-path, so the filter
        guarantees a non-empty answer (used by the Fig. 7 bench)."""
        for wq in random_template_queries(g, "C2", count=8, seed=2):
            assert evaluate(wq.query, g)


class TestGeneration:
    def test_deterministic(self, g):
        first = random_template_queries(g, "S", count=5, seed=3)
        second = random_template_queries(g, "S", count=5, seed=3)
        assert [wq.labels for wq in first] == [wq.labels for wq in second]

    def test_distinct_label_choices(self, g):
        queries = random_template_queries(g, "T", count=8, seed=4)
        assert len({wq.labels for wq in queries}) == len(queries)

    def test_template_recorded(self, g):
        for wq in random_template_queries(g, "Ti", count=3, seed=5):
            assert wq.template == "Ti"

    def test_queries_are_resolved(self, g):
        from repro.query.ast import is_resolved

        for wq in random_template_queries(g, "TT", count=3, seed=6):
            assert is_resolved(wq.query)

    def test_empty_graph_yields_nothing(self):
        from repro.graph.digraph import LabeledDigraph

        assert random_template_queries(LabeledDigraph(), "C2", count=3, seed=0) == []

    def test_unfiltered_generation(self, g):
        queries = random_template_queries(
            g, "C4", count=5, seed=7, require_nonempty_subpaths=False
        )
        assert len(queries) == 5


class TestInterests:
    def test_interest_extraction_splits_long_sequences(self, g):
        queries = random_template_queries(g, "C4", count=4, seed=8)
        interests = workload_interests(queries, k=2)
        assert interests
        for seq in interests:
            assert 1 <= len(seq) <= 2

    def test_interests_cover_query_sequences(self, g):
        queries = random_template_queries(g, "S", count=4, seed=9)
        interests = workload_interests(queries, k=2)
        for wq in queries:
            for seq in label_sequences_in(wq.query):
                assert seq in interests  # S sequences have length 2 already

    def test_k3_keeps_triples(self, g):
        queries = random_template_queries(g, "Ti", count=4, seed=10)
        interests = workload_interests(queries, k=3)
        assert any(len(seq) == 3 for seq in interests)


class TestEmptinessSplit:
    def test_partition_is_exact(self, g):
        queries = random_template_queries(g, "S", count=10, seed=11)
        non_empty, empty = split_by_emptiness(queries, g)
        assert len(non_empty) + len(empty) == len(queries)
        for wq in non_empty:
            assert evaluate(wq.query, g)
        for wq in empty:
            assert not evaluate(wq.query, g)

    def test_mixed_workload_targets_fraction(self, g):
        workload = mixed_emptiness_workload(g, "S", count=6, empty_fraction=0.5, seed=12)
        assert len(workload) <= 6
        if len(workload) == 6:
            non_empty, empty = split_by_emptiness(workload, g)
            # achieved mix should be within one query of the target
            assert abs(len(empty) - 3) <= 3


class TestServingQueries:
    @pytest.fixture()
    def stream(self):
        graph = random_graph(40, 150, 3, seed=3)
        return graph, serving_queries(graph, seed=3)

    def test_stream_is_distinct_and_deterministic(self, stream):
        graph, queries = stream
        assert len(queries) > 50
        assert len(set(queries)) == len(queries)
        assert serving_queries(graph, seed=3) == queries

    def test_cpqx_and_session_match_the_reference_semantics(self, stream):
        graph, queries = stream
        expected = [evaluate(query, graph) for query in queries]
        engine = CPQxIndex.build(graph, k=2)
        assert [engine.evaluate(query) for query in queries] == expected
        db = GraphDatabase.from_graph(graph).build_index(engine="cpqx", k=2)
        batch = db.execute_batch(queries)
        assert [result.pairs() for result in batch.results] == expected
