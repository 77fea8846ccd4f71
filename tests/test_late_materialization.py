"""Late materialization: answers stay a code column until a consumer iterates.

The columnar engines (CPQx, iaCPQx, Path) return the plan root's
``PairSet``, and ``ResultSet`` keeps it.  Counting consumers — ``len``,
``count()``, ``is_empty()`` — must never decode a ``(v, u)`` tuple;
consumers that iterate must still see exactly ``[[q]]_G``.
"""

from __future__ import annotations

import pytest

from repro.core.pairset import PairSet
from repro.db import GraphDatabase
from repro.graph.generators import random_graph
from repro.query.semantics import evaluate
from repro.query.workloads import random_template_queries
from repro.serve.daemon.batching import encode_answers

CONJUNCTION_TEMPLATES = ("T", "S")
JOIN_TEMPLATES = ("C2", "TC", "Ti")

#: (engine key, served from an opened ``.rsx`` store)
CONFIGURATIONS = [
    ("cpqx", False), ("cpqx", True),
    ("iacpqx", False), ("iacpqx", True),
    ("path", False),
]


def _graph():
    return random_graph(24, 90, 3, seed=11)


def _queries(graph) -> list:
    return [
        wq.query
        for template in CONJUNCTION_TEMPLATES + JOIN_TEMPLATES
        for wq in random_template_queries(graph, template, count=2, seed=5)
    ]


def _session(engine: str, stored: bool, tmp_path) -> GraphDatabase:
    db = GraphDatabase.from_graph(_graph())
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


@pytest.fixture(params=CONFIGURATIONS, ids=lambda c: f"{c[0]}-{'rsx' if c[1] else 'owned'}")
def db(request, tmp_path):
    engine, stored = request.param
    return _session(engine, stored, tmp_path)


def _refuse(*_args, **_kwargs):
    raise AssertionError("a counting consumer decoded (v, u) tuples")


@pytest.fixture
def no_decode(monkeypatch):
    """Make every decode of a ``PairSet`` fail."""
    monkeypatch.setattr(PairSet, "to_set", _refuse)
    monkeypatch.setattr(PairSet, "__iter__", _refuse)


class TestCountingNeverDecodes:
    def test_counting_consumers(self, db, no_decode):
        queries = _queries(db.graph)
        assert queries
        for query in queries:
            assert isinstance(db.query(query).pairs(), PairSet)
            counted = len(db.query(query).pairs())
            assert len(db.query(query)) == counted
            assert db.query(query).count() == counted
            assert db.query(query).is_empty() == (counted == 0)
            materialized = db.query(query)
            materialized.pairs()
            assert materialized.count() == counted

    def test_uncached_counting_consumers(self, db, no_decode):
        db.engine.set_result_caching(False)
        for query in _queries(db.graph):
            assert len(db.query(query)) == db.query(query).count()


class TestIteratingConsumersDecode:
    def test_answers_equal_reference_semantics(self, db):
        for query in _queries(db.graph):
            expected = evaluate(query, db.graph)
            result = db.query(query)
            assert result.pairs() == expected
            assert result.to_list() == sorted(expected, key=repr)
            assert list(result) == sorted(expected, key=repr)
            assert encode_answers(result.pairs(), None) == encode_answers(expected, None)
            assert encode_answers(result.pairs(), 2) == encode_answers(expected, 2)

    def test_result_cache_hit_is_the_same_column(self, db):
        for query in _queries(db.graph):
            assert db.query(query).pairs() is db.query(query).pairs()


def test_process_slots_equal_thread_slots(tmp_path):
    db = _session("cpqx", True, tmp_path)
    queries = _queries(db.graph)
    threaded = db.serve_batch(queries, mode="thread")
    processed = db.serve_batch(queries, workers=2, mode="process")
    db.close()
    assert len(processed) == len(threaded) == len(queries)
    for process_slot, thread_slot in zip(processed, threaded, strict=True):
        assert isinstance(thread_slot.pairs(), PairSet)
        assert process_slot == thread_slot
        assert process_slot.pairs() == thread_slot.pairs()


class TestFirstAnswerMode:
    def test_limit_keeps_the_first_codes_in_class_order(self):
        """A limited class result gathers whole classes in ascending
        class-id order, each in code order, and stays a column."""
        db = GraphDatabase.from_graph(_graph()).build_index(engine="cpqx", k=2)
        index = db.engine
        for query in _queries(db.graph):
            full = index.evaluate(query)
            for limit in (0, 1, 3, 10):
                limited = index.evaluate(query, limit=limit)
                assert isinstance(limited, PairSet)
                assert len(limited) == min(limit, len(full))
                assert limited <= full
        label = db.graph.registry.id_of("l1")
        classes = sorted(index.lookup((label,)).classes)
        gathered = [code for cid in classes for code in index.expand_classes(frozenset((cid,))).codes]
        for limit in (1, 2, 5):
            limited = db.query("l1", limit=limit).pairs()
            assert sorted(limited.codes) == sorted(gathered[:limit])
