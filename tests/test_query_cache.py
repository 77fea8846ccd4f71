"""Cache correctness: memoized results must never survive a mutation.

The executor memoizes at three levels — per-evaluation subplan memo,
cross-query subplan LRU, and the evaluate/count result LRU — all guarded
by a ``(graph version, engine epoch)`` token.  These tests drive every
mutation path that changes query answers and assert the memo layers are
retired: ``GraphDatabase.update()`` on incremental engines (lazy
maintenance) and rebuild engines (transparent rebuild), direct engine
maintenance, and iaCPQx interest insertion/deletion.

The text-keyed statement memo is tokenless by design (label ids are
append-only); :class:`TestStatementMemo` pins its lifetime instead: it
survives in-place updates, dies with its engine, is off with caching
off, and never stores a failed parse.
"""

from __future__ import annotations

import pytest

import repro.db.session as session_module
from repro import GraphDatabase
from repro.core.cache import LRUCache
from repro.core.executor import ExecutionStats, execute_plan
from repro.errors import ReproError
from repro.query.semantics import evaluate as reference_evaluate
from repro.query.parser import parse


TRIANGLE = [("a", "b", "f"), ("b", "c", "f"), ("c", "a", "f")]


def fresh_db(engine: str) -> GraphDatabase:
    db = GraphDatabase.from_triples(TRIANGLE)
    db.build_index(engine=engine, k=2)
    return db


def assert_matches_reference(db: GraphDatabase, text: str) -> None:
    query = parse(text, db.graph.registry)
    assert db.query(text).pairs() == reference_evaluate(query, db.graph)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)           # evicts 'b'
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_token_is_opaque(self):
        cache = LRUCache(4, token=(3, 1))
        assert cache.token == (3, 1)


@pytest.mark.parametrize("engine", ["cpqx", "iacpqx"])
class TestIncrementalEngineInvalidation:
    """update() routes through lazy maintenance; caches must refresh."""

    def test_insert_changes_cached_answer(self, engine):
        db = fresh_db(engine)
        before = db.query("f . f").pairs()
        assert db.query("f . f").pairs() == before  # second read: cache hit
        db.update(add_edges=[("a", "d", "f"), ("d", "a", "f")])
        after = db.query("f . f").pairs()
        assert after != before
        assert_matches_reference(db, "f . f")

    def test_delete_changes_cached_answer(self, engine):
        db = fresh_db(engine)
        before = db.query("f . f").pairs()
        db.update(remove_edges=[("b", "c", "f")])
        after = db.query("f . f").pairs()
        assert after != before
        assert_matches_reference(db, "f . f")

    def test_count_cache_invalidated(self, engine):
        db = fresh_db(engine)
        before = db.query("f & f").count()
        assert db.query("f & f").count() == before
        db.update(add_edges=[("a", "c", "f")])
        assert db.query("f & f").count() == before + 1

    def test_conjunctive_query_after_update(self, engine):
        db = fresh_db(engine)
        db.query("(f . f) & f^-").pairs()
        db.update(add_edges=[("c", "b", "f")])
        assert_matches_reference(db, "(f . f) & f^-")


@pytest.mark.parametrize("engine", ["path", "bfs"])
class TestRebuildEngineInvalidation:
    """Non-incremental engines are rebuilt by update(); the fresh engine
    must not inherit (or re-serve) stale memoized answers."""

    def test_insert_and_delete_refresh_answers(self, engine):
        db = fresh_db(engine)
        before = db.query("f . f").pairs()
        assert db.query("f . f").pairs() == before
        db.update(add_edges=[("c", "b", "f")])
        assert_matches_reference(db, "f . f")
        db.update(remove_edges=[("c", "b", "f")])
        assert db.query("f . f").pairs() == before


class TestDirectMaintenanceInvalidation:
    """Engine-level maintenance (not via the session) must also retire
    memoized answers through the graph-version token."""

    def test_cpqx_insert_edge(self):
        db = fresh_db("cpqx")
        engine = db.engine
        query = parse("f . f", db.graph.registry)
        before = engine.evaluate(query)
        engine.insert_edge("a", "c", "f")
        after = engine.evaluate(query)
        assert after == reference_evaluate(query, db.graph)
        assert after != before

    def test_iacpqx_interest_mutations(self):
        db = GraphDatabase.from_triples(TRIANGLE)
        db.build_index(engine="iacpqx", k=2, interests={(1, 1)})
        engine = db.engine
        query = parse("f . f", db.graph.registry)
        before = engine.evaluate(query)
        engine.delete_interest((1, 1))
        engine.insert_interest((1, 1))
        assert engine.evaluate(query) == before == reference_evaluate(
            query, db.graph
        )

    def test_vertex_data_changes_invalidate(self):
        db = fresh_db("cpqx")
        db.query("f").pairs()
        db.graph.set_vertex_data("a", kind="person")
        kept = db.query("f", source_filter=lambda d: d.get("kind") == "person")
        assert kept.sources() == {"a"}


class TestStatsReplayOnHits:
    """Memo hits replay the recorded operator counters, so profiling a
    cached evaluation reads the same Table III numbers as the original."""

    def test_result_cache_replays_stats(self):
        db = fresh_db("cpqx")
        engine = db.engine
        query = parse("(f . f) & f^-", db.graph.registry)
        first = ExecutionStats()
        engine.evaluate(query, stats=first)
        second = ExecutionStats()
        engine.evaluate(query, stats=second)
        assert (second.lookups, second.joins, second.class_conjunctions) == (
            first.lookups, first.joins, first.class_conjunctions,
        )

    def test_subplan_sharing_across_distinct_queries(self):
        db = fresh_db("cpqx")
        engine = db.engine
        registry = db.graph.registry
        engine.evaluate(parse("(f . f . f) & f", registry))
        stats = ExecutionStats()
        # distinct query, shared (f.f.f) subplan — counters still replay
        engine.evaluate(parse("(f . f . f) & f^-", registry), stats=stats)
        assert stats.lookups >= 2

    def test_caching_disabled_still_memoizes_within_one_query(self):
        db = fresh_db("cpqx")
        engine = db.engine
        engine.set_result_caching(False)
        query = parse("(f . f . f) & (f . f . f)", db.graph.registry)
        stats = ExecutionStats()
        answers = engine.evaluate(query, stats=stats)
        assert answers == reference_evaluate(query, db.graph)
        # the duplicated join subtree ran once; its counters replayed once
        assert stats.joins >= 1


class _Forgetful(dict):
    """A memo that never remembers: every subexpression executes."""

    def get(self, key, default=None):
        return None

    def __setitem__(self, key, value):
        pass


class TestStatsEqualUncachedRun:
    """Every memo layer reports the counters of an evaluation that ran
    every plan node: the stored per-node deltas are never written after
    they are stored, however often they are replayed."""

    TEXT = "(f . f . f) & (f . f . f) & f^-"  # repeats (f . f . f)

    @pytest.mark.parametrize("engine", ["cpqx", "iacpqx"])
    def test_every_memo_layer_reports_the_uncached_counters(self, engine):
        plain = fresh_db(engine)
        plain.engine.set_result_caching(False)
        expected = plain.query(self.TEXT)
        expected.pairs()
        # the repeated subexpression, remembered within one query, reads
        # as if it had run twice
        executed = ExecutionStats()
        execute_plan(
            plain.engine.plan(parse(self.TEXT, plain.graph.registry)),
            plain.engine,
            stats=executed,
            memo=_Forgetful(),
        )
        assert expected.stats == executed
        assert expected.stats.joins == 2

        cached = fresh_db(engine)
        cached.query("(f . f . f) & f").pairs()  # leaves (f . f . f) in the subplan LRU
        for _ in range(3):  # a subplan-LRU hit, then result-LRU hits
            result = cached.query(self.TEXT)
            result.pairs()
            assert result.stats == expected.stats


def count_parses(monkeypatch) -> list[str]:
    """Record every text the session hands to the parser."""
    calls: list[str] = []
    real = session_module.parse

    def counting(text, registry=None):
        calls.append(text)
        return real(text, registry)

    monkeypatch.setattr(session_module, "parse", counting)
    return calls


@pytest.mark.parametrize("engine", ["cpqx", "iacpqx", "path"])
class TestStatementMemo:
    """Query text → resolved CPQ, per engine object."""

    TEXTS = ("f", "(f . f) & f^-", "(f . f . f) & id")

    def test_repeated_text_is_one_statement(self, engine, monkeypatch):
        db = fresh_db(engine)
        calls = count_parses(monkeypatch)
        for text in self.TEXTS:
            first = db.query(text)
            again = db.query(text)
            assert again.query is first.query
            assert again.pairs() == reference_evaluate(first.query, db.graph)
        assert calls == list(self.TEXTS)

    def test_statement_survives_update_and_answers_refresh(self, engine):
        db = fresh_db(engine)
        text = "(f . f) & f^-"
        before = db.query(text)
        assert before.pairs() == {("a", "c"), ("b", "a"), ("c", "b")}
        memo = db.engine.statement_cache()
        db.update(add_edges=[("a", "d", "f"), ("d", "c", "f")])
        after = db.query(text)
        if engine == "path":
            # A rebuild engine is replaced by update(): its memo goes too.
            assert db.engine.statement_cache() is not memo
            assert after.query is not before.query
        else:
            assert db.engine.statement_cache() is memo
            assert after.query is before.query
        assert after.query == before.query
        assert after.pairs() == reference_evaluate(after.query, db.graph)
        assert {("d", "a"), ("c", "d")} <= after.pairs()

    def test_unknown_label_raises_every_time(self, engine, monkeypatch):
        db = fresh_db(engine)
        calls = count_parses(monkeypatch)
        for _ in range(3):
            with pytest.raises(ReproError):
                db.query("fresh & f")
        assert calls == ["fresh & f"] * 3
        assert "fresh & f" not in db.engine.statement_cache()
        db.update(add_edges=[("a", "b", "fresh")])
        assert db.query("fresh & f").pairs() == {("a", "b")}
        assert db.query("fresh & f").pairs() == {("a", "b")}
        assert calls == ["fresh & f"] * 4

    def test_caching_off_parses_every_call(self, engine, monkeypatch):
        db = fresh_db(engine)
        db.query("f").pairs()  # attaches a memo, which switching off drops
        db.engine.set_result_caching(False)
        assert db.engine.statement_cache() is None
        calls = count_parses(monkeypatch)
        texts = ["f", "(f . f) & f^-"] * 3
        db.execute_batch(texts)
        for text in texts:
            assert db.query(text).pairs() == reference_evaluate(
                parse(text, db.graph.registry), db.graph
            )
        assert calls == texts + texts

    def test_oversized_text_is_parsed_but_not_stored(self, engine, monkeypatch):
        db = fresh_db(engine)
        limit = db.engine.statement_text_limit
        text = "(f . f) & f^-" + " " * limit
        calls = count_parses(monkeypatch)
        for _ in range(2):
            assert db.query(text).pairs() == {("a", "c"), ("b", "a"), ("c", "b")}
        assert calls == [text, text]
        assert text not in db.engine.statement_cache()
        at_limit = text[:limit]
        db.query(at_limit)
        db.query(at_limit)
        assert calls == [text, text, at_limit]
        assert at_limit in db.engine.statement_cache()

    def test_eviction_follows_lru_order(self, engine):
        db = fresh_db(engine)
        db.engine.statement_cache_capacity = 2
        first = db.query("f").query
        db.query("f^-")
        assert db.query("f").query is first  # refresh "f"
        db.query("f . f")                       # evicts "f^-"
        memo = db.engine.statement_cache()
        assert len(memo) == 2
        assert "f^-" not in memo
        assert "f" in memo and "f . f" in memo
        assert db.query("f").query is first

    def test_build_and_reload_start_a_fresh_memo(self, engine, tmp_path):
        db = fresh_db(engine)
        old = db.query("f & f").query
        memo = db.engine.statement_cache()
        db.build_index(engine=engine, k=2)
        assert db.engine.statement_cache() is not memo
        rebuilt = db.query("f & f").query
        assert rebuilt == old and rebuilt is not old
        path = tmp_path / "triangle.idx"
        fresh_db("cpqx").save(path)
        memo = db.engine.statement_cache()
        db.reload(path)
        assert db.engine.statement_cache() is not memo
        assert len(db.engine.statement_cache()) == 0
        reloaded = db.query("f & f")
        assert reloaded.query == old and reloaded.query is not rebuilt
        assert reloaded.pairs() == reference_evaluate(reloaded.query, db.graph)


@pytest.mark.parametrize("engine", ["bfs", "turbohom", "tentris"])
def test_baseline_engines_answer_text_queries(engine):
    db = fresh_db(engine)
    for _ in range(2):
        assert_matches_reference(db, "(f . f) & f^-")
        assert_matches_reference(db, "f . f . f")
