"""Lazy query results for the :class:`repro.db.GraphDatabase` facade.

A :class:`ResultSet` is a *description* of an evaluation — engine plus
parsed query plus optional limit/vertex-data filters — that touches the
engine only when answers are demanded (iteration, ``len``, membership,
``pairs()``...).  Until then it costs nothing, so callers can build
result sets for a whole workload, pass them around, and pay only for the
ones actually consumed.

Evaluating is not decoding.  On the columnar engines (CPQx, iaCPQx,
Path) the answers are kept as the plan root's
:class:`~repro.core.pairset.PairSet` column: ``len``, :meth:`count`,
:meth:`is_empty` and membership read packed codes, and ``(v, u)``
tuples are decoded only by consumers that iterate — iteration,
:meth:`to_list`, the vertex-data filters, :meth:`sources` /
:meth:`targets`.

Two consumers get extra laziness:

* :meth:`count` — for conjunction-only queries on class-based engines
  (CPQx/iaCPQx) the count is read off class sizes without materializing
  a single s-t pair (the engine's COUNT pushdown);
* :attr:`stats` — an :class:`ExecutionStats` exposing the paper's
  operator counters (lookups, joins, class/pair conjunctions, pairs
  touched).  It always reflects the *most recent* evaluation — a
  pushdown count or the materializing run — never the sum of both, so
  benchmark readings stay per-evaluation.  The object itself is
  identity-stable: a reference taken before consumption sees the
  counters once they land.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Set

from repro.core.executor import ExecutionStats
from repro.core.pairset import PairSet
from repro.graph.digraph import Pair
from repro.query.ast import CPQ

VertexDataFilter = Callable[[dict], bool]


class ResultSet:
    """Iterable, countable, explainable answers of one CPQ — evaluated lazily."""

    def __init__(
        self,
        engine,
        query: CPQ,
        limit: int | None = None,
        source_filter: VertexDataFilter | None = None,
        target_filter: VertexDataFilter | None = None,
    ) -> None:
        self._engine = engine
        self._query = query
        self._limit = limit
        self._source_filter = source_filter
        self._target_filter = target_filter
        self._pairs: Set[Pair] | None = None
        self._error: Exception | None = None
        #: Operator counters of the evaluation (filled on materialization).
        self.stats = ExecutionStats()

    @classmethod
    def from_answers(
        cls,
        engine,
        query: CPQ,
        limit: int | None,
        pairs: Iterable[Pair],
        stats: ExecutionStats,
    ) -> ResultSet:
        """A pre-materialized result set.

        Used by the process-based serving path: the answers (and the
        run's operator counters) were computed in a worker process, so
        the result set arrives already evaluated — consuming it never
        touches the engine.
        """
        result = cls(engine, query, limit=limit)
        result._pairs = frozenset(pairs)
        result._record(stats)
        return result

    @classmethod
    def from_error(
        cls,
        engine,
        query: CPQ,
        limit: int | None,
        error: Exception,
    ) -> ResultSet:
        """A permanently failed result slot (``serve_batch(on_error="partial")``).

        The slot carries the structured serving error instead of
        answers: inspecting :attr:`failed`/:attr:`error` is free, while
        any attempt to *consume* the answers re-raises ``error`` — a
        failed query can never be mistaken for an empty one.
        """
        result = cls(engine, query, limit=limit)
        result._error = error
        return result

    # ------------------------------------------------------------------
    # lazy core
    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        """Whether this slot is a permanent per-query serving failure."""
        return self._error is not None

    @property
    def error(self) -> Exception | None:
        """The serving error of a failed slot (``None`` on success)."""
        return self._error

    @property
    def query(self) -> CPQ:
        """The (resolved) query this result set answers."""
        return self._query

    @property
    def engine(self):
        """The engine that will (or did) evaluate the query."""
        return self._engine

    @property
    def materialized(self) -> bool:
        """Whether the answer pairs have been computed yet."""
        return self._pairs is not None

    def _record(self, run: ExecutionStats) -> None:
        """Overwrite the public counters with one evaluation's numbers."""
        self.stats.lookups = run.lookups
        self.stats.classes_touched = run.classes_touched
        self.stats.pairs_touched = run.pairs_touched
        self.stats.class_conjunctions = run.class_conjunctions
        self.stats.pair_conjunctions = run.pair_conjunctions
        self.stats.joins = run.joins

    def _materialize(self) -> Set[Pair]:
        if self._error is not None:
            raise self._error
        if self._pairs is None:
            run = ExecutionStats()
            filtered = (
                self._source_filter is not None or self._target_filter is not None
            )
            # With filters, the limit applies to *surviving* answers, so
            # evaluate unlimited, filter, then truncate deterministically;
            # limiting first could drop every filtered match.
            answers = self._engine.evaluate(
                self._query, stats=run, limit=None if filtered else self._limit
            )
            if filtered:
                graph = self._engine.graph
                kept = [
                    (v, u) for v, u in sorted(answers, key=repr)
                    if (self._source_filter is None
                        or self._source_filter(graph.vertex_data(v)))
                    and (self._target_filter is None
                         or self._target_filter(graph.vertex_data(u)))
                ]
                if self._limit is not None:
                    kept = kept[: self._limit]
                answers = kept
            self._record(run)
            self._pairs = answers if isinstance(answers, PairSet) else frozenset(answers)
        return self._pairs

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def pairs(self) -> Set[Pair]:
        """The full answer set (evaluates): an immutable ``Set`` of pairs.

        On columnar engines this is the answer column itself — ``len`` and
        membership read codes, and pairs are decoded on iteration.
        """
        return self._materialize()

    def to_list(self) -> list[Pair]:
        """Deterministically ordered answer list (decodes every pair)."""
        return sorted(self._materialize(), key=repr)

    def sources(self) -> frozenset:
        """Distinct source vertices of the answers (materializes)."""
        return frozenset(v for v, _ in self._materialize())

    def targets(self) -> frozenset:
        """Distinct target vertices of the answers (materializes)."""
        return frozenset(u for _, u in self._materialize())

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.to_list())

    def __len__(self) -> int:
        return len(self._materialize())

    def __contains__(self, pair: object) -> bool:
        return pair in self._materialize()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultSet):
            return self.pairs() == other.pairs()
        if isinstance(other, Set):
            return self.pairs() == other
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - identity semantics
        return id(self)

    def count(self) -> int:
        """Answer cardinality, avoiding pair materialization where possible.

        Delegates to the engine's COUNT pushdown (class-size summation on
        CPQx/iaCPQx) when no limit/filter forces materialized semantics;
        the result set stays unmaterialized in that case.
        """
        if self._error is not None:
            raise self._error
        if self._pairs is not None:
            return len(self._pairs)
        pushdown = getattr(self._engine, "count", None)
        if (
            pushdown is not None
            and self._limit is None
            and self._source_filter is None
            and self._target_filter is None
        ):
            run = ExecutionStats()
            counted = pushdown(self._query, stats=run)
            self._record(run)
            return counted
        return len(self._materialize())

    def is_empty(self) -> bool:
        """Whether the query has no answers (uses the lazy count path)."""
        return self.count() == 0

    def explain(self) -> str:
        """The engine's plan/profile report for this query."""
        explain = getattr(self._engine, "explain", None)
        if explain is not None:
            return explain(self._query)
        name = getattr(self._engine, "name", type(self._engine).__name__)
        return (
            f"engine: {name}\n"
            f"plan:   pattern-graph search (no logical plan)\n"
            f"answers: {len(self)}"
        )

    def __repr__(self) -> str:
        if self._error is not None:
            return (
                f"ResultSet(engine={getattr(self._engine, 'name', '?')}, "
                f"failed: {type(self._error).__name__})"
            )
        if self._pairs is None:
            return f"ResultSet(engine={getattr(self._engine, 'name', '?')}, pending)"
        return (
            f"ResultSet(engine={getattr(self._engine, 'name', '?')}, "
            f"answers={len(self._pairs)})"
        )
