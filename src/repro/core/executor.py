"""Query processing over path indexes (Algorithms 3 and 4).

The paper evaluates a plan bottom-up where every intermediate result is
either a set of **class identifiers** (cheap, the language-aware fast
path) or a set of **s-t pairs** (after a JOIN forces materialization).
:class:`Result` is that tagged union; :func:`execute_plan` is Algorithm 3;
the per-operator logic mirrors Algorithm 4:

* CONJUNCTION of two class-results intersects class-id sets without
  touching any pair (Prop. 4.1) — the paper's headline optimization;
* IDENTITY on class-results keeps only loop classes, decided per class
  (all pairs of a class agree on loop-ness, Def. 4.1 cond. 1);
* JOIN materializes both sides and composes them.

Pair-level intermediates are columnar
(:class:`repro.core.pairset.PairSet`): conjunctions merge sorted code
columns, JOIN runs the sort-merge composition, and the IDENTITY filter
scans codes.  The plan root returns its column as well (late
materialization): ``len`` and membership read codes, and original vertex
tuples are decoded only for a consumer that iterates.  Engines that
still produce plain tuple sets (the BFS / TurboHom / Tentris baselines)
keep working: every operator falls back to the seed's set-of-tuples
algorithms when an operand is not columnar.

Three memoization layers sit on top:

* **statement memo** — :class:`EngineBase` maps query *text* to its
  resolved CPQ in a bounded LRU, so a repeated text skips the parser
  (:meth:`repro.db.GraphDatabase.query` consults it).  It needs no
  freshness token: label ids are append-only, so a text that resolved
  once resolves the same way after any update.  It lives and dies with
  its engine object (build, rebuild, ``open`` and ``reload`` start a
  fresh one) and is off, like the LRUs below, with caching off;
* **per-evaluation subplan memo** — :func:`execute_plan` caches each
  plan node's result within one evaluation, so a repeated subexpression
  in a conjunctive query (plan nodes are frozen dataclasses comparing
  structurally) is computed once;
* **cross-query LRU** — :class:`EngineBase` memoizes whole
  ``evaluate``/``count`` answers in a bounded LRU keyed on the resolved
  query, guarded by a ``(graph version, engine epoch)`` freshness token:
  any graph mutation (including lazy maintenance) or engine-side change
  (e.g. interest insertion) moves the token and drops the cache.

The executor is generic over a :class:`LookupProvider`, so one
implementation serves CPQx, iaCPQx, and the pair-returning engines
(Path, iaPath, BFS) — realizing the paper's "we used the same query plans
for all methods" protocol.
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Iterable, Set
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.cache import LRUCache
from repro.core.kernels.pure import owned_slice
from repro.core.pairset import PairSet
from repro.errors import QuerySyntaxError
from repro.graph.digraph import LabeledDigraph, Pair
from repro.graph.interner import ID_BITS
from repro.graph.labels import LabelSeq
from repro.plan.nodes import ConjNode, IdentityAll, JoinNode, Lookup, PlanNode
from repro.plan.planner import Splitter, build_plan
from repro.query.ast import CPQ, is_resolved, resolve


@dataclass
class ExecutionStats:
    """Operation counters collected during one query evaluation.

    ``classes_touched`` / ``pairs_touched`` back Table III: the number of
    class identifiers (language-aware engines) or s-t pairs (unaware
    engines) flowing through lookups and conjunctions.  Counters are
    *logical*: a memo hit replays the subtree's recorded delta, so the
    numbers read as if every subexpression had executed — identical
    whether a result came from work or from memory.
    """

    lookups: int = 0
    classes_touched: int = 0
    pairs_touched: int = 0
    class_conjunctions: int = 0
    pair_conjunctions: int = 0
    joins: int = 0

    def merge(self, other: ExecutionStats) -> None:
        """Accumulate another run's counters into this one."""
        self.lookups += other.lookups
        self.classes_touched += other.classes_touched
        self.pairs_touched += other.pairs_touched
        self.class_conjunctions += other.class_conjunctions
        self.pair_conjunctions += other.pair_conjunctions
        self.joins += other.joins


@dataclass(frozen=True, slots=True)
class Result:
    """Tagged union of Algorithm 3's ``(P, C)`` intermediate results.

    Exactly one of ``pairs`` / ``classes`` is non-None.  ``pairs`` holds
    either a columnar :class:`PairSet` (migrated engines) or a plain
    frozenset of vertex tuples (legacy producers) — both satisfy the
    same length/iteration/set-operator surface.

    ``classes`` may be an index's live ``Il2c`` posting, handed out
    without a copy: it is read-only here, and valid only until the next
    maintenance call, so a class result lives inside one evaluation (or
    a memo guarded by the freshness token), under the session read lock.
    """

    pairs: frozenset[Pair] | PairSet | None = None
    classes: Set[int] | None = None

    def __post_init__(self) -> None:
        if (self.pairs is None) == (self.classes is None):
            raise QuerySyntaxError("Result must carry exactly one of pairs/classes")

    @staticmethod
    def of_pairs(pairs: Iterable[Pair]) -> Result:
        """Wrap a pair collection (kept columnar if already a PairSet)."""
        if isinstance(pairs, PairSet):
            return Result(pairs=pairs)
        return Result(pairs=frozenset(pairs))

    @staticmethod
    def of_classes(classes: Iterable[int]) -> Result:
        """Wrap a class-id set (an owned frozenset copy)."""
        return Result(classes=frozenset(classes))


@runtime_checkable
class LookupProvider(Protocol):
    """What the executor needs from an index / engine."""

    graph: LabeledDigraph

    def lookup(self, seq: LabelSeq) -> Result:
        """Result of a label-sequence LOOKUP (classes or pairs)."""

    def expand_classes(self, classes: Set[int]) -> PairSet:
        """Union of ``Ic2p(c)`` over ``classes`` (pair engines never call this)."""

    def loop_classes_of(self, classes: Set[int]) -> Set[int]:
        """Subset of ``classes`` whose pairs are loops (IDENTITY on classes)."""


#: A memo table for plan-node results: the per-evaluation dict or the
#: engine's cross-query LRU — both map plan node → (Result, stats delta).
Memo = dict | LRUCache


def execute_plan(
    plan: PlanNode,
    provider: LookupProvider,
    stats: ExecutionStats | None = None,
    limit: int | None = None,
    memo: Memo | None = None,
) -> Set[Pair]:
    """Run Algorithm 3: evaluate ``plan`` and materialize the root result.

    The answer is the root's pair set as produced: a columnar
    :class:`PairSet` on columnar engines (decoded only when iterated),
    a frozenset of tuples on the others.

    ``limit`` enables first-answer mode (Fig. 7): root materialization
    stops after ``limit`` pairs, which skips expanding the remaining
    classes — the same early-exit the paper grants TurboHom++.

    ``memo`` carries subplan results between plan nodes: by default a
    fresh per-evaluation dict (repeated subexpressions inside one query
    run once); engines pass their token-guarded LRU here so subplans
    recur across queries too.  A memo hit replays the recorded operator
    counters into ``stats``, keeping the Table III accounting identical
    whether a subtree was executed or remembered.
    """
    if memo is None:
        memo = {}
    result = _execute(plan, provider, stats, memo)
    return _materialize(result, provider, stats, limit)


#: Shared zero-delta for unprofiled per-evaluation memo entries (never
#: mutated: merge() only writes into its receiver).
_NO_STATS = ExecutionStats()


def _execute(
    plan: PlanNode,
    provider: LookupProvider,
    stats: ExecutionStats | None,
    memo: Memo | None = None,
) -> Result:
    if memo is not None:
        hit = memo.get(plan)
        if hit is not None:
            result, delta = hit
            if stats is not None:
                stats.merge(delta)
            return result
        if stats is None and type(memo) is dict:
            # Unprofiled one-shot evaluation: the memo dies with this
            # call, so skip the per-node counter bookkeeping entirely.
            result = _execute_uncached(plan, provider, None, memo)
            memo[plan] = (result, _NO_STATS)
            return result
        # ``run`` is this node's own delta: nothing writes to it once stored.
        run = ExecutionStats()
        result = _execute_uncached(plan, provider, run, memo)
        memo[plan] = (result, run)
        if stats is not None:
            stats.merge(run)
        return result
    return _execute_uncached(plan, provider, stats, memo)


def _execute_uncached(
    plan: PlanNode,
    provider: LookupProvider,
    stats: ExecutionStats | None,
    memo: Memo | None,
) -> Result:
    if isinstance(plan, Lookup):
        result = provider.lookup(plan.seq)
        if stats is not None:
            stats.lookups += 1
            if result.classes is not None:
                stats.classes_touched += len(result.classes)
            else:
                stats.pairs_touched += len(result.pairs or ())
        if plan.with_identity:
            result = _identity_filter(result, provider)
        return result

    if isinstance(plan, IdentityAll):
        return Result(pairs=_all_loops(provider.graph))

    if isinstance(plan, JoinNode):
        left = _materialize(_execute(plan.left, provider, stats, memo), provider, stats, None)
        right = _materialize(_execute(plan.right, provider, stats, memo), provider, stats, None)
        if stats is not None:
            stats.joins += 1
            stats.pairs_touched += len(left) + len(right)
        joined = _compose(left, right, loops_only=plan.with_identity)
        return Result.of_pairs(joined)

    if isinstance(plan, ConjNode):
        left = _execute(plan.left, provider, stats, memo)
        right = _execute(plan.right, provider, stats, memo)
        if left.classes is not None and right.classes is not None:
            if stats is not None:
                stats.class_conjunctions += 1
                stats.classes_touched += len(left.classes) + len(right.classes)
            classes = left.classes & right.classes
            result = Result(classes=classes)
        else:
            left_pairs = _materialize(left, provider, stats, None)
            right_pairs = _materialize(right, provider, stats, None)
            if stats is not None:
                stats.pair_conjunctions += 1
                stats.pairs_touched += len(left_pairs) + len(right_pairs)
            # PairSet.__and__/__rand__ dispatch every operand mix: two
            # columns merge/hash in code space, mixed operands decode.
            result = Result.of_pairs(left_pairs & right_pairs)
        if plan.with_identity:
            result = _identity_filter(result, provider)
        return result

    raise QuerySyntaxError(f"unknown plan node {plan!r}")


def _all_loops(graph: LabeledDigraph) -> PairSet:
    """The identity relation over live vertices, columnar."""
    id_of = graph.interner.id_of
    return PairSet.from_codes(
        ((vid := id_of(v)) << ID_BITS | vid for v in graph.vertices()),
        graph.interner,
    )


def _identity_filter(result: Result, provider: LookupProvider) -> Result:
    """Apply ``∩ id`` to a result (Algorithm 4's \\*ID variants)."""
    if result.classes is not None:
        return Result(classes=provider.loop_classes_of(result.classes))
    pairs = result.pairs
    assert pairs is not None
    if isinstance(pairs, PairSet):
        return Result(pairs=pairs.loops())
    return Result.of_pairs((v, u) for v, u in pairs if v == u)


def _materialize(
    result: Result,
    provider: LookupProvider,
    stats: ExecutionStats | None,
    limit: int | None,
) -> frozenset[Pair] | PairSet:
    """Turn a result into explicit pairs (root of Algorithm 3).

    Returns a columnar :class:`PairSet` whenever the producing engine is
    columnar, truncated to its ``limit`` smallest codes in first-answer
    mode.  A class result under ``limit`` takes whole classes in
    ascending class-id order, each in code order, until ``limit`` codes
    are gathered.
    """
    if result.pairs is not None:
        pairs = result.pairs
        if limit is None or len(pairs) <= limit:
            return pairs
        if isinstance(pairs, PairSet):
            return _head(pairs, limit)
        return frozenset(list(pairs)[:limit])
    assert result.classes is not None
    if limit is None:
        expanded = provider.expand_classes(result.classes)
        if stats is not None:
            stats.pairs_touched += len(expanded)
        return expanded
    parts: list[PairSet] = []
    remaining = limit
    for class_id in sorted(result.classes):
        if remaining <= 0:
            break
        part = _head(provider.expand_classes(frozenset((class_id,))), remaining)
        parts.append(part)
        remaining -= len(part)
    return PairSet.union_disjoint(parts, provider.graph.interner)


def _head(pairs: PairSet, limit: int) -> PairSet:
    """The ``limit`` smallest codes of ``pairs``, still a column."""
    if len(pairs) <= limit:
        return pairs
    return PairSet.from_sorted_codes(owned_slice(pairs.codes, 0, limit), pairs.interner)


def _compose(
    left: frozenset[Pair] | PairSet,
    right: frozenset[Pair] | PairSet,
    loops_only: bool,
) -> set[Pair] | PairSet:
    """Join two pair collections on the shared middle vertex.

    Columnar operands run the O(n log n + m + output) sort-merge of
    :meth:`PairSet.compose`; tuple-set operands (or mixed pairs, which
    only arise with non-columnar engines) fall back to the seed's
    hash-join with its per-call dict build.
    """
    if isinstance(left, PairSet) and isinstance(right, PairSet):
        return left.compose(right, loops_only=loops_only)
    by_source: dict[object, list[object]] = {}
    for m, u in right:
        by_source.setdefault(m, []).append(u)
    if loops_only:
        return {(v, u) for v, m in left for u in by_source.get(m, ()) if v == u}
    return {(v, u) for v, m in left for u in by_source.get(m, ())}


#: Guards lazy attachment/replacement of per-engine memo caches.
#: Module-wide (EngineBase has no ``__init__`` to own a per-instance
#: lock): contention is limited to the instant a freshness token moves,
#: never the memo hit path, which locks per cache instead.
_CACHE_ATTACH_LOCK = threading.Lock()


class EngineBase:
    """Shared high-level evaluation entry point for all engines.

    Subclasses provide ``graph``, ``lookup`` (and for class-based engines
    ``expand_classes`` / ``loop_classes_of``), plus a :meth:`splitter`
    describing how label sequences decompose into LOOKUPs.

    ``evaluate`` and ``count`` memoize their answers in a bounded LRU
    (per engine instance, lazily created) so a production session
    serving repeated queries pays for each distinct query once.  The
    cache key is the resolved query (plus limit); freshness is enforced
    by a ``(graph version, engine epoch)`` token — any graph mutation
    or :meth:`invalidate_cache` call retires every cached answer.
    Benchmark harnesses that need honest per-run timings can switch the
    layer off with :meth:`set_result_caching`.
    """

    #: Human-readable engine name used by the benchmark harness.
    name: str = "engine"
    graph: LabeledDigraph

    #: Bound on memoized whole-query answers per engine instance.
    result_cache_capacity: int = 256
    #: Bound on memoized subplan results shared across queries.
    subplan_cache_capacity: int = 1024
    #: Bound on memoized query texts (≈390 B per short entry).  Kept distinct
    #: from the two capacities above: benchmarks/e2e/trace.py tells the
    #: LRUs' hits and misses apart by capacity.
    statement_cache_capacity: int = 1000
    #: Longer query texts are parsed every time, never memoized, so the
    #: memo's footprint stays bounded by entry count times this length.
    statement_text_limit: int = 4096

    def splitter(self) -> Splitter:
        """The sequence splitter used when planning queries."""
        raise NotImplementedError

    def __getstate__(self) -> dict:
        """Pickle without the lock-bearing memo caches — the **engine
        snapshot** invariant.

        The cross-query LRUs (:class:`repro.core.cache.LRUCache`) carry
        per-instance mutexes, which cannot cross a process boundary; and
        they are pure caches, rebuilt lazily (and token-checked) on first
        use.  Dropping them makes every engine picklable after build,
        which is what lets the process-based serving path
        (:mod:`repro.serve`) ship an engine snapshot to its worker
        processes — guarded by ``tests/test_procserve.py``'s round-trip
        test over every registered engine.
        """
        state = self.__dict__.copy()
        state.pop("_memo_results", None)
        state.pop("_memo_subplans", None)
        state.pop("_memo_statements", None)
        return state

    def plan(self, query: CPQ) -> PlanNode:
        """Plan a (possibly name-form) CPQ against this engine."""
        if not is_resolved(query):
            query = resolve(query, self.graph.registry)
        return build_plan(query, self.splitter())

    # ------------------------------------------------------------------
    # result memoization
    # ------------------------------------------------------------------
    def _cache_token(self) -> tuple[int, int]:
        return (
            getattr(self.graph, "version", 0),
            getattr(self, "_cache_epoch", 0),
        )

    def _token_cache(self, attr: str, capacity: int, token: object) -> LRUCache:
        """The named LRU for this engine, rebuilt whenever ``token`` moved.

        Staleness is handled copy-on-write style: the outdated cache is
        *replaced*, never cleared, so a reader that already fetched it
        keeps a consistent snapshot whose results simply stop being
        shared.  The replacement itself runs under a lock (double
        checked) so concurrent readers racing past a token bump install
        exactly one fresh cache between them.  A constant token (the
        statement memo's ``None``) attaches the cache once.
        """
        cache: LRUCache | None = getattr(self, attr, None)
        if cache is None or cache.token != token:
            with _CACHE_ATTACH_LOCK:
                cache = getattr(self, attr, None)
                if cache is None or cache.token != token:
                    cache = LRUCache(capacity, token)
                    setattr(self, attr, cache)
        return cache

    def _result_cache(self) -> LRUCache:
        return self._token_cache("_memo_results", self.result_cache_capacity, self._cache_token())

    def _subplan_cache(self) -> LRUCache:
        return self._token_cache("_memo_subplans", self.subplan_cache_capacity, self._cache_token())

    def statement_cache(self) -> LRUCache | None:
        """The text → resolved-CPQ memo, or ``None`` while caching is off.

        Tokenless, unlike the result and subplan LRUs: label ids are
        append-only (:meth:`LabelRegistry.register`), so no update can
        change what a text resolves to.  Callers store only successful
        parses; a text with an unknown label is re-parsed every time.
        """
        if not self._caching_enabled():
            return None
        return self._token_cache("_memo_statements", self.statement_cache_capacity, None)

    def invalidate_cache(self) -> None:
        """Retire every memoized answer (bumps the engine epoch).

        Called by engine-side mutations that change answers without
        touching the graph (e.g. iaCPQx interest insertion/deletion);
        graph mutations invalidate implicitly through the version token.
        """
        self._cache_epoch = getattr(self, "_cache_epoch", 0) + 1

    def set_result_caching(self, enabled: bool) -> None:
        """Enable/disable the cross-query statement/evaluate/count/subplan LRUs.

        With caching off, evaluation still memoizes repeated
        subexpressions *within* one query (a fresh per-evaluation memo),
        but remembers nothing between calls — the mode benchmark
        harnesses use for honest per-run timings.
        """
        self._result_caching = enabled
        if not enabled:
            self._memo_results = None
            self._memo_subplans = None
            self._memo_statements = None

    def _caching_enabled(self) -> bool:
        return getattr(self, "_result_caching", True)

    def _evaluate_cached(
        self, query: CPQ, stats: ExecutionStats | None, limit: int | None
    ) -> Set[Pair]:
        if not self._caching_enabled():
            return execute_plan(self.plan(query), self, stats=stats, limit=limit)
        if not is_resolved(query):
            query = resolve(query, self.graph.registry)
        cache = self._result_cache()
        key = (query, limit)
        hit = cache.get(key)
        if hit is not None:
            answers, snapshot = hit
            if stats is not None:
                stats.merge(snapshot)
            return answers
        run = ExecutionStats()
        answers = execute_plan(
            self.plan(query),
            self,
            stats=run,
            limit=limit,
            memo=self._subplan_cache(),
        )
        if stats is not None:
            stats.merge(run)
        cache.put(key, (answers, run))
        return answers

    # ------------------------------------------------------------------
    # evaluation API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        query: CPQ,
        stats: ExecutionStats | None = None,
        limit: int | None = None,
        source_filter=None,
        target_filter=None,
    ) -> Set[Pair]:
        """Evaluate a CPQ, returning its s-t pair answer set.

        Columnar engines return (and memoize) the plan root's
        :class:`PairSet`, whose tuples are decoded only when iterated;
        filtered answers are a frozenset of tuples.

        ``source_filter`` / ``target_filter`` are optional predicates on
        the vertex's local-data dict (Sec. VII's extension: "study
        practical extensions ... for supporting CPQ combined with querying
        local data").  They post-filter the answers; e.g.
        ``target_filter=lambda d: d.get("age", 0) > 30``.
        """
        answers = self._evaluate_cached(query, stats, limit)
        if source_filter is None and target_filter is None:
            return answers
        graph = self.graph
        return frozenset(
            (v, u)
            for v, u in answers
            if (source_filter is None or source_filter(graph.vertex_data(v)))
            and (target_filter is None or target_filter(graph.vertex_data(u)))
        )

    def count(self, query: CPQ, stats: ExecutionStats | None = None) -> int:
        """Answer cardinality, avoiding materialization where possible.

        When the plan's root result is a set of class identifiers
        (conjunction-only queries — the paper's T/S/TT/St shapes), the
        count is the sum of the class sizes read off ``Ic2p``: no s-t
        pair is ever touched.  COUNT aggregation is thus another consumer
        of the CPQ-equivalence structure, beyond Prop. 4.1's membership
        pruning.  Join-bearing plans fall back to materialized counting.
        Counts are memoized alongside evaluate results.
        """
        caching = self._caching_enabled()
        if caching:
            if not is_resolved(query):
                query = resolve(query, self.graph.registry)
            cache = self._result_cache()
            key = ("#count", query)
            hit = cache.get(key)
            if hit is not None:
                counted, snapshot = hit
                if stats is not None:
                    stats.merge(snapshot)
                return counted
        run = ExecutionStats() if caching else stats
        plan = self.plan(query)
        memo = self._subplan_cache() if caching else {}
        result = _execute(plan, self, run, memo)
        class_size = getattr(self, "class_size", None)
        pairs_of_class = getattr(self, "pairs_of_class", None)
        if result.classes is not None and class_size is not None:
            counted = sum(class_size(class_id) for class_id in result.classes)
        elif result.classes is not None and pairs_of_class is not None:
            counted = sum(len(pairs_of_class(class_id)) for class_id in result.classes)
        else:
            counted = len(_materialize(result, self, run, None))
        if caching:
            assert run is not None
            if stats is not None:
                stats.merge(run)
            cache.put(key, (counted, run))
        return counted

    def explain(self, query: CPQ) -> str:
        """Describe how this engine would run ``query``.

        Combines the logical plan (Sec. IV-D), one profiled execution's
        operator counters, and — for class-based indexes — the Theorem 4.5
        work estimate.  Returns a human-readable multi-line report.
        """
        plan = self.plan(query)
        stats = ExecutionStats()
        answers = execute_plan(plan, self, stats=stats)
        lines = [
            f"engine: {self.name}",
            f"plan:   {plan.describe()}",
            f"answers: {len(answers)}",
            (
                f"profile: lookups={stats.lookups} joins={stats.joins} "
                f"class-conj={stats.class_conjunctions} "
                f"pair-conj={stats.pair_conjunctions} "
                f"classes-touched={stats.classes_touched} "
                f"pairs-touched={stats.pairs_touched}"
            ),
        ]
        if hasattr(self, "expand_classes") and hasattr(self, "num_classes"):
            with contextlib.suppress(QuerySyntaxError):
                from repro.core.costmodel import query_estimate

                estimate = query_estimate(query, self)
                lines.append(
                    f"thm-4.5 estimate: work≈{estimate.work:.0f} "
                    f"(α1={estimate.inputs['alpha1']}, "
                    f"α2={estimate.inputs['alpha2']})"
                )
        return "\n".join(lines)

    # Default implementations for pair-based engines; class-based engines
    # (CPQx, iaCPQx) override all three.
    def lookup(self, seq: LabelSeq) -> Result:  # pragma: no cover - abstract
        raise NotImplementedError

    def expand_classes(self, classes: Set[int]) -> PairSet:
        raise QuerySyntaxError(f"{self.name} is not a class-based engine")

    def loop_classes_of(self, classes: Set[int]) -> Set[int]:
        raise QuerySyntaxError(f"{self.name} is not a class-based engine")
