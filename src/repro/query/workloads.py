"""Random query workload generation (Sec. VI, "Queries").

The paper's procedure, reproduced here:

* "For each template and dataset, we generate ten queries with random
  labels."  — :func:`random_template_queries` samples label atoms
  (uniformly over the extended label set: forward and inverse) for each
  template slot.
* "We only use queries in which all (sub-)paths of length two are
  non-empty" — :func:`subpaths_nonempty` checks every length-≤2 label
  sequence occurring in the instantiated query against the graph.
* For the empty/non-empty experiment (Fig. 7), :func:`split_by_emptiness`
  classifies generated queries with the reference evaluator.

:func:`serving_queries` is not from the paper: it is the conjunctive
serving stream the serving and daemon checks replay.

All sampling is driven by an explicit seed for reproducibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph.digraph import LabeledDigraph
from repro.graph.labels import LabelSeq
from repro.query.ast import (
    CPQ,
    ID,
    EdgeLabel,
    conjoin_all,
    join_all,
    label,
    label_sequences_in,
    resolve,
)
from repro.query.semantics import evaluate
from repro.query.templates import Template, get_template


@dataclass(frozen=True)
class WorkloadQuery:
    """A generated query together with its provenance."""

    template: str
    query: CPQ
    labels: tuple[int, ...]


def _extended_labels(graph: LabeledDigraph) -> list[int]:
    """Extended label population actually used by at least one edge."""
    forward = sorted(graph.labels_used())
    return forward + [-lab for lab in forward]


def subpaths_nonempty(query: CPQ, graph: LabeledDigraph) -> bool:
    """The paper's filter: every length-≤2 sub-sequence matches some path.

    For each maximal label sequence in the query, every window of length 2
    (and every single label) must have a non-empty relation on ``graph``.
    """
    return all(
        all(graph.sequence_relation(seq[i:i + 1]) for i in range(len(seq)))
        and all(graph.sequence_relation(seq[i:i + 2]) for i in range(len(seq) - 1))
        for seq in label_sequences_in(query)
    )


def random_template_queries(
    graph: LabeledDigraph,
    template: str | Template,
    count: int = 10,
    seed: int = 0,
    max_attempts: int = 4000,
    require_nonempty_subpaths: bool = True,
) -> list[WorkloadQuery]:
    """Generate ``count`` random-label instances of a template.

    Falls back to returning fewer queries if the graph is too sparse to
    satisfy the sub-path filter within ``max_attempts`` samples (mirrors
    the paper's note that some answers may still be empty — only the
    *sub-paths* are forced non-empty).
    """
    spec = get_template(template) if isinstance(template, str) else template
    rng = random.Random(seed)
    population = _extended_labels(graph)
    if not population:
        return []
    queries: list[WorkloadQuery] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(queries) < count and attempts < max_attempts:
        attempts += 1
        chosen = tuple(rng.choice(population) for _ in range(spec.arity))
        candidate = spec.instantiate([EdgeLabel(lab) for lab in chosen])
        candidate = resolve(candidate, graph.registry)
        if require_nonempty_subpaths and not subpaths_nonempty(candidate, graph):
            continue
        key = (spec.name, *chosen)
        if key in seen:
            continue
        seen.add(key)
        queries.append(WorkloadQuery(spec.name, candidate, chosen))
    return queries


def _nonempty_chain(
    graph: LabeledDigraph, rng: random.Random, length: int, tries: int = 300
) -> LabelSeq | None:
    """Sample a label sequence whose length-2 windows are all non-empty
    (the paper's workload filter), so chain queries do real join work."""
    population = _extended_labels(graph)
    if not population:
        return None
    for _ in range(tries):
        seq = tuple(rng.choice(population) for _ in range(length))
        if all(
            graph.sequence_relation(seq[i:i + 2])
            for i in range(len(seq) - 1)
        ):
            return seq
    return None


def serving_queries(graph: LabeledDigraph, seed: int = 7) -> list[CPQ]:
    """A conjunctive serving stream of ~120 *distinct* CPQs.

    Shaped like production query streams: the paper's template shapes
    (C2/T/S/C4) plus conjunctions built over a small pool of shared
    length-3/4 chains — distinct queries with overlapping
    subexpressions, the redundancy the memoizing executor exploits.
    Used by the serving tests and ``scripts/daemon_smoke.py``.
    """
    rng = random.Random(seed * 31 + 1)
    queries: list[CPQ] = []
    for template in ("C2", "T", "S", "C4"):
        queries.extend(
            wq.query
            for wq in random_template_queries(graph, template, count=3, seed=seed)
        )

    chains: list[LabelSeq] = []
    for length in (3, 3, 3, 4, 4):
        seq = _nonempty_chain(graph, rng, length)
        if seq is not None and seq not in chains:
            chains.append(seq)
    suffixes: list[LabelSeq] = []
    for length in (1, 1, 2, 2, 2):
        seq = _nonempty_chain(graph, rng, length)
        if seq is not None and seq not in suffixes:
            suffixes.append(seq)

    def chain_query(seq: LabelSeq) -> CPQ:
        return resolve(join_all([label(lab) for lab in seq]), graph.registry)

    seen = set(queries)
    for seq in chains:
        base = chain_query(seq)
        candidates = [conjoin_all([base, ID])]
        candidates.extend(
            conjoin_all([base, chain_query(suffix)]) for suffix in suffixes
        )
        for other in chains:
            if other != seq:
                candidates.append(conjoin_all([base, chain_query(other)]))
                candidates.extend(
                    conjoin_all([base, chain_query(other), chain_query(suffix)])
                    for suffix in suffixes[:3]
                )
        for query in candidates:
            if query not in seen:
                seen.add(query)
                queries.append(query)
    return queries


def workload_interests(queries: list, k: int) -> set[LabelSeq]:
    """Interest set induced by a workload (Sec. VI, interest-aware setup).

    "We specify all label sequences in the set of queries as the interests.
    We divide label sequences larger than k length into prefix label
    sequences of length k and the rest."

    Accepts :class:`WorkloadQuery` items or bare (resolved) CPQ expressions.
    """
    interests: set[LabelSeq] = set()
    for item in queries:
        query = item.query if isinstance(item, WorkloadQuery) else item
        for seq in label_sequences_in(query):
            while len(seq) > k:
                interests.add(seq[:k])
                seq = seq[k:]
            if seq:
                interests.add(seq)
    return interests


def split_by_emptiness(
    queries: list[WorkloadQuery],
    graph: LabeledDigraph,
) -> tuple[list[WorkloadQuery], list[WorkloadQuery]]:
    """Partition a workload into (non-empty, empty) answer sets (Fig. 7)."""
    non_empty: list[WorkloadQuery] = []
    empty: list[WorkloadQuery] = []
    for item in queries:
        if evaluate(item.query, graph):
            non_empty.append(item)
        else:
            empty.append(item)
    return non_empty, empty


def mixed_emptiness_workload(
    graph: LabeledDigraph,
    template: str,
    count: int = 10,
    empty_fraction: float = 0.5,
    seed: int = 0,
) -> list[WorkloadQuery]:
    """A workload with a target share of empty-answer queries.

    Reproduces the paper's setup on the knowledge graphs: "queries on Yago,
    Wikidata, and Freebase have 50% non-empty and 50% empty queries except
    for C2".  Falls back to whatever mix is achievable on sparse graphs.
    """
    pool = random_template_queries(graph, template, count * 6, seed=seed)
    non_empty, empty = split_by_emptiness(pool, graph)
    want_empty = int(round(count * empty_fraction))
    want_non_empty = count - want_empty
    chosen = non_empty[:want_non_empty] + empty[:want_empty]
    # top up from whichever pool has leftovers
    shortfall = count - len(chosen)
    if shortfall > 0:
        leftovers = non_empty[want_non_empty:] + empty[want_empty:]
        chosen.extend(leftovers[:shortfall])
    return chosen
