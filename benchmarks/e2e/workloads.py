"""Seeded inputs for the end-to-end benchmark: graphs, query pools, streams.

Everything here is a pure function of ``(profile, seed)``: the program
under test receives only the generated graph, query texts and edge
updates.

The seed decides *in which order and mix things are asked*: the order
of every pool, request cycle and update script, the instances of the
templates whose label space is too large to enumerate, and which
endpoints and labels the updates pair.  It does not decide the graph,
nor which instances of the enumerable, heavy-tailed templates are
asked.  At this size the scale-free generator moves ``|P<=2|`` between
0.98 M and 1.56 M pairs and the largest hub between 672 and 1,697
neighbours from one seed to the next, and one draw of the costliest C4
instance (all four labels the most frequent one: 2.6 M answers) takes
longer than the rest of its pool together; either would bury every
regression bound under input variance.  The heavy-tailed draws are
therefore *systematic* samples along a cost order, the same for every
seed.

The harness owns its query generator because
``repro.query.workloads.random_template_queries`` re-derives
``sequence_relation`` per candidate (11 s for 360 queries on a
3,232-vertex graph); here the paper's "every length-<=2 window is
non-empty" filter is answered from a window table computed once.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

from repro.graph.datasets import load_dataset
from repro.graph.digraph import LabeledDigraph
from repro.query.ast import EdgeLabel, label_sequences_in
from repro.query.templates import TEMPLATES

#: Conjunction-shaped templates: answered on class ids (the paper's headline).
CONJ_TEMPLATES = ("T", "S", "TT", "St", "C2i")
#: Join-shaped templates: pair-space work (expand, compose, materialize).
JOIN_TEMPLATES = ("C2", "C4", "TC", "SC", "ST", "Ti", "Si")
ALL_TEMPLATES = CONJ_TEMPLATES + JOIN_TEMPLATES


@dataclass(frozen=True)
class Profile:
    """Input sizes of one benchmark size class."""

    dataset: str
    scale: float
    fixed_seed: int  # seeds the inputs that --seed leaves alone: the graph, serving pools and cycles
    setups: int  # set-ups per run; setup_s is their median
    conj_per_template: int  # conj_stream pool (C2i caps at |labels|^2)
    join_per_template: int  # join_stream pool
    serve_per_template: int  # warm_serve / daemon_mixed pool, all 12 templates
    serve_cycle: int  # requests in one replayed warm_serve cycle
    daemon_cycle: int  # requests in each daemon client's replayed cycle
    probe_conj_per_template: int  # lifecycle probe batch
    probe_join_per_template: int
    updates_per_round: int  # lifecycle single-edge updates per round
    reads_per_update: int
    check_per_template: int  # queries checked against the reference semantics


#: ``full`` is the size of the paper's Table II "Robots" graph (1,616
#: vertices / 6,338 edges / 8 labels; CPQx k=2: ~28 k classes, ~1.1 M
#: pairs).  ``quick`` is the smoke-test size.
PROFILES = {
    "full": Profile(
        dataset="ego-facebook", scale=4.0, fixed_seed=7, setups=3,
        conj_per_template=1500, join_per_template=150, serve_per_template=150,
        serve_cycle=3000, daemon_cycle=100, probe_conj_per_template=20, probe_join_per_template=15,
        updates_per_round=40, reads_per_update=5,
        check_per_template=20,
    ),
    "quick": Profile(
        dataset="robots", scale=0.25, fixed_seed=7, setups=1,
        conj_per_template=60, join_per_template=20, serve_per_template=12,
        serve_cycle=600, daemon_cycle=15, probe_conj_per_template=4, probe_join_per_template=3,
        updates_per_round=6, reads_per_update=2,
        check_per_template=5,
    ),
}


@dataclass(frozen=True)
class Query:
    """One generated query: its template and its concrete-syntax text."""

    template: str
    text: str


def make_graph(profile: Profile) -> LabeledDigraph:
    """The workload graph (scale-free, lambda=0.5 label skew for ``full``)."""
    return load_dataset(profile.dataset, scale=profile.scale, seed=profile.fixed_seed)


def systematic_sample(ordered: list, count: int) -> list:
    """``count`` items at even spacing along ``ordered`` (stratum midpoints).

    When ``ordered`` is sorted by cost the sample holds the same share of
    every cost stratum as the whole, and it is the same for every seed.
    """
    if count >= len(ordered):
        return list(ordered)
    step = len(ordered) / count
    return [ordered[int((index + 0.5) * step)] for index in range(count)]


def nonempty_windows(graph: LabeledDigraph) -> set[tuple[int, ...]]:
    """Every extended-label sequence of length 1 or 2 matched by some path.

    A 2-window ``(a, b)`` is non-empty iff some vertex has an incoming
    ``a`` edge and an outgoing ``b`` edge; over the extended graph
    "incoming a" is "outgoing a-inverse", so one pass over the
    out-labels of each vertex decides all windows.
    """
    windows: set[tuple[int, ...]] = set()
    for vertex in graph.vertices():
        out_labels = [label for label, targets in graph.out_items(vertex) if targets]
        for b in out_labels:
            windows.add((b,))
            for a in out_labels:
                windows.add((-a, b))
    return windows


def _passes_filter(query, windows: set[tuple[int, ...]]) -> bool:
    """The paper's filter: all length-<=2 sub-paths of ``query`` non-empty."""
    for seq in label_sequences_in(query):
        if any((label,) not in windows for label in seq):
            return False
        if any(seq[i:i + 2] not in windows for i in range(len(seq) - 1)):
            return False
    return True


#: Label spaces up to this size are enumerated and sampled systematically.
ENUMERABLE = 16 ** 4
#: The costliest share of an enumerated label space is never drawn: one
#: C4 instance from it (860 k answers, 0.6 s) outweighs the other 149.
TRIMMED_SHARE = 0.02


def _labelings(frequency: dict[int, int], arity: int, count: int, rng: random.Random):
    """Candidate label tuples of one template, most of them ``count`` long.

    A query's cost follows the product of its labels' edge counts, and
    with lambda=0.5 label skew that product is heavy-tailed.  Spaces
    that can be enumerated are therefore sampled systematically along
    that product; only the larger ones (light-tailed in practice: TT,
    SC, ST) are sampled at random.
    """
    population = sorted(frequency)
    if len(population) ** arity <= ENUMERABLE:
        ordered = sorted(
            itertools.product(population, repeat=arity),
            key=lambda labels: (-math.prod(frequency[label] for label in labels), labels),
        )
        return systematic_sample(ordered[int(TRIMMED_SHARE * len(ordered)):], count)
    return (
        tuple(rng.choice(population) for _ in range(arity))
        for _ in range(40 * count)
    )


def template_pool(
    graph: LabeledDigraph,
    templates: tuple[str, ...],
    per_template: int,
    rng: random.Random,
) -> list[Query]:
    """Up to ``per_template`` distinct instances of each template, shuffled.

    Labels come from the extended label set; candidates failing the
    window filter or repeating an earlier text are dropped.  Rendering
    goes through ``to_text(graph.registry)``: ``str(cpq)`` on a resolved
    query prints label *ids*, which the parser rejects.
    """
    windows = nonempty_windows(graph)
    forward = Counter(label for _, _, label in graph.triples())
    frequency = {sign * label: edges for label, edges in forward.items() for sign in (1, -1)}
    pool: list[Query] = []
    for name in templates:
        spec = TEMPLATES[name]
        seen: set[str] = set()
        for labels in _labelings(frequency, spec.arity, per_template, rng):
            if len(seen) == per_template:
                break
            query = spec.instantiate([EdgeLabel(label) for label in labels])
            if not _passes_filter(query, windows):
                continue
            text = query.to_text(graph.registry)
            if text not in seen:
                seen.add(text)
                pool.append(Query(name, text))
    rng.shuffle(pool)
    return pool


def zipf_cycle(pool_size: int, length: int, fixed_seed: int, seed: int) -> list[int]:
    """A request cycle: ``length`` Zipf(s=1) draws over pool indices.

    Rank ``r`` (1-based, in pool order) is drawn with probability
    proportional to ``1 / r``.  The draws and their order depend on
    ``fixed_seed`` only: with LRU memo layers the order decides which
    requests miss, and a seeded shuffle moved ``warm_serve`` ``qps`` by
    12 %, its p99 by 17 % and its peak RSS between two modes.  The cycle
    is replayed end to end, so ``seed`` only chooses where it starts.
    """
    cumulative = list(itertools.accumulate(1.0 / rank for rank in range(1, pool_size + 1)))
    cycle = random.Random(fixed_seed).choices(range(pool_size), cum_weights=cumulative, k=length)
    start = seed % length
    return cycle[start:] + cycle[:start]


def update_script(
    graph: LabeledDigraph, count: int, rng: random.Random
) -> list[tuple[str, tuple]]:
    """``count`` single-edge updates: insert a new edge / delete an old one.

    Alternates ``("add", (v, u, label_name))`` with an absent edge and
    ``("remove", ...)`` with an edge of the original graph, each edge
    used once, so the script applies cleanly in order to any copy of
    ``graph``.  Maintenance cost follows the endpoints' degrees (the
    affected-pair ball), so endpoints and deleted edges are systematic
    samples along the degree order; the seed pairs the endpoints, picks
    the inserted labels and orders the script.
    """
    degree = {vertex: graph.out_degree(vertex) for vertex in graph.vertices()}
    by_degree = sorted(degree, key=lambda vertex: (degree[vertex], vertex))
    labels = sorted(graph.labels_used())
    name_of = graph.registry.name_of
    inserts, deletes = (count + 1) // 2, count // 2
    sources = systematic_sample(by_degree, inserts)
    targets = systematic_sample(by_degree, inserts)
    rng.shuffle(targets)
    added = []
    for v, u in zip(sources, targets, strict=True):
        free = [label for label in labels if not graph.has_edge(v, u, label)]
        if free:
            added.append((v, u, name_of(rng.choice(free))))
    existing = sorted(graph.triples(), key=lambda edge: (degree[edge[0]] + degree[edge[1]], edge))
    removed = [(v, u, name_of(label)) for v, u, label in systematic_sample(existing, deletes)]
    rng.shuffle(added)
    rng.shuffle(removed)
    script: list[tuple[str, tuple]] = []
    for add, remove in itertools.zip_longest(added, removed):
        if add is not None:
            script.append(("add", add))
        if remove is not None:
            script.append(("remove", remove))
    return script
