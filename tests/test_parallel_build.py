"""Sharded parallel construction equals serial construction, everywhere.

The contract of :mod:`repro.core.parallel` is absolute: a build sharded
over N worker processes is **pair-for-pair identical** to the serial
build — same postings, same uniform sequence sets, same loop flags —
for every engine that opts in.  These tests check the contract on
random graphs across every parallel engine, the pure sharding/merging
helpers by property (Hypothesis), and the plumbing through the engine
registry, the session facade, and the CLI.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.path_index import InterestAwarePathIndex, PathIndex
from repro.core.cpqx import CPQxIndex
from repro.core.interest import InterestAwareIndex
from repro.core.parallel import (
    index_fingerprint,
    merge_code_columns,
    resolve_workers,
    shard_round_robin,
)
from repro.db import GraphDatabase, engine_spec
from repro.errors import IndexBuildError
from repro.graph.digraph import LabeledDigraph
from repro.graph.generators import random_graph

#: (engine key, build callable) for every parallelizable engine.
BUILDERS = [
    ("cpqx", lambda g, w: CPQxIndex.build(g, k=2, workers=w)),
    ("path", lambda g, w: PathIndex.build(g, k=2, workers=w)),
    (
        "iacpqx",
        lambda g, w: InterestAwareIndex.build(
            g, k=2, interests={(1, 2), (2, -1)}, workers=w
        ),
    ),
    (
        "iapath",
        lambda g, w: InterestAwarePathIndex.build(
            g, k=2, interests={(1, 2), (2, -1)}, workers=w
        ),
    ),
]


class TestShardedEqualsSerial:
    """The property the subsystem stands on, over random graphs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("key,build", BUILDERS, ids=[k for k, _ in BUILDERS])
    def test_random_graph_fingerprints_match(self, key, build, seed):
        graph = random_graph(50, 260, 3, seed=seed)
        serial = build(graph, 1)
        sharded = build(graph, 2)
        assert index_fingerprint(serial) == index_fingerprint(sharded)

    def test_three_workers_and_skewed_graph(self):
        # A star-ish graph concentrates work on few sources: the
        # round-robin sharding must still cover every class anchor.
        graph = LabeledDigraph.from_triples(
            [("hub", f"spoke{i}", "a") for i in range(30)]
            + [(f"spoke{i}", f"spoke{i+1}", "b") for i in range(29)]
        )
        serial = CPQxIndex.build(graph, k=2, workers=1)
        sharded = CPQxIndex.build(graph, k=2, workers=3)
        assert index_fingerprint(serial) == index_fingerprint(sharded)

    def test_answers_match_on_query_stream(self):
        from repro.query.workloads import serving_queries

        graph = random_graph(60, 360, 3, seed=5)
        queries = serving_queries(graph, seed=5)[:25]
        serial = CPQxIndex.build(graph, k=2)
        sharded = CPQxIndex.build(graph, k=2, workers=2)
        for query in queries:
            assert sharded.evaluate(query) == serial.evaluate(query)

    def test_empty_and_tiny_graphs(self):
        empty = LabeledDigraph()
        assert index_fingerprint(
            PathIndex.build(empty, k=2, workers=2)
        ) == index_fingerprint(PathIndex.build(empty, k=2))
        tiny = LabeledDigraph.from_triples([("a", "b", "f")])
        assert index_fingerprint(
            CPQxIndex.build(tiny, k=2, workers=4)
        ) == index_fingerprint(CPQxIndex.build(tiny, k=2))


class TestShardingHelpers:
    """Pure-function properties of the shard/merge layer."""

    @given(
        items=st.lists(st.integers(), max_size=60),
        num_shards=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_robin_partitions(self, items, num_shards):
        shards = shard_round_robin(items, num_shards)
        assert all(shard for shard in shards)
        assert len(shards) <= num_shards
        flattened = sorted(code for shard in shards for code in shard)
        assert flattened == sorted(items)
        # Balanced to within one item.
        if shards:
            sizes = [len(shard) for shard in shards]
            assert max(sizes) - min(sizes) <= 1

    @given(
        parts=st.lists(
            st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=20),
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_code_columns_sorts_disjoint_runs(self, parts):
        columns = [array("q", sorted(set(part))) for part in parts]
        merged = merge_code_columns(columns)
        assert list(merged) == sorted(
            code for column in columns for code in column
        )

    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(5) == 5
        assert resolve_workers("auto") >= 1
        for bad in (0, -2, "four", 2.5, True):
            with pytest.raises(IndexBuildError):
                resolve_workers(bad)


class TestPlumbing:
    """workers reaches the builders through every public entry point."""

    def test_registry_spec_forwards_workers(self):
        graph = random_graph(40, 200, 3, seed=3)
        spec = engine_spec("cpqx")
        serial = spec.build(graph, k=2)
        sharded = spec.build(graph, k=2, workers=2)
        assert index_fingerprint(serial) == index_fingerprint(sharded)

    def test_registry_ignores_workers_on_serial_engines(self):
        graph = random_graph(20, 80, 2, seed=3)
        engine = engine_spec("bfs").build(graph, workers=4)
        assert engine.graph is graph  # built despite no workers support

    def test_session_build_index_workers_auto(self):
        graph = random_graph(40, 200, 3, seed=4)
        serial = GraphDatabase.from_graph(graph.copy()).build_index(
            engine="path", k=2
        )
        sharded = GraphDatabase.from_graph(graph.copy()).build_index(
            engine="path", k=2, workers="auto"
        )
        assert index_fingerprint(serial.engine) == index_fingerprint(
            sharded.engine
        )
        assert serial.query("l1 & l2").pairs() == sharded.query("l1 & l2").pairs()

    def test_session_rejects_bad_workers(self):
        db = GraphDatabase.from_triples([("a", "b", "f")])
        with pytest.raises(IndexBuildError):
            db.build_index(engine="cpqx", k=2, workers=0)

    def test_update_rebuild_stays_parallel(self):
        # Path is non-incremental: update() rebuilds with the stored
        # build args, including the worker count.
        graph = random_graph(30, 120, 3, seed=6)
        db = GraphDatabase.from_graph(graph).build_index(
            engine="path", k=2, workers=2
        )
        assert db._build_args["workers"] == 2
        db.update(add_edges=[("n1", "n2", "l1")])
        reference = PathIndex.build(db.graph, k=2)
        assert index_fingerprint(db.engine) == index_fingerprint(reference)

    def test_cli_build_workers_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "par.idx"
        assert main([
            "build", "--dataset", "robots", "--scale", "0.12",
            "--workers", "2", "--out", str(out),
        ]) == 0
        assert out.exists()
        reopened = GraphDatabase.open(out)
        reference = CPQxIndex.build(
            reopened.graph, k=reopened.engine.k
        )
        assert index_fingerprint(reopened.engine) == index_fingerprint(reference)
