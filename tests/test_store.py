"""Tests for the zero-copy columnar store (mmap-backed snapshots, PR 8)."""

from __future__ import annotations

import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpqx import CPQxIndex
from repro.core.interest import InterestAwareIndex
from repro.core.pairset import PairSet
from repro.core.parallel import index_fingerprint
from repro.core.persistence import load_index, save_index
from repro.db import GraphDatabase
from repro.errors import CorruptIndexError, PersistenceError
from repro.graph.generators import random_graph
from repro.graph.interner import VertexInterner
from repro.graph.io import edges_from_strings
from repro.graph.schema import citation_schema
from repro.query.parser import parse
from repro.query.semantics import evaluate
from repro.query.workloads import random_template_queries
from repro.store import (
    MAX_CHAIN,
    PAGE_SIZE,
    STORE_MAGIC,
    open_store,
    write_generation,
    write_store,
)
from repro.store.format import read_header


def build_index(seed: int = 21) -> CPQxIndex:
    return CPQxIndex.build(random_graph(20, 55, 3, seed=seed), k=2)


class TestRoundTrip:
    def test_fingerprint_and_structure_identical(self, tmp_path):
        index = build_index()
        path = tmp_path / "index.rsx"
        write_store(index, path)
        opened = open_store(path)
        assert isinstance(opened, CPQxIndex)
        assert index_fingerprint(opened) == index_fingerprint(index)
        assert opened.k == index.k
        assert opened.num_classes == index.num_classes
        assert opened.num_pairs == index.num_pairs
        assert opened.graph == index.graph

    def test_columns_come_back_mapped(self, tmp_path):
        index = build_index()
        path = tmp_path / "index.rsx"
        write_store(index, path)
        opened = open_store(path)
        assert opened._ic2p and all(
            column.is_mapped() for column in opened._ic2p.values()
        )

    def test_queries_identical_after_reopen(self, tmp_path):
        graph = random_graph(20, 55, 3, seed=22)
        index = CPQxIndex.build(graph, k=2)
        path = tmp_path / "index.rsx"
        write_store(index, path)
        opened = open_store(path)
        for template in ("C2", "S", "Ti"):
            for wq in random_template_queries(graph, template, count=2, seed=23):
                assert opened.evaluate(wq.query) == index.evaluate(wq.query)

    @pytest.mark.parametrize("build", [
        lambda g: CPQxIndex.build(g, k=2),
        lambda g: InterestAwareIndex.build(g, k=2, interests={(1, 2), (2, -1)}),
    ], ids=["cpqx", "iacpqx"])
    def test_join_templates_on_mapped_columns_match_semantics(self, tmp_path, build):
        # Class expansion concatenates memoryview columns here, not arrays.
        graph = random_graph(30, 90, 3, seed=25)
        path = tmp_path / "index.rsx"
        write_store(build(graph), path)
        opened = open_store(path)
        assert all(column.is_mapped() for column in opened._ic2p.values())
        for template in ("C2", "C4", "TC", "SC", "ST", "Ti", "Si"):
            queries = random_template_queries(graph, template, count=2, seed=26)
            assert queries, template
            for wq in queries:
                assert opened.evaluate(wq.query) == evaluate(wq.query, opened.graph)

    def test_file_is_page_aligned(self, tmp_path):
        index = build_index()
        path = tmp_path / "index.rsx"
        write_store(index, path)
        with open(path, "rb") as handle:
            blob = handle.read()
        header = read_header(blob, path)
        assert header.meta_off == PAGE_SIZE
        assert header.cols_off % PAGE_SIZE == 0
        assert blob.startswith(STORE_MAGIC)

    def test_str_and_tuple_vertices(self, tmp_path):
        graph = citation_schema().generate(60, seed=3)
        index = CPQxIndex.build(graph, k=1)
        path = tmp_path / "gmark.rsx"
        write_store(index, path)
        opened = open_store(path)
        assert opened.graph == graph
        assert index_fingerprint(opened) == index_fingerprint(index)

    def test_vertex_data_preserved(self, tmp_path):
        graph = edges_from_strings(["0 1 a"])
        graph.set_vertex_data(0, name="zero", weight=3)
        index = CPQxIndex.build(graph, k=1)
        path = tmp_path / "data.rsx"
        write_store(index, path)
        assert open_store(path).graph.vertex_data(0) == {"name": "zero", "weight": 3}

    def test_interest_aware_interests_preserved(self, tmp_path):
        graph = random_graph(18, 50, 3, seed=24)
        index = InterestAwareIndex.build(graph, k=2, interests={(1, 2), (2, -1)})
        path = tmp_path / "ia.rsx"
        write_store(index, path)
        opened = open_store(path)
        assert isinstance(opened, InterestAwareIndex)
        assert opened.interests == index.interests
        assert index_fingerprint(opened) == index_fingerprint(index)

    def test_load_index_dispatches_on_magic(self, tmp_path):
        index = build_index()
        path = tmp_path / "index.rsx"
        write_store(index, path)
        opened = load_index(path)
        assert index_fingerprint(opened) == index_fingerprint(index)

    def test_maintenance_works_after_reopen(self, tmp_path):
        graph = edges_from_strings(["0 1 a", "1 2 a"])
        index = CPQxIndex.build(graph, k=2)
        path = tmp_path / "index.rsx"
        write_store(index, path)
        opened = open_store(path)
        opened.insert_edge(2, 0, "a")
        query = parse("(a . a . a) & id", opened.graph.registry)
        assert opened.evaluate(query) == {(0, 0), (1, 1), (2, 2)}

    def test_mapped_engine_pickles_to_owned(self, tmp_path):
        index = build_index()
        path = tmp_path / "index.rsx"
        write_store(index, path)
        opened = open_store(path)
        clone = pickle.loads(pickle.dumps(opened))
        assert index_fingerprint(clone) == index_fingerprint(index)
        assert not any(column.is_mapped() for column in clone._ic2p.values())

    def test_open_survives_unlinked_file(self, tmp_path):
        # POSIX: the mapping pins the pages after the name is gone.
        index = build_index()
        path = tmp_path / "index.rsx"
        write_store(index, path)
        opened = open_store(path)
        os.unlink(path)
        assert opened.num_pairs == index.num_pairs
        assert index_fingerprint(opened) == index_fingerprint(index)


class TestLegacyFormats:
    # The JSON formats re-intern vertices on load, so packed codes (and
    # fingerprints) legitimately differ; equality is checked at the
    # structure and answer level, as in test_persistence.

    def test_checksummed_json_still_loads(self, tmp_path):
        index = build_index()
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path)
        assert isinstance(loaded, CPQxIndex)
        assert loaded.num_classes == index.num_classes
        assert loaded.num_pairs == index.num_pairs
        assert loaded.graph == index.graph

    def test_headerless_legacy_json_still_loads(self, tmp_path):
        # Pre-PR 7 files are bare JSON documents with no checksum line.
        graph = random_graph(20, 55, 3, seed=22)
        index = CPQxIndex.build(graph, k=2)
        path = tmp_path / "index.json"
        save_index(index, path)
        with open(path, "rb") as handle:
            blob = handle.read()
        legacy = tmp_path / "legacy.json"
        legacy.write_bytes(blob.split(b"\n", 1)[1])
        assert json.loads(legacy.read_bytes())["format"] == "repro-index"
        loaded = load_index(legacy)
        assert loaded.num_pairs == index.num_pairs
        for wq in random_template_queries(graph, "C2", count=3, seed=23):
            assert loaded.evaluate(wq.query) == index.evaluate(wq.query)


def _corrupt(path, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestCorruption:
    @pytest.fixture()
    def stored(self, tmp_path):
        index = build_index()
        path = tmp_path / "index.rsx"
        write_store(index, path)
        return path

    def test_truncated_header(self, stored):
        with open(stored, "r+b") as handle:
            handle.truncate(40)
        with pytest.raises(CorruptIndexError):
            open_store(stored)

    def test_truncated_columns(self, stored):
        with open(stored, "r+b") as handle:
            handle.truncate(os.path.getsize(stored) - 16)
        with pytest.raises(CorruptIndexError):
            open_store(stored)

    def test_bit_flip_in_meta(self, stored):
        _corrupt(stored, PAGE_SIZE + 10)
        with pytest.raises(CorruptIndexError):
            open_store(stored)

    def test_bit_flip_in_columns(self, stored):
        _corrupt(stored, os.path.getsize(stored) - 5)
        with pytest.raises(CorruptIndexError):
            open_store(stored)
        # verify=False trades that scan for open latency, by contract.
        open_store(stored, verify=False)

    def test_wrong_magic(self, stored):
        _corrupt(stored, 0)
        with pytest.raises(CorruptIndexError):
            open_store(stored)
        with pytest.raises(CorruptIndexError):
            load_index(stored)

    def test_unsupported_version(self, stored):
        with open(stored, "r+b") as handle:
            handle.seek(16)
            handle.write((99).to_bytes(4, "little"))
        with pytest.raises(PersistenceError):
            open_store(stored)

    def test_missing_parent_generation(self, tmp_path):
        db = GraphDatabase.from_graph(random_graph(20, 55, 3, seed=21))
        db.build_index(engine="cpqx", k=2)
        state = write_generation(db.engine, tmp_path)
        db.update(add_edges=[(0, 1, "l1")])
        state = write_generation(db.engine, tmp_path, state)
        assert state.generation == 2
        os.unlink(tmp_path / "gen-000001.rsx")
        with pytest.raises(CorruptIndexError):
            open_store(state.path)


class TestGenerations:
    def test_delta_is_small_and_merges_newest_wins(self, tmp_path):
        db = GraphDatabase.from_graph(random_graph(60, 400, 3, seed=9))
        db.build_index(engine="cpqx", k=2)
        state = write_generation(db.engine, tmp_path)
        full_size = os.path.getsize(state.path)
        db.update(add_edges=[(0, 1, "l1")])
        state = write_generation(db.engine, tmp_path, state)
        assert state.generation == 2
        assert state.chain == 2
        assert os.path.getsize(state.path) < full_size / 2
        opened = open_store(state.path)
        assert index_fingerprint(opened) == index_fingerprint(db.engine)

    def test_unchanged_engine_reuses_state(self, tmp_path):
        db = GraphDatabase.from_graph(random_graph(20, 55, 3, seed=21))
        db.build_index(engine="cpqx", k=2)
        state = write_generation(db.engine, tmp_path)
        files = set(os.listdir(tmp_path))
        again = write_generation(db.engine, tmp_path, state)
        assert again is state
        assert set(os.listdir(tmp_path)) == files

    def test_chain_compacts_after_max_chain(self, tmp_path):
        db = GraphDatabase.from_graph(random_graph(20, 55, 3, seed=21))
        db.build_index(engine="cpqx", k=2)
        state = write_generation(db.engine, tmp_path)
        for step in range(MAX_CHAIN + 1):
            db.update(add_edges=[(step, step + 1, "l1")])
            state = write_generation(db.engine, tmp_path, state)
        assert state.chain < state.generation  # at least one compaction
        opened = open_store(state.path)
        assert index_fingerprint(opened) == index_fingerprint(db.engine)
        assert opened._store_state.generation == state.generation

    def test_opened_state_continues_the_chain(self, tmp_path):
        db = GraphDatabase.from_graph(random_graph(20, 55, 3, seed=21))
        db.build_index(engine="cpqx", k=2)
        state = write_generation(db.engine, tmp_path)
        opened = open_store(state.path)
        resumed = write_generation(opened, tmp_path, opened._store_state)
        assert resumed is opened._store_state  # nothing changed since the write
        opened.insert_edge(0, 1, "l1")
        resumed = write_generation(opened, tmp_path, opened._store_state)
        assert resumed.generation == 2
        reopened = open_store(resumed.path)
        assert index_fingerprint(reopened) == index_fingerprint(opened)


#: Small id universe so random pair sets collide often.
ids = st.integers(min_value=0, max_value=30)
pair_sets = st.sets(st.tuples(ids, ids), max_size=80)


def _mapped_twin(owned: PairSet, interner: VertexInterner) -> PairSet:
    """A mapped PairSet with the same codes, built from plain bytes."""
    view = memoryview(owned.codes.tobytes()).cast("q")
    return PairSet.from_mapped(view, interner)


class TestMappedPairSet:
    @settings(max_examples=60, deadline=None)
    @given(pair_sets, pair_sets)
    def test_mapped_equals_owned_under_algebra(self, left, right):
        interner = VertexInterner(range(31))
        owned_l = PairSet.from_vertex_pairs(left, interner)
        owned_r = PairSet.from_vertex_pairs(right, interner)
        mapped_l = _mapped_twin(owned_l, interner)
        mapped_r = _mapped_twin(owned_r, interner)
        assert mapped_l.is_mapped()
        assert mapped_l == owned_l
        assert mapped_l.to_set() == owned_l.to_set()
        assert len(mapped_l) == len(owned_l)
        for op in ("intersection", "union", "difference"):
            expected = getattr(owned_l, op)(owned_r)
            assert getattr(mapped_l, op)(mapped_r) == expected
            assert getattr(mapped_l, op)(owned_r) == expected
            assert getattr(owned_l, op)(mapped_r) == expected
        assert mapped_l.compose(mapped_r) == owned_l.compose(owned_r)
        assert mapped_l.loops() == owned_l.loops()

    @settings(max_examples=40, deadline=None)
    @given(pair_sets, st.tuples(ids, ids))
    def test_mapped_copy_on_write(self, pairs, probe):
        interner = VertexInterner(range(31))
        owned = PairSet.from_vertex_pairs(pairs, interner)
        mapped = _mapped_twin(owned, interner)
        code = interner.intern(probe[0]) << 32 | interner.intern(probe[1])
        assert mapped.contains_code(code) == owned.contains_code(code)
        assert mapped.with_code(code) == owned.with_code(code)
        if owned.contains_code(code):
            assert mapped.without_code(code) == owned.without_code(code)
        else:
            with pytest.raises(KeyError):
                mapped.without_code(code)
        # The mapped original is untouched by either derivation.
        assert mapped == owned

    def test_from_mapped_rejects_wrong_format(self):
        interner = VertexInterner(range(4))
        with pytest.raises(ValueError):
            PairSet.from_mapped(memoryview(b"\x00" * 8), interner)

    def test_mapped_pickle_round_trip(self):
        interner = VertexInterner(range(8))
        owned = PairSet.from_vertex_pairs({(1, 2), (3, 4)}, interner)
        mapped = _mapped_twin(owned, interner)
        clone = pickle.loads(pickle.dumps(mapped))
        assert clone == owned
        assert not clone.is_mapped()
