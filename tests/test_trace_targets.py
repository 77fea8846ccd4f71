"""The benchmark tracer's targets all resolve against ``src/``.

``benchmarks/e2e/trace.py`` patches layers by dotted name and, by
design, skips a name that no longer resolves with only a warning: its
per-layer metrics then read 0.  This test turns such a silent rename
into a failure.  It also pins what the ruler sees of late
materialization: counting a join's answers records no decode span.  It
loads the tracer by path, so nothing under ``benchmarks/e2e`` has to be
importable as a package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.cpqx import CPQxIndex
from repro.db import GraphDatabase
from repro.graph.generators import random_graph

TRACE_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


@pytest.fixture(scope="module")
def trace_module():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(trace_module):
    tracer = trace_module.Tracer()
    with tracer.installed():
        assert tracer.missing == []
    assert not tracer._patched


def test_class_expansion_reaches_concat_sorted(trace_module):
    # The expansion span must enclose the kernel span, or the per-layer
    # split of expand_classes vs concat_sorted self time is wrong.
    index = CPQxIndex.build(random_graph(20, 60, 2, seed=4), k=2)
    classes = frozenset(index.classes()[:3])
    tracer = trace_module.Tracer()
    with tracer.installed():
        index.expand_classes(classes)
    by_name = {record[0]: record for record in tracer.spans}
    kernel = by_name["kernels.concat_sorted"]
    assert kernel[3] is by_name["cpqx.expand_classes"]


def test_counting_a_join_records_no_decode(trace_module):
    # The ruler's consumer takes len() of the answers: a traced join pass
    # must show no pairset.to_set span, while an explicit decode still does.
    db = GraphDatabase.from_graph(random_graph(20, 60, 2, seed=4))
    db.build_index(engine="cpqx", k=2)
    text = "l1 . l2 . l1"
    tracer = trace_module.Tracer()
    with tracer.installed():
        assert "pairset.to_set" not in tracer.missing
        count = len(db.query(text).pairs())
        names = {record[0] for record in tracer.spans}
        assert count > 0
        assert {"executor.execute", "kernels.compose"} <= names
        assert "pairset.to_set" not in names
        assert len(db.query(text).pairs().to_set()) == count
    assert [record[0] for record in tracer.spans].count("pairset.to_set") == 1
