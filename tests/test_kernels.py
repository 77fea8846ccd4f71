"""The kernel backends agree bit-for-bit, everywhere.

The contract of :mod:`repro.core.kernels` is that the numpy backend is
a *pure acceleration*: every algebra primitive, every composition, and
every full index build produces byte-identical columns under either
backend, so flipping ``REPRO_KERNELS`` can never change an answer.
These tests check that contract by property (Hypothesis) over all
three PairSet backings, end-to-end over every parallelizable engine
(fingerprint identity), and for the degraded numpy-absent environment
(subprocess with the import hidden).
"""

from __future__ import annotations

import os
import subprocess
import sys
from array import array

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.path_index import InterestAwarePathIndex, PathIndex
from repro.core import kernels
from repro.core.cpqx import CPQxIndex
from repro.core.interest import InterestAwareIndex
from repro.core.pairset import PairSet
from repro.core.parallel import index_fingerprint
from repro.graph.generators import random_graph
from repro.graph.interner import VertexInterner

HAVE_NUMPY = "numpy" in kernels.available_backends()

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Enough ids that packed codes exercise both halves of the word.
NUM_IDS = 12

#: Ids spread past 2**12: a target this wide makes numpy compose's
#: (sources x target width) presence grid exceed its budget, so its
#: np.unique dedup branch runs instead of the bitmap.
WIDE_IDS = (0, 1, 2, 3, 4097, 6000, 9001)

BACKINGS = ("owned", "lazy", "mapped")


def _interner() -> VertexInterner:
    interner = VertexInterner()
    for i in range(NUM_IDS):
        interner.intern(f"v{i}")
    return interner


def _pairset(codes: set[int], backing: str, interner: VertexInterner) -> PairSet:
    if backing == "owned":
        return PairSet.from_codes(codes, interner)
    if backing == "lazy":
        return PairSet.from_code_set(set(codes), interner)
    column = array("q", sorted(codes))
    return PairSet.from_mapped(memoryview(column), interner)


def _codes(draw, ids=st.integers(0, NUM_IDS - 1)) -> set[int]:
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=40))
    return {(v << 32) | u for v, u in pairs}


@st.composite
def operand_pairs(draw, ids=st.integers(0, NUM_IDS - 1)):
    """Two code sets plus a backing choice for each."""
    return (
        _codes(draw, ids), _codes(draw, ids),
        draw(st.sampled_from(BACKINGS)), draw(st.sampled_from(BACKINGS)),
    )


@st.composite
def disjoint_parts(draw):
    """One drawn code set split into 0-5 disjoint parts, each with a backing.

    Parts a split leaves without codes are kept, as empty parts.
    """
    codes = sorted(_codes(draw))
    count = draw(st.integers(0, 5))
    parts: list[set[int]] = [set() for _ in range(count)]
    if count:
        slots = draw(st.lists(
            st.integers(0, count - 1), min_size=len(codes), max_size=len(codes)
        ))
        for code, slot in zip(codes, slots):
            parts[slot].add(code)
    return [(part, draw(st.sampled_from(BACKINGS))) for part in parts]


def _both_backends(op):
    """Run ``op`` under each backend, returning sorted code lists."""
    results = {}
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            results[backend] = sorted(op().iter_codes())
    return results


@needs_numpy
class TestAlgebraEquivalence:
    """union/intersect/difference identical across backends x backings."""

    @_SETTINGS
    @given(operand_pairs())
    def test_set_algebra(self, drawn):
        codes_a, codes_b, backing_a, backing_b = drawn
        interner = _interner()
        for op in (
            lambda a, b: a & b,
            lambda a, b: a | b,
            lambda a, b: a - b,
        ):
            results = {}
            for backend in ("pure", "numpy"):
                with kernels.use_backend(backend):
                    a = _pairset(codes_a, backing_a, interner)
                    b = _pairset(codes_b, backing_b, interner)
                    results[backend] = sorted(op(a, b).iter_codes())
            assert results["pure"] == results["numpy"]

    @staticmethod
    def _check_compose(drawn, loops_only):
        codes_a, codes_b, backing_a, backing_b = drawn
        interner = _interner()
        results = {}
        for backend in ("pure", "numpy"):
            with kernels.use_backend(backend):
                a = _pairset(codes_a, backing_a, interner)
                b = _pairset(codes_b, backing_b, interner)
                results[backend] = sorted(
                    a.compose(b, loops_only=loops_only).iter_codes()
                )
        assert results["pure"] == results["numpy"]

    @_SETTINGS
    @given(operand_pairs(), st.booleans())
    def test_compose(self, drawn, loops_only):
        self._check_compose(drawn, loops_only)

    @_SETTINGS
    @given(operand_pairs(st.sampled_from(WIDE_IDS)), st.booleans())
    def test_compose_sparse_ids(self, drawn, loops_only):
        self._check_compose(drawn, loops_only)

    @_SETTINGS
    @given(operand_pairs())
    def test_loops_and_membership(self, drawn):
        codes_a, _, backing_a, _ = drawn
        interner = _interner()
        probe = (3 << 32) | 5
        rows = {}
        for backend in ("pure", "numpy"):
            with kernels.use_backend(backend):
                a = _pairset(codes_a, backing_a, interner)
                rows[backend] = (
                    sorted(a.loops().iter_codes()),
                    a.contains_code(probe),
                    sorted(PairSet.from_codes(codes_a, interner).iter_codes()),
                )
        assert rows["pure"] == rows["numpy"]

    @_SETTINGS
    @given(disjoint_parts())
    @example([])
    @example([(set(), "owned"), (set(), "mapped"), ({(1 << 32) | 2}, "lazy")])
    @example([({(1 << 32) | 2, (3 << 32) | 1}, "mapped")])
    def test_union_disjoint(self, drawn):
        interner = _interner()
        expected = sorted(set().union(*(codes for codes, _ in drawn)))
        for backend in ("pure", "numpy"):
            with kernels.use_backend(backend):
                parts = [_pairset(codes, backing, interner) for codes, backing in drawn]
                merged = PairSet.union_disjoint(iter(parts), interner)
                assert list(merged.iter_codes()) == expected
                if len(parts) == 1:
                    assert merged is parts[0]

    def test_empty_operands(self):
        interner = _interner()
        for backing in BACKINGS:
            results = _both_backends(
                lambda: _pairset(set(), backing, interner)  # noqa: B023
                & _pairset({(1 << 32) | 2}, backing, interner)  # noqa: B023
            )
            assert results["pure"] == results["numpy"] == []


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


@needs_numpy
class TestEngineFingerprints:
    """Full builds fingerprint-identical under either backend."""

    @pytest.mark.parametrize("key,build", BUILDERS, ids=[k for k, _ in BUILDERS])
    def test_serial_builds_identical(self, key, build):
        graph = random_graph(50, 260, 3, seed=11)
        with kernels.use_backend("pure"):
            pure_index = build(graph, 1)
        with kernels.use_backend("numpy"):
            numpy_index = build(graph, 1)
        assert index_fingerprint(pure_index) == index_fingerprint(numpy_index)

    def test_sharded_numpy_equals_pure_serial(self):
        # workers spawn with REPRO_KERNELS in their env, so the sharded
        # numpy build must land on the same index as a pure serial one.
        graph = random_graph(40, 200, 3, seed=3)
        with kernels.use_backend("pure"):
            serial = CPQxIndex.build(graph, k=2, workers=1)
        with kernels.use_backend("numpy"):
            sharded = CPQxIndex.build(graph, k=2, workers=2)
        assert index_fingerprint(serial) == index_fingerprint(sharded)

    def test_wide_label_alphabet_falls_back(self):
        # Above MAX_ENUMERATION_LABELS the numpy enumeration declines
        # and the pure loop serves both backends: results still equal.
        from repro.core.kernels.numpy_backend import MAX_ENUMERATION_LABELS
        from repro.core.paths import enumerate_sequences_codes

        labels = MAX_ENUMERATION_LABELS + 6
        graph = random_graph(30, 3 * labels, labels, seed=2)
        rows = {}
        for backend in ("pure", "numpy"):
            with kernels.use_backend(backend):
                rows[backend] = {
                    seq: sorted(pairs.iter_codes())
                    for seq, pairs in enumerate_sequences_codes(graph, 2).items()
                }
        assert rows["pure"] == rows["numpy"]


class TestBackendSelection:
    def test_pure_always_available(self):
        assert "pure" in kernels.available_backends()
        assert kernels.active_backend() in kernels.available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_backend("cupy")

    def test_set_backend_round_trips_env(self):
        previous = kernels.set_backend("pure")
        try:
            assert kernels.active_backend() == "pure"
            assert os.environ[kernels._ENV_VAR] == "pure"
            assert kernels.backend_module().__name__.endswith(".pure")
        finally:
            kernels.set_backend(previous)

    def test_use_backend_restores(self):
        before = kernels.active_backend()
        env_before = os.environ.get(kernels._ENV_VAR)
        with kernels.use_backend("pure"):
            assert kernels.active_backend() == "pure"
        assert kernels.active_backend() == before
        assert os.environ.get(kernels._ENV_VAR) == env_before

    def test_stats_report_active_backend(self):
        from repro.core.stats import stats_of

        graph = random_graph(12, 40, 2, seed=0)
        index = CPQxIndex.build(graph, k=1)
        assert stats_of(index).kernels == kernels.active_backend()
        assert f"kernels={kernels.active_backend()}" in stats_of(index).describe()


#: Bootstrap for subprocess runs with the numpy import hidden: any
#: ``import numpy`` raises ImportError before repro is ever imported.
_HIDE_NUMPY = (
    "import sys; sys.modules['numpy'] = None; "
)


class TestNumpyAbsent:
    """The pure backend carries the whole system when numpy is missing."""

    def _run(self, code: str, env: dict | None = None) -> str:
        merged = {**os.environ, **(env or {})}
        merged.pop("REPRO_KERNELS", None)
        merged.update(env or {})
        proc = subprocess.run(
            [sys.executable, "-c", _HIDE_NUMPY + code],
            capture_output=True, text=True, env=merged, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_falls_back_to_pure(self):
        out = self._run(
            "from repro.core import kernels; "
            "print(kernels.available_backends()); print(kernels.active_backend())"
        )
        assert "('pure',)" in out
        assert out.strip().endswith("pure")

    def test_requested_numpy_warns_and_degrades(self):
        out = self._run(
            "import warnings; "
            "warnings.simplefilter('always'); "
            "from repro.core import kernels; "
            "print(kernels.active_backend())",
            env={"REPRO_KERNELS": "numpy"},
        )
        assert out.strip().endswith("pure")

    def test_end_to_end_build_and_query(self):
        out = self._run(
            "from repro.core.cpqx import CPQxIndex; "
            "from repro.graph.generators import random_graph; "
            "g = random_graph(20, 80, 2, seed=1); "
            "index = CPQxIndex.build(g, k=2); "
            "print(index.num_classes > 0)"
        )
        assert out.strip() == "True"
