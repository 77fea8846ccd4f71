"""Kernel backend selection: pure-Python merge loops or NumPy.

Every set-algebra primitive the hot paths run — PairSet
union/intersection/difference, membership, the hash-join compose, bulk
``from_codes`` packing, disjoint column concatenation — dispatches
through this package.  Two backends implement the contract:

* :mod:`.pure` — the original merge/gallop loops (always available);
* :mod:`.numpy_backend` — vectorized twins over zero-copy ``int64``
  views (present when ``numpy`` is importable; the ``repro[fast]``
  extra).

The backend is chosen **once at import**: ``REPRO_KERNELS=numpy|pure``
overrides, otherwise numpy is used when importable.  :func:`set_backend`
(the ``repro build/serve --kernels`` plumb-through) re-selects at
runtime *and* exports the choice into ``os.environ`` so spawned worker
processes — build shards, partition workers, the process-serving pool —
re-derive the same backend at their own import: a build must never mix
backends mid-protocol by accident (they interoperate, but benchmarks
and fingerprint comparisons want one declared backend per run).

Both backends return bit-identical columns for every shared primitive,
so the choice is invisible to results — only to wall-clock time.
"""

from __future__ import annotations

import os
import warnings
from array import array
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from types import ModuleType

from repro.core.kernels import pure

_ENV_VAR = "REPRO_KERNELS"

_BACKENDS: dict[str, ModuleType] = {"pure": pure}
try:  # pragma: no cover - exercised via the numpy-absent CI leg
    from repro.core.kernels import numpy_backend

    _BACKENDS["numpy"] = numpy_backend
except ImportError:  # pragma: no cover
    numpy_backend = None  # type: ignore[assignment]

Column = pure.Column


def available_backends() -> tuple[str, ...]:
    """The installable backend names, preferred first."""
    return tuple(name for name in ("numpy", "pure") if name in _BACKENDS)


def _initial_backend() -> str:
    requested = os.environ.get(_ENV_VAR, "").strip().lower()
    if requested:
        if requested in _BACKENDS:
            return requested
        if requested == "numpy":
            warnings.warn(
                f"{_ENV_VAR}=numpy requested but numpy is not importable; "
                "falling back to the pure backend",
                RuntimeWarning,
                stacklevel=2,
            )
            return "pure"
        warnings.warn(
            f"ignoring unknown {_ENV_VAR}={requested!r} "
            f"(known: {', '.join(sorted(_BACKENDS))})",
            RuntimeWarning,
            stacklevel=2,
        )
    return "numpy" if "numpy" in _BACKENDS else "pure"


_ACTIVE = _initial_backend()


def active_backend() -> str:
    """The name of the backend primitives currently dispatch to."""
    return _ACTIVE


def backend_module() -> ModuleType:
    """The active backend module (for backend-specific kernels)."""
    return _BACKENDS[_ACTIVE]


def set_backend(name: str) -> str:
    """Select a backend by name; returns the previously active name.

    Also exports the choice into ``os.environ[REPRO_KERNELS]`` so worker
    processes spawned after this call select the same backend.
    """
    global _ACTIVE
    if name not in _BACKENDS:
        known = ", ".join(available_backends())
        raise ValueError(f"unknown kernel backend {name!r} (available: {known})")
    previous = _ACTIVE
    _ACTIVE = name
    os.environ[_ENV_VAR] = name
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily select a backend (bench and equivalence tests)."""
    had_env = _ENV_VAR in os.environ
    previous_env = os.environ.get(_ENV_VAR)
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)
        if had_env:
            os.environ[_ENV_VAR] = previous_env  # type: ignore[arg-type]
        else:
            os.environ.pop(_ENV_VAR, None)


# ---------------------------------------------------------------------------
# dispatched primitives (the PairSet/parallel-facing contract)
# ---------------------------------------------------------------------------


def intersect(a: Column, b: Column) -> array:
    """Sorted duplicate-free intersection of two columns."""
    return _BACKENDS[_ACTIVE].intersect(a, b)


def union(a: Column, b: Column) -> array:
    """Sorted duplicate-free union of two columns."""
    return _BACKENDS[_ACTIVE].union(a, b)


def difference(a: Column, b: Column) -> array:
    """Sorted duplicate-free difference ``a \\ b`` of two columns."""
    return _BACKENDS[_ACTIVE].difference(a, b)


def contains(column: Column, code: int) -> bool:
    """Membership of ``code`` in a sorted column."""
    return _BACKENDS[_ACTIVE].contains(column, code)


def from_codes(codes: Iterable[int]) -> array:
    """Arbitrary codes → sorted duplicate-free column."""
    return _BACKENDS[_ACTIVE].from_codes(codes)


def column_from_set(codes: set[int]) -> array:
    """A known-unique code set → sorted column."""
    return _BACKENDS[_ACTIVE].column_from_set(codes)


def concat_sorted(columns: Iterable[Column]) -> array:
    """Pairwise-disjoint sorted columns → one sorted column."""
    return _BACKENDS[_ACTIVE].concat_sorted(columns)


def compose(left, right, loops_only: bool = False) -> set[int] | array:
    """Relational composition of two PairSet-shaped operands.

    Pure returns a lazy code set; numpy returns the sorted column
    directly (same value — the physical state is backend-specific).
    """
    return _BACKENDS[_ACTIVE].compose(left, right, loops_only)


def loops(pairs) -> set[int] | array:
    """The ``v == u`` subset of a PairSet-shaped operand."""
    return _BACKENDS[_ACTIVE].loops(pairs)
