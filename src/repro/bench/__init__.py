"""Benchmark harness: timing, runners, reporting, per-figure experiments."""

from repro.bench.reporting import ExperimentResult, format_table, speedup
from repro.bench.runner import (
    ALL_METHODS,
    FULL_INDEX_METHODS,
    INTEREST_METHODS,
    PreparedDataset,
    build_engine,
    prepare_dataset,
)
from repro.bench.timing import Timing, time_call, time_queries

__all__ = [
    "ALL_METHODS",
    "ExperimentResult",
    "FULL_INDEX_METHODS",
    "INTEREST_METHODS",
    "PreparedDataset",
    "Timing",
    "build_engine",
    "format_table",
    "prepare_dataset",
    "speedup",
    "time_call",
    "time_queries",
]
