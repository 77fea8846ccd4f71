"""Outside-in tracing for the benchmark's traced pass.

No file under ``src/`` knows about tracing: :meth:`Tracer.install`
replaces the layers' public callables (module attributes and class
attributes, named in :data:`TARGETS`) with span-recording wrappers and
:meth:`Tracer.uninstall` puts the originals back.  End-to-end numbers
are always measured with nothing installed.

A span is ``(name, start_ns, end_ns, parent, request)``.  Spans live in
memory and are written as JSON lines when the run ends.  A layer's self
time is its spans' duration minus the part their child spans cover.

Targets are resolved by dotted name at install time.  A name that no
longer resolves (a later PR deleted or renamed the layer) is skipped
with a one-line warning and its metrics read 0, so a simplicity PR
cannot break the end-to-end numbers by removing a layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns
from types import FunctionType

#: span name -> "module:attribute.path" of the callable the span wraps.
#: A name is patched where the *caller* looks it up: ``session.py`` does
#: ``from repro.query.parser import parse``, so the parser is wrapped as
#: ``repro.db.session:parse``.
TARGETS = {
    "graph.interned": "repro.graph.digraph:LabeledDigraph.interned",
    "query.parse": "repro.db.session:parse",
    "plan.build": "repro.core.executor:EngineBase.plan",
    "executor.execute": "repro.core.executor:execute_plan",
    "cpqx.lookup": "repro.core.cpqx:CPQxIndex.lookup",
    "cpqx.expand_classes": "repro.core.cpqx:CPQxIndex.expand_classes",
    "cpqx.loop_classes_of": "repro.core.cpqx:CPQxIndex.loop_classes_of",
    "partition.compute": "repro.core.cpqx:compute_partition_codes",
    "kernels.compose": "repro.core.kernels:compose",
    "kernels.concat_sorted": "repro.core.kernels:concat_sorted",
    "kernels.intersect": "repro.core.kernels:intersect",
    "kernels.union": "repro.core.kernels:union",
    "kernels.difference": "repro.core.kernels:difference",
    "kernels.from_codes": "repro.core.kernels:from_codes",
    "kernels.column_from_set": "repro.core.kernels:column_from_set",
    "kernels.loops": "repro.core.kernels:loops",
    "pairset.to_set": "repro.core.pairset:PairSet.to_set",
    "maintenance.insert_edge": "repro.core.maintenance:insert_edge",
    "maintenance.delete_edge": "repro.core.maintenance:delete_edge",
    "maintenance.affected_pairs": "repro.core.maintenance:affected_pairs",
    "maintenance.reclassify": "repro.core.maintenance:reclassify",
    "store.write": "repro.store:write_store",
    "store.open": "repro.store.reader:open_store",
    "store.write_generation": "repro.store:write_generation",
}

#: Counted, not timed: the memo probe is too cheap to carry a span.
#: Hits and misses are told apart per cache by its ``capacity``.
CACHE_GET = "repro.core.cache:LRUCache.get"

#: Spans whose return value's ``len`` is summed into ``<name>.size``.
SIZED = ("maintenance.affected_pairs",)


def _resolve(dotted: str):
    """``(owner, attribute, callable)`` of a ``module:attr.path`` name."""
    module_name, _, path = dotted.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    original = vars(owner).get(attribute) if isinstance(owner, type) else getattr(owner, attribute)
    if not isinstance(original, FunctionType):
        raise AttributeError(f"{dotted} is not a plain function")
    return owner, attribute, original


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent record or None, request]`` in
        #: start order; ``list.append`` keeps this safe across threads.
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []  # span names whose target did not resolve
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request: int | None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[4]
        record = [name, 0, 0, parent, request]
        self.spans.append(record)
        stack.append(record)
        record[1] = perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter_ns()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """Record a harness-side span (around a call into a layer)."""
        record = self._open(name, request)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name: str, original):
        open_span, close_span = self._open, self._close
        sized = name in SIZED
        counters = self.counters

        @wraps(original)
        def traced(*args, **kwargs):
            record = open_span(name, None)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(record)
            if sized:
                counters[name + ".size"] += len(result)
            return result

        return traced

    def _wrap_cache_get(self, original):
        counters = self.counters

        @wraps(original)
        def counted(cache, key):
            value = original(cache, key)
            outcome = "miss" if value is None else "hit"
            counters[f"cache.{cache.capacity}.{outcome}"] += 1
            return value

        return counted

    # -- install / uninstall -------------------------------------------
    def _patch(self, name: str, dotted: str, make) -> None:
        try:
            owner, attribute, original = _resolve(dotted)
        except (ImportError, AttributeError) as exc:
            if name not in self.missing:
                self.missing.append(name)
                print(f"trace: {name} not traced ({exc}); its metrics read 0", file=sys.stderr)
            return
        setattr(owner, attribute, make(original))
        self._patched.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every resolvable target; warn once per target that is gone."""
        for name, dotted in TARGETS.items():
            self._patch(name, dotted, lambda original, name=name: self._wrap(name, original))
        self._patch("cache.get", CACHE_GET, self._wrap_cache_get)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation ----------------------------------------------------
    def totals(self, first: int = 0, last: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` over ``spans[first:last]``."""
        window = self.spans[first:last]
        covered: dict[int, int] = {id(record): 0 for record in window}
        for _name, start, end, parent, _request in window:
            if parent is not None and id(parent) in covered:
                covered[id(parent)] += end - start
        out: dict[str, dict[str, float]] = {}
        for record in window:
            name, start, end = record[0], record[1], record[2]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - covered[id(record)]) / 1e9
        return out

    def write(self, path) -> None:
        """One JSON object per span, in start order; ``parent`` is a line number."""
        line_of = {id(record): line for line, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": -1 if parent is None else line_of[id(parent)],
                    "request": request,
                }) + "\n")
