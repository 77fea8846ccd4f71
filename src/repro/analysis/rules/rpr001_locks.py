"""RPR001 — lock discipline for memo caches and session state.

Two invariants from the PR-2/PR-3 concurrency work:

* the memo LRUs (the token-guarded ``_memo_results`` /
  ``_memo_subplans`` and the tokenless ``_memo_statements``) and their
  attach helper ``_token_cache`` are owned by
  ``EngineBase``'s sanctioned accessors in ``core/executor.py``.  Any
  other module touching them bypasses the copy-on-write replacement
  that runs under ``_CACHE_ATTACH_LOCK`` — a reader could then observe
  a half-initialized cache or resurrect a stale one;
* the session state of ``db/session.py`` (``_engine`` / ``_spec`` /
  ``_build_args`` / ``_engine_gen``) is only ever assigned inside
  ``__init__`` and ``_adopt``, both of which run on the RWLock's
  exclusive side (or before the session is shared).  An assignment
  anywhere else would swap the engine under live readers.
"""

from __future__ import annotations

import ast

from repro.analysis.context import ParsedModule, ProjectContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule

#: The memo attributes owned by EngineBase's accessors.
MEMO_ATTRS = frozenset({"_memo_results", "_memo_subplans", "_memo_statements"})

#: Session attributes that must only be assigned in the write path.
SESSION_ATTRS = frozenset({"_engine", "_spec", "_build_args", "_engine_gen"})

#: Functions of GraphDatabase sanctioned to assign session state.
SESSION_WRITERS = frozenset({"__init__", "_adopt"})

#: The sanctioned home of the memo-cache machinery.
EXECUTOR_FILE = "repro/core/executor.py"

#: The file whose session-state discipline is checked.
SESSION_FILE = "repro/db/session.py"


class LockDisciplineRule(Rule):
    """Memo caches and session state touched only via sanctioned paths."""

    rule_id = "RPR001"
    title = "lock discipline (memo caches, session state)"

    def check(self, module: ParsedModule, project: ProjectContext) -> list[Finding]:
        findings: list[Finding] = []
        if not module.path.endswith(EXECUTOR_FILE):
            findings.extend(self._check_memo_access(module))
        if module.path.endswith(SESSION_FILE):
            findings.extend(self._check_session_writes(module))
        return findings

    def _check_memo_access(self, module: ParsedModule) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr in MEMO_ATTRS:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"memo cache {node.attr!r} accessed outside EngineBase's "
                        f"accessors in core/executor.py; use _result_cache()/"
                        f"_subplan_cache()/statement_cache() (or snapshot via "
                        f"__getstate__), never the attribute",
                    )
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_token_cache"
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        "_token_cache() called outside core/executor.py; the "
                        "copy-on-write cache replacement under _CACHE_ATTACH_LOCK "
                        "is EngineBase-internal",
                    )
                )
        return findings

    def _check_session_writes(self, module: ParsedModule) -> list[Finding]:
        findings: list[Finding] = []
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            for func in class_node.body:
                if not isinstance(func, ast.FunctionDef | ast.AsyncFunctionDef):
                    continue
                if func.name in SESSION_WRITERS:
                    continue
                findings.extend(self._session_writes_in(module, func))
        return findings

    def _session_writes_in(
        self, module: ParsedModule, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign | ast.AnnAssign):
                targets = [node.target]
            findings.extend(
                self.finding(
                    module,
                    target,
                    f"session state {target.attr!r} assigned in "
                    f"{func.name!r}; only __init__ and _adopt (which run "
                    f"on the RWLock's exclusive side) may swap it",
                )
                for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in SESSION_ATTRS
            )
        return findings
