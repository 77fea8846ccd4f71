"""RPR004 — deterministic iteration on the build/partition/parallel path.

The sharded == serial build contract (PRs 3/4) is *pair-for-pair
identity*, asserted via ``index_fingerprint`` in
``tests/test_parallel_build.py``.  That identity survives only because
every order that escapes into a stored artifact is made explicit:
columns are sorted, classes are renumbered canonically, shards merge in
task order.  Iterating a
``set`` (hash order — salted per process for strings) and letting that
order *escape* into a list, a generated sequence, or a first-seen id
assignment silently breaks the contract.

The rule is a source × sink analysis, deliberately narrow to stay
silent on order-insensitive consumers (``set.add``, ``frozenset(...)``,
aggregations):

**Sources** — expressions statically known to iterate in hash order:
set/frozenset literals, comprehensions and constructor calls; names
annotated (or assigned) as sets; ``.items()`` / ``.values()`` of a
``dict[..., set[...]]``; calls to project functions whose annotated
return type is a set or a set-valued dict (resolved project-wide, so
``sequence_targets_from_source(...)`` types across modules).

**Sinks** — places where iteration order escapes:

* a ``for`` loop over a source whose body appends/extends, yields, or
  assigns first-seen ids via ``d.setdefault(key, len(d))``;
* a list comprehension over a source;
* ``list(source)`` or ``x.extend(source)`` (including a generator
  expression over a source).

The fix is always the same: wrap the iterable in ``sorted(...)`` (with
an explicit key for vertex pairs, the project uses ``key=repr``), which
also clears the tracked type.
"""

from __future__ import annotations

import ast

from repro.analysis.context import (
    KIND_DICT_OF_SETS,
    KIND_SET,
    ParsedModule,
    ProjectContext,
    classify_annotation,
)
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule

#: Set-producing builtins.
SET_BUILTINS = frozenset({"set", "frozenset"})

#: Builtins that return order-insensitive or explicitly ordered values.
ORDER_CLEARING_CALLS = frozenset({"sorted", "len", "sum", "min", "max", "any", "all"})

#: Set operators that propagate set-ness.
SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Simple statements whose expressions are scanned for sink patterns.
SIMPLE_STMTS = (
    ast.Expr,
    ast.Return,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Raise,
    ast.Assert,
    ast.Delete,
)


class DeterminismRule(Rule):
    """No unsorted set iteration may escape into ordered artifacts."""

    rule_id = "RPR004"
    title = "deterministic iteration (build/partition/parallel modules)"
    scope = (
        "repro/core/cpqx.py",
        "repro/core/interest.py",
        "repro/core/partition.py",
        "repro/core/parallel.py",
        "repro/core/paths.py",
        "repro/core/maintenance.py",
        "repro/baselines/path_index.py",
    )

    def check(self, module: ParsedModule, project: ProjectContext) -> list[Finding]:
        analyzer = _ModuleAnalyzer(self, module, project)
        analyzer.run()
        return analyzer.findings


class _ModuleAnalyzer:
    """One module's source × sink walk, scope-aware."""

    def __init__(
        self, rule: DeterminismRule, module: ParsedModule, project: ProjectContext
    ) -> None:
        self.rule = rule
        self.module = module
        self.project = project
        self.findings: list[Finding] = []
        self._reported: set[tuple[int, int]] = set()
        #: Innermost-last stack of name → kind bindings.
        self._scopes: list[dict[str, str | None]] = []

    def run(self) -> None:
        self._scopes.append({})
        self._walk_stmts(self.module.tree.body)
        self._scopes.pop()

    # ------------------------------------------------------------------
    # scope bookkeeping
    # ------------------------------------------------------------------
    def _bind(self, name: str, kind: str | None) -> None:
        self._scopes[-1][name] = kind

    def _kind_of_name(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    # ------------------------------------------------------------------
    # expression typing
    # ------------------------------------------------------------------
    def _expr_kind(self, node: ast.expr | None) -> str | None:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self._kind_of_name(node.id)
        if isinstance(node, ast.Set | ast.SetComp):
            return KIND_SET
        if isinstance(node, ast.Call):
            return self._call_kind(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, SET_BINOPS):
            left = self._expr_kind(node.left)
            right = self._expr_kind(node.right)
            if KIND_SET in (left, right):
                return KIND_SET
        return None

    def _call_kind(self, node: ast.Call) -> str | None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return None
        if name in SET_BUILTINS:
            return KIND_SET
        if name in ORDER_CLEARING_CALLS:
            return None
        return self.project.return_kinds.get(name)

    def _iter_info(self, node: ast.expr) -> str | None:
        """How a for-loop iterable relates to set order.

        Returns "set" (the iterable itself is hash-ordered), "items" /
        "values" (a set-valued dict view whose *values* are
        hash-ordered), or None.
        """
        if self._expr_kind(node) == KIND_SET:
            return "set"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("items", "values")
            and self._expr_kind(node.func.value) == KIND_DICT_OF_SETS
        ):
            return node.func.attr
        return None

    def _bind_for_target(self, target: ast.expr, info: str | None) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, KIND_SET if info == "values" else None)
        elif isinstance(target, ast.Tuple):
            for position, element in enumerate(target.elts):
                if isinstance(element, ast.Name):
                    value_slot = info == "items" and position == len(target.elts) - 1
                    self._bind(element.id, KIND_SET if value_slot else None)

    # ------------------------------------------------------------------
    # statement walk
    # ------------------------------------------------------------------
    def _walk_stmts(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.FunctionDef | ast.AsyncFunctionDef):
                self._walk_function(stmt)
            elif isinstance(stmt, ast.ClassDef):
                self._scopes.append({})
                self._walk_stmts(stmt.body)
                self._scopes.pop()
            elif isinstance(stmt, ast.For | ast.AsyncFor):
                self._walk_for(stmt)
            elif isinstance(stmt, ast.While):
                self._check_expr_tree(stmt.test)
                self._walk_stmts(stmt.body)
                self._walk_stmts(stmt.orelse)
            elif isinstance(stmt, ast.If):
                self._check_expr_tree(stmt.test)
                self._walk_stmts(stmt.body)
                self._walk_stmts(stmt.orelse)
            elif isinstance(stmt, ast.With | ast.AsyncWith):
                for item in stmt.items:
                    self._check_expr_tree(item.context_expr)
                self._walk_stmts(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._walk_stmts(stmt.body)
                for handler in stmt.handlers:
                    self._walk_stmts(handler.body)
                self._walk_stmts(stmt.orelse)
                self._walk_stmts(stmt.finalbody)
            elif isinstance(stmt, SIMPLE_STMTS):
                self._handle_simple(stmt)

    def _walk_function(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._scopes.append({})
        args = func.args
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ):
            self._bind(arg.arg, classify_annotation(arg.annotation))
        self._walk_stmts(func.body)
        self._scopes.pop()

    def _handle_simple(self, stmt: ast.stmt) -> None:
        self._check_expr_tree(stmt)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                self._bind(target.id, self._expr_kind(stmt.value))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            self._bind(stmt.target.id, classify_annotation(stmt.annotation))

    def _walk_for(self, stmt: ast.For | ast.AsyncFor) -> None:
        self._check_expr_tree(stmt.iter)
        info = self._iter_info(stmt.iter)
        if info == "set":
            sink = self._order_sink_in(stmt.body)
            if sink is not None:
                self._report(
                    stmt,
                    "iterates a set in hash order and the order escapes "
                    f"({self._sink_label(sink)}); wrap the iterable in sorted(...) "
                    "to make the stored order explicit",
                )
        self._bind_for_target(stmt.target, info)
        self._walk_stmts(stmt.body)
        self._walk_stmts(stmt.orelse)

    # ------------------------------------------------------------------
    # sink detection
    # ------------------------------------------------------------------
    @staticmethod
    def _sink_label(sink: ast.AST) -> str:
        if isinstance(sink, ast.Yield | ast.YieldFrom):
            return "yields in iteration order"
        if isinstance(sink, ast.Call) and isinstance(sink.func, ast.Attribute):
            if sink.func.attr == "setdefault":
                return "assigns first-seen ids via setdefault(..., len(...))"
            return f"builds an ordered sequence via .{sink.func.attr}(...)"
        return "escapes iteration order"

    def _order_sink_in(self, body: list[ast.stmt]) -> ast.AST | None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Yield | ast.YieldFrom):
                    return node
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in ("append", "extend"):
                        return node
                    if (
                        node.func.attr == "setdefault"
                        and len(node.args) == 2
                        and isinstance(node.args[1], ast.Call)
                        and isinstance(node.args[1].func, ast.Name)
                        and node.args[1].func.id == "len"
                    ):
                        return node
        return None

    # ------------------------------------------------------------------
    # expression-level sinks (list comps, list(), .extend())
    # ------------------------------------------------------------------
    def _check_expr_tree(self, root: ast.AST) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.ListComp):
                self._check_comprehension(node)
            elif isinstance(node, ast.Call):
                self._check_consumer_call(node)

    def _check_comprehension(self, comp: ast.ListComp | ast.GeneratorExp) -> None:
        self._scopes.append({})
        for generator in comp.generators:
            info = self._iter_info(generator.iter)
            if info == "set":
                self._report(
                    comp,
                    "builds a list from a set iterated in hash order; wrap the "
                    "iterable in sorted(...) to make the stored order explicit",
                )
            self._bind_for_target(generator.target, info)
        self._scopes.pop()

    def _check_consumer_call(self, node: ast.Call) -> None:
        func = node.func
        is_list = isinstance(func, ast.Name) and func.id == "list"
        is_extend = isinstance(func, ast.Attribute) and func.attr == "extend"
        if not (is_list or is_extend) or not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.GeneratorExp):
            self._check_comprehension(arg)
        elif self._expr_kind(arg) == KIND_SET:
            self._report(
                node,
                "materializes a set into an ordered sequence in hash order; "
                "wrap it in sorted(...) to make the stored order explicit",
            )

    def _report(self, node: ast.AST, message: str) -> None:
        position = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0))
        if position in self._reported:
            return
        self._reported.add(position)
        self.findings.append(self.rule.finding(self.module, node, message))
