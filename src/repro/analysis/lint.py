"""Determinism/purity linter for cached-stage code paths.

A standalone AST lint (stdlib :mod:`ast` only, run beside ruff in CI)
that walks Python sources and flags patterns which would silently break
the stage cache's soundness contract:

* **ND01 — nondeterminism near a StageKey**: a function that builds a
  :class:`~repro.runner.keys.StageKey` (calls ``StageKey.make``) also
  calls into ``time`` / ``random`` / ``uuid`` / ``secrets`` /
  ``os.urandom``, or feeds ``id(...)`` into the key itself.  Cache
  identities must be pure functions of stage parameters.
* **ND02 — unordered set feeding a key or payload**: a set literal,
  set comprehension, or ``set()`` / ``frozenset()`` call appears inside
  the argument list of ``StageKey.make`` or inside a ``to_jsonable``
  function without a wrapping ``sorted(...)``.  Key canonicalization
  sorts mappings, but an unsorted set reaching a serialized payload
  makes the persisted bytes run-dependent.
* **SK01 — stage parameter missing from its key**: a function that
  calls ``cache.get_or_compute`` must flow *every* parameter into key
  construction (``StageKey.make(...)``, a ``*_key(...)`` helper, or a
  ``.key()`` method); a parameter that never reaches the key means two
  different computations share a cache entry.
* **FM01 — frozen plan/route mutation**: ``object.__setattr__`` outside
  whitelisted constructor methods, or direct mutation of a
  ``plan.<attr>`` / ``routes.<attr>`` structure (item assignment,
  ``augmented`` assignment, or a mutating method call such as
  ``.append``) outside the ``BraidPlan`` / ``RouteTable`` classes
  themselves.  Plans are shared across threads and memoized by ``id``;
  mutating one corrupts every holder.

Findings are reported as :class:`~repro.analysis.diagnostics.Diagnostic`
objects whose ``pass_name`` is the rule id; a source line containing
``repro-lint: skip`` suppresses findings anchored on it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .diagnostics import Diagnostic, Severity

__all__ = ["lint_source", "lint_paths"]

SUPPRESS_MARKER = "repro-lint: skip"

_NONDET_MODULES = {"time", "random", "uuid", "secrets"}

_CONSTRUCTOR_METHODS = {
    "__init__", "__post_init__", "__new__", "__setstate__", "__deepcopy__",
}

# Classes allowed to touch their own frozen internals.
_FROZEN_OWNERS = {"BraidPlan", "RouteTable"}

# Attribute roots whose contents are treated as frozen shared state.
_FROZEN_ROOTS = {"plan", "routes"}

_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "update", "add", "discard", "setdefault", "popitem",
}

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _call_name(node: ast.Call) -> str:
    """Dotted name of a call target: ``StageKey.make``, ``sorted``, ..."""
    parts: list[str] = []
    target: ast.expr = node.func
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
        return ".".join(reversed(parts))
    return ""


def _frozen_root(node: ast.expr) -> Optional[str]:
    """``plan`` for ``plan.is_braid`` / ``self.plan.segments[i]``; else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    while isinstance(base, (ast.Attribute, ast.Subscript)):
        if isinstance(base, ast.Attribute) and base.attr in _FROZEN_ROOTS:
            return base.attr
        base = base.value
    if isinstance(base, ast.Name) and base.id in _FROZEN_ROOTS:
        return base.id
    return None


class _Lint:
    def __init__(self, source: str, artifact: str):
        self.artifact = artifact
        self.lines = source.splitlines()
        self.findings: list[Diagnostic] = []

    def _suppressed(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return SUPPRESS_MARKER in self.lines[line - 1]
        return False

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        if self._suppressed(node):
            return
        self.findings.append(Diagnostic(
            Severity.ERROR, rule, self.artifact,
            f"line {getattr(node, 'lineno', 0)}", message,
        ))

    # -- traversal ---------------------------------------------------------

    def run(self, tree: ast.Module) -> None:
        self._walk(tree.body, enclosing_class=None)

    def _walk(self, body: Sequence[ast.stmt], enclosing_class) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(stmt, enclosing_class)
                self._walk(stmt.body, enclosing_class)
            elif isinstance(stmt, ast.ClassDef):
                self._walk(stmt.body, enclosing_class=stmt.name)
            elif hasattr(stmt, "body"):
                self._walk(getattr(stmt, "body"), enclosing_class)
                for clause in getattr(stmt, "orelse", []) or []:
                    self._walk([clause], enclosing_class)
                for clause in getattr(stmt, "finalbody", []) or []:
                    self._walk([clause], enclosing_class)

    # -- per-function analysis ---------------------------------------------

    def _own_nodes(self, func: _FunctionNode) -> Iterable[ast.AST]:
        """Walk a function's body excluding nested function/class defs."""
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _check_function(self, func: _FunctionNode, enclosing_class) -> None:
        nodes = list(self._own_nodes(func))
        calls = [n for n in nodes if isinstance(n, ast.Call)]
        key_calls = [c for c in calls if _call_name(c) == "StageKey.make"]
        self._check_frozen_mutation(func, nodes, calls, enclosing_class)
        if key_calls:
            self._check_nondeterminism(calls, key_calls)
        self._check_set_hygiene(func, nodes, key_calls)
        if any(_call_name(c).endswith("get_or_compute") for c in calls):
            self._check_params_reach_key(func, nodes, calls)

    # ND01
    def _check_nondeterminism(
        self,
        calls: Sequence[ast.Call],
        key_calls: Sequence[ast.Call],
    ) -> None:
        for call in calls:
            name = _call_name(call)
            root = name.split(".", 1)[0]
            if root in _NONDET_MODULES or name == "os.urandom":
                self.report(
                    "ND01", call,
                    f"call to {name}() in a function that builds a "
                    "StageKey; cache identities must be deterministic",
                )
        for key_call in key_calls:
            for node in ast.walk(key_call):
                if (
                    isinstance(node, ast.Call)
                    and _call_name(node) == "id"
                ):
                    self.report(
                        "ND01", node,
                        "id() feeds a StageKey; object identities vary "
                        "between runs",
                    )

    # ND02
    def _check_set_hygiene(
        self,
        func: _FunctionNode,
        nodes: Sequence[ast.AST],
        key_calls: Sequence[ast.Call],
    ) -> None:
        def sets_not_sorted(root: ast.AST) -> Iterable[ast.AST]:
            # Yield unordered-set constructions not wrapped in sorted().
            stack: list[ast.AST] = [root]
            while stack:
                node = stack.pop()
                if (
                    isinstance(node, ast.Call)
                    and _call_name(node) in {"sorted", "len", "min", "max", "sum"}
                ):
                    continue
                if isinstance(node, (ast.Set, ast.SetComp)) or (
                    isinstance(node, ast.Call)
                    and _call_name(node) in {"set", "frozenset"}
                ):
                    yield node
                    continue
                stack.extend(ast.iter_child_nodes(node))

        for key_call in key_calls:
            for arg in [*key_call.args, *[k.value for k in key_call.keywords]]:
                for bad in sets_not_sorted(arg):
                    self.report(
                        "ND02", bad,
                        "unordered set feeds a StageKey; wrap it in "
                        "sorted(...) to make the identity stable",
                    )
        if func.name == "to_jsonable":
            for node in nodes:
                if isinstance(node, (ast.Return,)) and node.value is not None:
                    for bad in sets_not_sorted(node.value):
                        self.report(
                            "ND02", bad,
                            "unordered set in a serialized payload; "
                            "wrap it in sorted(...) so persisted bytes "
                            "are run-independent",
                        )

    # SK01
    def _check_params_reach_key(
        self,
        func: _FunctionNode,
        nodes: Sequence[ast.AST],
        calls: Sequence[ast.Call],
    ) -> None:
        args = func.args
        params = [
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        ]
        params = [
            p for p in params if p not in {"self", "cls", "cache", "key"}
        ]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        if not params:
            return

        # Names reaching key construction: arguments of StageKey.make,
        # of *_key(...) helpers, of .key() methods, and of
        # get_or_compute's key argument.
        key_exprs: list[ast.expr] = []
        for call in calls:
            name = _call_name(call)
            tail = name.rsplit(".", 1)[-1]
            if (
                name == "StageKey.make"
                or tail.endswith("_key")
                or tail == "key"
            ):
                key_exprs.extend(call.args)
                key_exprs.extend(k.value for k in call.keywords)
                if isinstance(call.func, ast.Attribute):
                    key_exprs.append(call.func.value)
            elif tail == "get_or_compute" and call.args:
                key_exprs.append(call.args[0])

        tainted: set[str] = set()
        for expr in key_exprs:
            for node in ast.walk(expr):
                if isinstance(node, ast.Name):
                    tainted.add(node.id)

        # One-level fixpoint over simple assignments: if `x` is tainted
        # and `x = f(a, b)` / `x, y = f(a, b)`, then a and b are too
        # (covers `name, size = _resolve(app, size)`).
        assignments: list[tuple[set[str], set[str]]] = []
        for node in nodes:
            if isinstance(node, ast.Assign):
                targets: set[str] = set()
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            targets.add(sub.id)
                sources = {
                    sub.id
                    for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Name)
                }
                assignments.append((targets, sources))
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                sources = {
                    sub.id
                    for sub in ast.walk(node.value)
                    if isinstance(sub, ast.Name)
                }
                assignments.append(({node.target.id}, sources))
        changed = True
        while changed:
            changed = False
            for targets, sources in assignments:
                if targets & tainted and not sources <= tainted:
                    tainted |= sources
                    changed = True

        for param in params:
            if param not in tainted:
                self.report(
                    "SK01", func,
                    f"parameter {param!r} of {func.name}() never flows "
                    "into the StageKey; two computations differing only "
                    "in it would share a cache entry",
                )

    # FM01
    def _check_frozen_mutation(
        self,
        func: _FunctionNode,
        nodes: Sequence[ast.AST],
        calls: Sequence[ast.Call],
        enclosing_class,
    ) -> None:
        for call in calls:
            if (
                _call_name(call) == "object.__setattr__"
                and func.name not in _CONSTRUCTOR_METHODS
            ):
                self.report(
                    "FM01", call,
                    f"object.__setattr__ outside a constructor "
                    f"(in {func.name}()); frozen instances must only "
                    "be written during construction",
                )
        if enclosing_class in _FROZEN_OWNERS:
            return
        for node in nodes:
            target: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    # Item/attribute stores only: `self.plan = plan`
                    # is a rebinding, not a mutation.
                    if isinstance(t, ast.Subscript) or (
                        isinstance(t, ast.Attribute)
                        and _frozen_root(t.value) is not None
                    ):
                        target = t
                        break
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, (ast.Subscript, ast.Attribute)
            ):
                target = node.target
            if target is not None:
                root = _frozen_root(target)
                if root is not None:
                    self.report(
                        "FM01", node,
                        f"mutation of shared {root} state "
                        f"({ast.unparse(target)}); plans and route "
                        "tables are immutable once built",
                    )
        for call in calls:
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in _MUTATING_METHODS
            ):
                root = _frozen_root(call.func.value)
                if root is not None:
                    self.report(
                        "FM01", call,
                        f"mutating call .{call.func.attr}() on shared "
                        f"{root} state ({ast.unparse(call.func.value)})",
                    )


def lint_source(
    source: str, artifact: str = "<string>"
) -> list[Diagnostic]:
    """Lint one Python source string; returns rule findings."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Diagnostic(
            Severity.ERROR, "parse", artifact,
            f"line {error.lineno or 0}", f"syntax error: {error.msg}",
        )]
    lint = _Lint(source, artifact)
    lint.run(tree)
    lint.findings.sort(key=lambda d: (d.artifact, d.location, d.pass_name))
    return lint.findings


def lint_paths(paths: Iterable[Union[str, Path]]) -> list[Diagnostic]:
    """Lint ``*.py`` under each path (file or directory tree)."""
    findings: list[Diagnostic] = []
    for root in paths:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            findings.extend(
                lint_source(
                    file.read_text(encoding="utf-8"), artifact=str(file)
                )
            )
    return findings
