"""RL001 — lock discipline for classes that own a ``threading`` lock.

The thread-safe classes of this code base (``Session``,
``ProfileRunner``, ``ProfileStore``, ``JobStore``, ``JobQueue``) all
follow one convention: internal mutable state lives in ``self._*``
attributes and every public entry point touches it inside
``with self._lock:`` (or the condition variable built on it).
This checker enforces the convention structurally: in any class whose
``__init__`` (or dataclass field) creates a ``threading.Lock`` /
``RLock`` / ``Condition``, a ``self._*`` attribute read or write inside
a *public* method that is not lexically under a ``with`` on one of the
class's lock attributes is a finding.

Private methods (``_name``) and dunders are exempt — the convention is
that they document their own locking contract and are only reached from
public methods that already hold the lock — as are ``__init__``-time
writes (the object is not published yet), calls to the class's own
methods, and class-level constants.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..engine import Checker, Finding, ModuleSource, register_checker

#: ``threading`` factories whose product guards state.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}


def _call_name(node: ast.AST) -> Optional[str]:
    """The trailing name of a call target (``threading.RLock`` -> ``RLock``)."""

    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_lock_factory_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _call_name(node) in _LOCK_FACTORIES


def _is_field_with_lock_factory(node: ast.AST) -> bool:
    """``field(default_factory=threading.RLock)`` in a dataclass body."""

    if not (isinstance(node, ast.Call) and _call_name(node.func) == "field"):
        return False
    for keyword in node.keywords:
        if keyword.arg == "default_factory" and _call_name(keyword.value) in _LOCK_FACTORIES:
            return True
    return False


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassFacts:
    """What RL001 needs to know about one class definition."""

    def __init__(self, class_def: ast.ClassDef) -> None:
        self.name = class_def.name
        self.lock_attrs: Set[str] = set()
        self.method_names: Set[str] = set()
        self.class_constants: Set[str] = set()
        for statement in class_def.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.method_names.add(statement.name)
                for node in ast.walk(statement):
                    if isinstance(node, ast.Assign) and _is_lock_factory_call(node.value):
                        for target in node.targets:
                            attr = _self_attr(target)
                            if attr is not None:
                                self.lock_attrs.add(attr)
            elif isinstance(statement, ast.AnnAssign):
                # Dataclass idiom: a field whose default_factory builds
                # the lock.  Other annotated fields are instance state.
                target = statement.target
                if isinstance(target, ast.Name) and statement.value is not None:
                    if _is_field_with_lock_factory(statement.value) or _is_lock_factory_call(
                        statement.value
                    ):
                        self.lock_attrs.add(target.id)
            elif isinstance(statement, ast.Assign):
                # Plain class-level assignments are shared constants;
                # reading them through ``self`` needs no lock.
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        self.class_constants.add(target.id)

    def exempt(self, attr: str) -> bool:
        return (
            attr in self.lock_attrs
            or attr in self.method_names
            or attr in self.class_constants
        )


@register_checker
class LockDisciplineChecker(Checker):
    code = "RL001"
    name = "lock-discipline"
    description = (
        "in classes that create a threading.Lock/RLock/Condition, public "
        "methods must touch self._* state only inside 'with self._lock:'"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleSource, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        facts = _ClassFacts(class_def)
        if not facts.lock_attrs:
            return
        for statement in class_def.body:
            if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if statement.name.startswith("_"):
                continue  # private/dunder: documents its own contract
            yield from self._check_method(module, facts, statement)

    def _check_method(
        self,
        module: ModuleSource,
        facts: _ClassFacts,
        method: ast.FunctionDef,
    ) -> Iterator[Finding]:
        findings: List[Finding] = []

        def is_guard(with_node: ast.With) -> bool:
            for item in with_node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in facts.lock_attrs:
                    return True
            return False

        def visit(node: ast.AST, locked: bool) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)) and is_guard(node):
                for item in node.items:
                    visit(item, locked)
                for child in node.body:
                    visit(child, True)
                return
            attr = _self_attr(node)
            if attr is not None and attr.startswith("_") and not locked:
                if not facts.exempt(attr):
                    access = "writes" if isinstance(node.ctx, (ast.Store, ast.Del)) else "reads"
                    findings.append(self.finding(
                        module,
                        node,
                        f"{facts.name}.{method.name} {access} self.{attr} outside "
                        f"'with self.{sorted(facts.lock_attrs)[0]}:' "
                        f"(guarded attributes of a lock-owning class)",
                    ))
            for child in ast.iter_child_nodes(node):
                visit(child, locked)

        for child in method.body:
            visit(child, False)
        yield from findings
