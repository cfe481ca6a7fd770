"""RL002 — nondeterminism guard for the measurement paths.

The reproduction's results are contractually bitwise-identical: a plan
run through ``run-plan``, a served job or a figure generator must
produce the same numbers, on any machine.  That only holds while the
measurement packages (``repro/gpusim/``, ``repro/core/``,
``repro/profiling/``) stay free of ambient entropy.  The only sanctioned noise source is the
splitmix64 counter stream, which is seeded from the measurement key and
therefore reproducible.

This checker flags, inside the scoped packages only:

* ``random`` module usage (imports and ``random.*`` calls);
* wall-clock reads whose value could leak into results —
  ``time.time``/``time.time_ns`` and ``datetime.now/utcnow/today``;
* monotonic-clock reads — ``time.monotonic``/``time.perf_counter``
  (and their ``_ns`` variants);
* ``uuid.uuid4`` (entropy-backed identifiers);
* iteration order leaking out of sets: ``for x in {...}`` /
  ``for x in set(...)`` and ``list(set(...))`` / ``tuple(set(...))``
  without a ``sorted`` wrapper.

``repro/obs/`` is also in scope — observability must never feed timing
back into results — but it is the *one sanctioned home* for clock
reads: span durations and histogram timings have to read a clock
somewhere, and that somewhere is ``repro.obs``.  Clock findings are
therefore suppressed for files under ``repro/obs/`` while every other
RL002 rule still applies there.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..engine import Checker, Finding, ModuleSource, register_checker

#: Path scope: only files inside the measurement packages are checked.
_SCOPE_RE = re.compile(r"(^|/)repro/(gpusim|core|profiling|obs)/")

#: The one sanctioned home for clock reads (see the module docstring).
_OBS_RE = re.compile(r"(^|/)repro/obs/")

#: ``module.attr`` call targets that read ambient entropy or clocks.
_BANNED_CALLS = {
    ("time", "time"): "wall-clock read",
    ("time", "time_ns"): "wall-clock read",
    ("time", "monotonic"): "monotonic-clock read",
    ("time", "monotonic_ns"): "monotonic-clock read",
    ("time", "perf_counter"): "monotonic-clock read",
    ("time", "perf_counter_ns"): "monotonic-clock read",
    ("datetime", "now"): "wall-clock read",
    ("datetime", "utcnow"): "wall-clock read",
    ("datetime", "today"): "wall-clock read",
    ("date", "today"): "wall-clock read",
    ("uuid", "uuid4"): "entropy-backed identifier",
}


def in_scope(rel: str) -> bool:
    return _SCOPE_RE.search(rel) is not None


def clock_exempt(rel: str) -> bool:
    """True for ``repro/obs/`` files, where clock reads are sanctioned."""

    return _OBS_RE.search(rel) is not None


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for plain attribute chains, else ``None``."""

    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@register_checker
class NondeterminismChecker(Checker):
    code = "RL002"
    name = "nondeterminism"
    description = (
        "measurement packages (repro/gpusim, repro/core, repro/profiling, "
        "repro/obs) must not use random, clocks, or set iteration order; "
        "splitmix64 is the only sanctioned noise source and repro/obs the "
        "only sanctioned home for clock reads"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not in_scope(module.rel):
            return
        for node in ast.walk(module.tree):
            finding = self._check_node(module, node)
            if finding is not None:
                yield finding

    def _check_node(self, module: ModuleSource, node: ast.AST) -> Optional[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    return self.finding(
                        module, node,
                        "import of 'random' in a measurement path; use the "
                        "splitmix64 counter stream for sanctioned noise",
                    )
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            return self.finding(
                module, node,
                "import from 'random' in a measurement path; use the "
                "splitmix64 counter stream for sanctioned noise",
            )
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                parts = dotted.split(".")
                if parts[0] == "random":
                    return self.finding(
                        module, node,
                        f"call to '{dotted}' in a measurement path; use the "
                        "splitmix64 counter stream for sanctioned noise",
                    )
                if len(parts) >= 2:
                    reason = _BANNED_CALLS.get((parts[-2], parts[-1]))
                    if reason is not None and not (
                        reason.endswith("clock read") and clock_exempt(module.rel)
                    ):
                        return self.finding(
                            module, node,
                            f"call to '{dotted}' ({reason}) in a measurement "
                            "path; results must be reproducible",
                        )
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
            return self.finding(
                module, node,
                "iteration over a set in a measurement path has no stable "
                "order; wrap it in sorted(...)",
            )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"list", "tuple"}
            and node.args
            and _is_set_expr(node.args[0])
        ):
            return self.finding(
                module, node,
                f"'{node.func.id}(set(...))' in a measurement path has no "
                "stable order; wrap the set in sorted(...)",
            )
        return None
