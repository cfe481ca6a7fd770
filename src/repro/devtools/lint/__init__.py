"""AST-based invariant checkers for the reproduction code base.

Importing this package registers the built-in checkers (RL001, RL002,
RL004, RL005) with :data:`CHECKERS`; the public entry point is
:func:`run_lint`.
"""

from __future__ import annotations

from .engine import (
    CHECKERS,
    PARSE_ERROR_CODE,
    Checker,
    Finding,
    LintUsageError,
    ModuleSource,
    UnknownCheckerError,
    collect_files,
    register_checker,
    resolve_codes,
    run_lint,
)

# Importing the checks package registers every built-in checker.
from . import checks as _checks  # noqa: F401  (import for side effect)

__all__ = [
    "CHECKERS",
    "PARSE_ERROR_CODE",
    "Checker",
    "Finding",
    "LintUsageError",
    "ModuleSource",
    "UnknownCheckerError",
    "collect_files",
    "register_checker",
    "resolve_codes",
    "run_lint",
]
