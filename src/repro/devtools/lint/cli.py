"""The ``repro-experiments lint`` verb.

Exit status contract (mirroring the experiment verbs): ``0`` for a
clean tree, ``1`` when findings are reported, ``2`` for unusable
invocations (unknown checker codes, missing paths; the CLI parser
refuses unknown formats).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import CHECKERS, LintUsageError, UnknownCheckerError, run_lint


def print_checks() -> None:
    """List every registered checker (same style as the ``targets`` verb)."""

    for key in CHECKERS.available():
        checker = CHECKERS.get(key)
        print(f"{checker.code:<8} {checker.name:<22} {checker.description}")


def _split_codes(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    """Flatten repeatable, comma-separated ``--select``/``--ignore`` values."""

    if not values:
        return None
    codes = [
        code.strip()
        for value in values
        for code in value.split(",")
        if code.strip()
    ]
    return codes or None


def _default_paths() -> List[str]:
    """When no paths are given, lint ``src`` and ``tests`` if present."""

    return [name for name in ("src", "tests") if Path(name).is_dir()]


def lint_command(args) -> int:
    """Run the linter with the parsed ``lint`` flags (see the CLI's parser)."""

    if args.list_checks:
        print_checks()
        return 0

    paths = args.paths or _default_paths()
    if not paths:
        print(
            "lint needs at least one file or directory "
            "(no src/ or tests/ in the working directory)",
            file=sys.stderr,
        )
        return 2

    try:
        findings = run_lint(
            paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except UnknownCheckerError as error:
        print(str(error.args[0] if error.args else error), file=sys.stderr)
        return 2
    except LintUsageError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(
            {
                "paths": [str(path) for path in paths],
                "finding_count": len(findings),
                "findings": [finding.as_dict() for finding in findings],
            },
            indent=2,
        ))
    else:
        for finding in findings:
            print(finding.format())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"lint: {len(findings)} {noun} in {len(paths)} path(s)")
    return 1 if findings else 0
