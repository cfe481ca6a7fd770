"""The AST lint engine: checker framework, findings and waivers.

A :class:`Checker` is a small AST analysis with a stable code
(``RL001``...), registered in :data:`CHECKERS` — the same generic
:class:`~repro.api.registry.Registry` that backs devices, libraries and
experiments, so ``--select``/``--ignore`` get alias/case handling and
uniform unknown-name errors for free.

Checkers see whole files as :class:`ModuleSource` objects (path, text,
parsed tree, waiver table) and yield :class:`Finding` records.

Waivers
-------
A finding is suppressed by a ``repro-lint`` comment on the finding's
line or the line directly above it::

    self._queue.put(None)  # repro-lint: ignore[RL001] -- Queue is thread-safe

    # repro-lint: ignore[RL001] -- workers list is immutable after __init__
    for thread in self._workers:

``ignore[CODE1,CODE2]`` waives several codes at once, and a module-wide
``# repro-lint: ignore-file[CODE]`` (conventionally in the header)
waives a code for the whole file.  Waivers are read from real comment
tokens, not raw text, so a string literal that merely *contains* the
marker (this docstring, a test fixture) never waives anything.  The
``-- reason`` tail is free text; repo convention is to always give one.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from ...api.registry import Registry, UnknownPluginError

#: Reserved code for files the engine itself cannot parse; always
#: reported, never selectable or waivable per line (a broken file has no
#: trustworthy lines).
PARSE_ERROR_CODE = "RL000"

_WAIVER_RE = re.compile(
    r"repro-lint:\s*(?P<scope>ignore-file|ignore)\[(?P<codes>[A-Za-z0-9_,\s]+)\]"
)


class LintUsageError(ValueError):
    """Raised for unusable lint invocations (bad paths, bad codes)."""


class UnknownCheckerError(UnknownPluginError):
    """Raised when a checker code is not registered."""


@dataclass(frozen=True)
class Finding:
    """One reported invariant violation, anchored to a file and line."""

    path: str
    line: int
    code: str
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "message": self.message,
        }

    def format(self) -> str:
        """The one-line ``path:line: CODE message`` report shape."""

        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclass
class ModuleSource:
    """One parsed file as the checkers see it."""

    path: Path
    #: POSIX-style path used in reports and scope matching (relative to
    #: the invocation's working directory when possible).
    rel: str
    text: str
    tree: ast.Module
    #: ``line -> waived codes`` from line-scoped waiver comments.
    line_waivers: Dict[int, Set[str]] = field(default_factory=dict)
    #: Codes waived for the entire file.
    file_waivers: Set[str] = field(default_factory=set)
    #: Lines that hold nothing but a comment — a waiver block above a
    #: statement reaches through these.
    comment_lines: Set[int] = field(default_factory=set)

    @classmethod
    def parse(cls, path: Path, rel: str) -> "ModuleSource":
        """Parse a file; raises :class:`SyntaxError` on broken sources."""

        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        module = cls(path=path, rel=rel, text=text, tree=tree)
        module._collect_waivers()
        return module

    def _collect_waivers(self) -> None:
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return  # ast.parse succeeded, so this is pathological; no waivers
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            if not token.line[: token.start[1]].strip():
                self.comment_lines.add(token.start[0])
            match = _WAIVER_RE.search(token.string)
            if match is None:
                continue
            codes = {
                code.strip().upper()
                for code in match.group("codes").split(",")
                if code.strip()
            }
            if match.group("scope") == "ignore-file":
                self.file_waivers |= codes
            else:
                self.line_waivers.setdefault(token.start[0], set()).update(codes)

    def waives(self, finding: Finding) -> bool:
        """Whether a waiver comment suppresses the given finding.

        A waiver covers its own line, and a comment-only waiver block
        covers the first code line below it (the marker may sit anywhere
        in the block).
        """

        if finding.code in self.file_waivers:
            return True
        if finding.code in self.line_waivers.get(finding.line, set()):
            return True
        line = finding.line - 1
        while line in self.comment_lines:
            if finding.code in self.line_waivers.get(line, set()):
                return True
            line -= 1
        return False


class Checker:
    """Base class for one lint analysis.

    Subclasses set :attr:`code` (the stable ``RLnnn`` identifier),
    :attr:`name` (a short slug for listings) and :attr:`description`,
    then implement :meth:`check`.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield findings for one module."""

        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at an AST node of ``module``."""

        return Finding(
            path=module.rel,
            line=getattr(node, "lineno", 1),
            code=self.code,
            message=message,
        )


#: The checker registry.  Registered under the (case-normalised) RL
#: code; display names come from each class's ``code``/``name`` attrs.
CHECKERS: Registry[Type[Checker]] = Registry(
    "lint checker", error_cls=UnknownCheckerError
)


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator registering a checker under its code and name."""

    CHECKERS.register(cls.code, cls, aliases=(cls.name,) if cls.name else ())
    return cls


def collect_files(paths: Sequence[object]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""

    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            if path.suffix != ".py":
                raise LintUsageError(f"not a Python file: {path}")
            files.append(path)
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    seen: Set[Path] = set()
    unique: List[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def resolve_codes(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[str]:
    """The registry keys to run, after ``--select``/``--ignore`` filtering.

    Unknown codes raise :class:`UnknownCheckerError` (the CLI maps that
    to exit status 2).
    """

    selected = (
        [CHECKERS.canonical(code) for code in select]
        if select is not None
        else CHECKERS.available()
    )
    ignored = {CHECKERS.canonical(code) for code in ignore} if ignore else set()
    return [key for key in selected if key not in ignored]


def _rel_label(path: Path) -> str:
    """A stable, readable path label: relative to CWD when possible."""

    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Sequence[object],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the selected checkers over ``paths`` and return the findings.

    Findings already suppressed by waiver comments are filtered out; the
    result is sorted by (path, line, code).  Unparsable files surface as
    :data:`PARSE_ERROR_CODE` findings rather than aborting the run.
    """

    files = collect_files(paths)
    modules: List[ModuleSource] = []
    findings: List[Finding] = []
    for path in files:
        rel = _rel_label(path)
        try:
            modules.append(ModuleSource.parse(path, rel))
        except SyntaxError as error:
            findings.append(Finding(
                path=rel,
                line=error.lineno or 1,
                code=PARSE_ERROR_CODE,
                message=f"cannot parse file: {error.msg}",
            ))
    checkers = [CHECKERS.get(key)() for key in resolve_codes(select, ignore)]
    for module in modules:
        for checker in checkers:
            findings.extend(
                finding
                for finding in checker.check(module)
                if not module.waives(finding)
            )
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.code))
    return findings


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
