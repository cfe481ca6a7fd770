"""Tests for :mod:`repro.devtools.lint` — the AST invariant checkers.

Each checker gets three fixture snippets: one that fires, one that is
clean, and one whose finding is suppressed by a waiver comment.  The
fixtures are written to paths whose shape matches each checker's scope
rules (e.g. RL002 only looks inside ``repro/gpusim|core|profiling``).
The suite closes with the self-check the CI gate relies on: the shipped
``src`` + ``tests`` trees lint clean.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    CHECKERS,
    LintUsageError,
    PARSE_ERROR_CODE,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_module(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes(findings) -> list:
    return [finding.code for finding in findings]


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_all_four_checkers_registered(self):
        registered = {CHECKERS.get(key).code for key in CHECKERS.available()}
        assert {"RL001", "RL002", "RL004", "RL005"} <= registered

    def test_select_filters_to_one_checker(self, tmp_path):
        path = write_module(tmp_path, "repro/gpusim/noise.py", """
            import random
        """)
        findings = run_lint([path], select=["RL001"])
        assert findings == []
        findings = run_lint([path], select=["rl002"])  # case-insensitive
        assert codes(findings) == ["RL002"]

    def test_ignore_drops_a_checker(self, tmp_path):
        path = write_module(tmp_path, "repro/gpusim/noise.py", """
            import random
        """)
        assert run_lint([path], ignore=["RL002"]) == []

    def test_checker_name_alias_resolves(self, tmp_path):
        path = write_module(tmp_path, "repro/gpusim/noise.py", """
            import random
        """)
        assert codes(run_lint([path], select=["nondeterminism"])) == ["RL002"]

    def test_unknown_path_raises_usage_error(self, tmp_path):
        with pytest.raises(LintUsageError):
            run_lint([tmp_path / "does-not-exist"])

    def test_non_python_file_raises_usage_error(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("hello", encoding="utf-8")
        with pytest.raises(LintUsageError):
            run_lint([path])

    def test_syntax_error_reports_parse_finding(self, tmp_path):
        path = write_module(tmp_path, "broken.py", """
            def oops(:
        """)
        findings = run_lint([path])
        assert codes(findings) == [PARSE_ERROR_CODE]

    def test_waiver_in_string_literal_does_not_waive(self, tmp_path):
        # The marker inside a string must not suppress the finding on
        # the next line — only real comment tokens waive.
        path = write_module(tmp_path, "repro/gpusim/noise.py", """
            note = "repro-lint: ignore[RL002]"
            import random
        """)
        assert codes(run_lint([path])) == ["RL002"]

    def test_ignore_file_waives_whole_module(self, tmp_path):
        path = write_module(tmp_path, "repro/gpusim/noise.py", """
            # repro-lint: ignore-file[RL002] -- fixture exercising legacy noise
            import random

            value = random.random()
        """)
        assert run_lint([path]) == []

    def test_findings_sorted_and_serializable(self, tmp_path):
        path = write_module(tmp_path, "repro/gpusim/noise.py", """
            import random
            import time

            def jitter():
                return time.time()
        """)
        findings = run_lint([path])
        assert len(findings) == 2
        assert [finding.line for finding in findings] == sorted(
            finding.line for finding in findings
        )
        payload = findings[0].as_dict()
        assert set(payload) == {"path", "line", "code", "message"}
        assert findings[0].format().count(":") >= 2


# ----------------------------------------------------------------------
# RL001 lock discipline
# ----------------------------------------------------------------------
_RL001_FAILING = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            self._count += 1
"""

_RL001_CLEAN = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self._count = 0

        def bump(self):
            with self._lock:
                self._count += 1

        def _internal(self):
            return self._count
"""


class TestLockDiscipline:
    def test_unlocked_access_fires(self, tmp_path):
        path = write_module(tmp_path, "svc.py", _RL001_FAILING)
        findings = run_lint([path], select=["RL001"])
        assert codes(findings) == ["RL001"]
        assert "bump" in findings[0].message

    def test_locked_access_and_private_methods_clean(self, tmp_path):
        path = write_module(tmp_path, "svc.py", _RL001_CLEAN)
        assert run_lint([path], select=["RL001"]) == []

    def test_waiver_suppresses(self, tmp_path):
        path = write_module(tmp_path, "svc.py", """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def peek(self):
                    return self._count  # repro-lint: ignore[RL001] -- racy read is fine here
        """)
        assert run_lint([path], select=["RL001"]) == []

    def test_lockless_class_not_checked(self, tmp_path):
        path = write_module(tmp_path, "svc.py", """
            class Plain:
                def __init__(self):
                    self._state = 0

                def bump(self):
                    self._state += 1
        """)
        assert run_lint([path], select=["RL001"]) == []

    def test_dataclass_field_lock_detected(self, tmp_path):
        path = write_module(tmp_path, "svc.py", """
            import threading
            from dataclasses import dataclass, field

            @dataclass
            class Runner:
                _lock: threading.RLock = field(default_factory=threading.RLock)
                _cache: dict = field(default_factory=dict)

                def size(self):
                    return len(self._cache)
        """)
        findings = run_lint([path], select=["RL001"])
        assert codes(findings) == ["RL001"]
        assert "_cache" in findings[0].message


# ----------------------------------------------------------------------
# RL002 nondeterminism guard
# ----------------------------------------------------------------------
class TestNondeterminism:
    def test_random_and_clock_fire_in_scope(self, tmp_path):
        path = write_module(tmp_path, "repro/profiling/jitter.py", """
            import time

            def stamp():
                return time.time()
        """)
        findings = run_lint([path], select=["RL002"])
        assert codes(findings) == ["RL002"]
        assert "time.time" in findings[0].message

    def test_set_iteration_fires(self, tmp_path):
        path = write_module(tmp_path, "repro/core/order.py", """
            def tally(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
        """)
        findings = run_lint([path], select=["RL002"])
        assert codes(findings) == ["RL002"]

    def test_sorted_set_is_clean(self, tmp_path):
        path = write_module(tmp_path, "repro/core/order.py", """
            def tally(items):
                return [item for item in sorted(set(items))]
        """)
        assert run_lint([path], select=["RL002"]) == []

    def test_out_of_scope_module_not_checked(self, tmp_path):
        # Same source, but outside the measurement packages.
        path = write_module(tmp_path, "repro/service/clock.py", """
            import time

            def stamp():
                return time.time()
        """)
        assert run_lint([path], select=["RL002"]) == []

    def test_waiver_suppresses(self, tmp_path):
        path = write_module(tmp_path, "repro/gpusim/warmup.py", """
            import time

            def wall():
                # repro-lint: ignore[RL002] -- wall time only feeds a log line
                return time.time()
        """)
        assert run_lint([path], select=["RL002"]) == []

    def test_monotonic_clocks_fire_in_measurement_packages(self, tmp_path):
        path = write_module(tmp_path, "repro/gpusim/timer.py", """
            import time

            def tick():
                return time.monotonic(), time.perf_counter()
        """)
        findings = run_lint([path], select=["RL002"])
        assert codes(findings) == ["RL002", "RL002"]
        assert "monotonic-clock read" in findings[0].message

    def test_obs_package_is_exempt_from_clock_reads_only(self, tmp_path):
        # repro/obs is the one sanctioned home for clock reads...
        path = write_module(tmp_path, "repro/obs/spans.py", """
            import time

            def tick():
                return time.monotonic(), time.time()
        """)
        assert run_lint([path], select=["RL002"]) == []
        # ...but every other RL002 rule still applies there.
        path = write_module(tmp_path, "repro/obs/ids.py", """
            import uuid

            def fresh():
                return uuid.uuid4().hex
        """)
        findings = run_lint([path], select=["RL002"])
        assert codes(findings) == ["RL002"]
        assert "uuid" in findings[0].message

    def test_repo_obs_sources_pass_the_linter(self):
        # Self-check: the shipped observability package must satisfy the
        # very rule that names it as the sanctioned clock home.
        obs_dir = REPO_ROOT / "src" / "repro" / "obs"
        assert run_lint([obs_dir], select=["RL002"]) == []


# ----------------------------------------------------------------------
# RL004 session hygiene
# ----------------------------------------------------------------------
class TestSessionHygiene:
    def test_default_session_outside_whitelist_fires(self, tmp_path):
        path = write_module(tmp_path, "repro/service/handler.py", """
            from ..experiments.base import default_session

            def handle():
                return default_session()
        """)
        findings = run_lint([path], select=["RL004"])
        assert codes(findings) == ["RL004"]

    def test_whitelisted_module_clean(self, tmp_path):
        path = write_module(tmp_path, "repro/experiments/base.py", """
            _SESSION = None

            def default_session():
                return _SESSION

            def helper():
                return default_session()
        """)
        assert run_lint([path], select=["RL004"]) == []

    def test_generator_without_session_parameter_fires(self, tmp_path):
        path = write_module(tmp_path, "repro/experiments/figures.py", """
            def fig99(runs=3):
                return runs

            def _private_helper(runs=3):
                return runs
        """)
        findings = run_lint([path], select=["RL004"])
        assert codes(findings) == ["RL004"]
        assert "fig99" in findings[0].message

    def test_generator_with_session_parameter_clean(self, tmp_path):
        path = write_module(tmp_path, "repro/experiments/figures.py", """
            def fig99(runs=3, session=None):
                return runs
        """)
        assert run_lint([path], select=["RL004"]) == []

    def test_waiver_suppresses(self, tmp_path):
        path = write_module(tmp_path, "repro/service/handler.py", """
            from ..experiments.base import default_session

            def handle():
                return default_session()  # repro-lint: ignore[RL004] -- REPL convenience path
        """)
        assert run_lint([path], select=["RL004"]) == []


# ----------------------------------------------------------------------
# RL005 serialization parity
# ----------------------------------------------------------------------
class TestSerializationParity:
    def test_missing_field_fires(self, tmp_path):
        path = write_module(tmp_path, "payload.py", """
            class Record:
                def __init__(self, name, runs):
                    self.name = name
                    self.runs = runs

                def as_dict(self):
                    return {"name": self.name}

                @classmethod
                def from_dict(cls, payload):
                    return cls(payload["name"], payload["runs"])
        """)
        findings = run_lint([path], select=["RL005"])
        assert codes(findings) == ["RL005"]
        assert "runs" in findings[0].message

    def test_full_round_trip_clean(self, tmp_path):
        path = write_module(tmp_path, "payload.py", """
            class Record:
                def __init__(self, name, runs):
                    self.name = name
                    self.runs = runs

                def as_dict(self):
                    return {"name": self.name, "runs": self.runs}

                @classmethod
                def from_dict(cls, payload):
                    return cls(payload["name"], runs=payload.get("runs", 3))
        """)
        assert run_lint([path], select=["RL005"]) == []

    def test_asdict_and_star_kwargs_shortcuts_clean(self, tmp_path):
        path = write_module(tmp_path, "payload.py", """
            import dataclasses

            @dataclasses.dataclass
            class Spec:
                width: int
                height: int

                def as_dict(self):
                    return dataclasses.asdict(self)

                @classmethod
                def from_dict(cls, payload):
                    return cls(**payload)
        """)
        assert run_lint([path], select=["RL005"]) == []

    def test_waiver_suppresses(self, tmp_path):
        path = write_module(tmp_path, "payload.py", """
            class Record:
                def __init__(self, name, derived):
                    self.name = name
                    self.derived = derived

                # repro-lint: ignore[RL005] -- 'derived' is recomputed on load
                def as_dict(self):
                    return {"name": self.name}

                @classmethod
                def from_dict(cls, payload):
                    return cls(payload["name"], derived=None)
        """)
        assert run_lint([path], select=["RL005"]) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *argv],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        env={
            **__import__("os").environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
        },
    )


class TestCli:
    def test_list_checks_prints_registry(self):
        result = run_cli("lint", "--list-checks")
        assert result.returncode == 0
        for code in ("RL001", "RL002", "RL004", "RL005"):
            assert code in result.stdout

    def test_findings_exit_1_and_json_shape(self, tmp_path):
        write_module(tmp_path, "repro/gpusim/noise.py", """
            import random
        """)
        result = run_cli("lint", str(tmp_path), "--format", "json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["finding_count"] == 1
        assert payload["findings"][0]["code"] == "RL002"

    def test_clean_tree_exits_0(self, tmp_path):
        write_module(tmp_path, "clean.py", """
            def fine():
                return 1
        """)
        result = run_cli("lint", str(tmp_path))
        assert result.returncode == 0
        assert "0 findings" in result.stdout

    def test_unknown_code_exits_2(self, tmp_path):
        write_module(tmp_path, "clean.py", "x = 1\n")
        result = run_cli("lint", str(tmp_path), "--select", "RL999")
        assert result.returncode == 2
        assert "RL999".lower() in result.stderr.lower()

    def test_missing_path_exits_2(self, tmp_path):
        result = run_cli("lint", str(tmp_path / "nope"))
        assert result.returncode == 2


# ----------------------------------------------------------------------
# Self-check: the shipped tree is lint-clean (the CI gate's contract)
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_src_tree_is_lint_clean(self):
        findings = run_lint([REPO_ROOT / "src"])
        assert findings == [], "\n".join(finding.format() for finding in findings)

    def test_tests_tree_is_lint_clean(self):
        findings = run_lint([REPO_ROOT / "tests"])
        assert findings == [], "\n".join(finding.format() for finding in findings)
