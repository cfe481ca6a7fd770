"""Developer tooling that guards the reproduction's invariants.

The runtime packages promise things no unit test can watch on every
line of every change: bitwise-identical results however a plan is run
(which dies the moment a measurement path reads a clock or ``random``),
exactly-once simulation through the flock-safe profile store, and
thread-safe ``Session``/``JobQueue``/``JobStore`` state (which dies
with one forgotten ``with self._lock:``).  :mod:`repro.devtools.lint`
turns those invariants into machine-checked AST analyses run by
``repro-experiments lint`` and the CI gate.
"""

from __future__ import annotations

from .lint import CHECKERS, Checker, Finding, run_lint

__all__ = ["CHECKERS", "Checker", "Finding", "run_lint"]
