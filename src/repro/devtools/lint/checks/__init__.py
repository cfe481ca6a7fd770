"""Built-in checkers.  Importing this package registers RL001, RL002, RL004 and RL005."""

from __future__ import annotations

from . import determinism, locks, serialization, sessions  # noqa: F401

__all__ = [
    "determinism",
    "locks",
    "serialization",
    "sessions",
]
