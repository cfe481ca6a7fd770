"""Lightweight span tracing with cross-process stitching.

A :class:`Tracer` keeps a *thread-local* stack of open spans: entering
``tracer.span("executor.step", step="s1")`` opens a child of whatever
span the current thread already has open, times it on the monotonic
clock and, when a :class:`TraceWriter` is attached, appends the finished
span as one JSONL line (flock-guarded, so several processes — a serving
process and ``run-plan`` runs, say — can share a file).

Spans stitch across processes through :class:`SpanContext`: the HTTP
client sends ``trace_id/span_id`` in the ``X-Repro-Trace`` header
(:data:`TRACE_HEADER`) and the queue adopts it as the parent of the job
span, so the server's job and step spans land under the submitter's
trace.

Determinism note: tracing must be *inert* — ids come from
``os.urandom`` (not the simulator's splitmix64 stream), clocks are read
only here (``repro.obs`` is RL002's single sanctioned home for clock
reads) and nothing measured ever depends on a span.  Tests assert
traced and untraced plan executions are bitwise identical.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "SpanContext",
    "TRACE_HEADER",
    "TraceWriter",
    "Tracer",
    "current_trace_id",
]

#: HTTP header carrying ``trace_id/span_id`` from a client to the server.
TRACE_HEADER = "X-Repro-Trace"

_ID_RE = re.compile(r"^[0-9a-f]{4,32}$")


def _new_id() -> str:
    # os.urandom, *not* the splitmix64 noise stream: trace ids must never
    # perturb (or be reproducible from) measurement noise.
    return os.urandom(8).hex()


# Thread-local pointer at the innermost *recorded* span's trace id.
# Only tracers with a writer publish here: a writer-less tracer's span
# ids land nowhere, so an exemplar pointing at them would dangle.
_ACTIVE = threading.local()


def current_trace_id() -> Optional[str]:
    """Trace id of this thread's innermost recorded span, if any.

    This is the hook :meth:`repro.obs.metrics.Histogram.observe` uses to
    attach exemplars without call sites threading a tracer through: any
    histogram observation made while a writer-backed span is open links
    its bucket to that span's trace.
    """

    return getattr(_ACTIVE, "trace_id", None)


@dataclass(frozen=True)
class SpanContext:
    """The wire-safe identity of a span: ``trace_id/span_id``."""

    trace_id: str
    span_id: str

    def to_header(self) -> str:
        return f"{self.trace_id}/{self.span_id}"

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["SpanContext"]:
        """Parse a header value; returns ``None`` for missing/garbage."""
        if not text or not isinstance(text, str):
            return None
        parts = text.strip().split("/")
        if len(parts) != 2:
            return None
        trace_id, span_id = parts
        if not _ID_RE.match(trace_id) or not _ID_RE.match(span_id):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class Span:
    """One timed operation.  Created by :meth:`Tracer.span`, never directly."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "started_at", "duration_ms", "status", "_start_monotonic")

    def __init__(self, name: str, trace_id: str, parent_id: Optional[str],
                 attrs: Dict[str, object]) -> None:
        self.name = str(name)
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.started_at = time.time()
        self.duration_ms: Optional[float] = None
        self.status = "ok"
        self._start_monotonic = time.monotonic()

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def finish(self) -> None:
        if self.duration_ms is None:
            self.duration_ms = (time.monotonic() - self._start_monotonic) * 1e3

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "started_at": self.started_at,
            "duration_ms": self.duration_ms,
            "status": self.status,
        }
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        if self.attrs:
            payload["attrs"] = {key: self.attrs[key] for key in sorted(self.attrs)}
        return payload


class TraceWriter:
    """Flock-guarded JSONL sink; one finished span per line.

    Safe for concurrent writers in one process (internal lock) and
    across processes (``fcntl.flock`` around each append, mirroring the
    :class:`~repro.profiling.store.ProfileStore` discipline).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._written = 0

    def write(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                handle.write(line + "\n")
                handle.flush()
            self._written += 1

    @property
    def written(self) -> int:
        with self._lock:
            return self._written


class Tracer:
    """Per-component span factory with a thread-local open-span stack.

    A tracer without a writer still tracks parentage (so contexts
    propagate) but records nothing — the default for library users who
    never opt into tracing.
    """

    def __init__(self, writer: Optional[TraceWriter] = None) -> None:
        self.writer = writer
        self._local = threading.local()

    def _stack(self) -> List[object]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_context(self) -> Optional[SpanContext]:
        """Context of this thread's innermost open (or adopted) span."""
        stack = self._stack()
        if not stack:
            return None
        top = stack[-1]
        if isinstance(top, SpanContext):
            return top
        return top.context

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a child span of the current thread's innermost span."""
        parent = self.current_context()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = _new_id(), None
        span = Span(name, trace_id=trace_id, parent_id=parent_id, attrs=attrs)
        stack = self._stack()
        stack.append(span)
        recorded = self.writer is not None
        if recorded:
            previous = getattr(_ACTIVE, "trace_id", None)
            _ACTIVE.trace_id = span.trace_id
        try:
            yield span
        except BaseException as error:
            span.status = "error"
            span.attrs.setdefault("error", type(error).__name__)
            raise
        finally:
            stack.pop()
            if recorded:
                _ACTIVE.trace_id = previous
            span.finish()
            if self.writer is not None:
                self.writer.write(span.to_dict())

    @contextmanager
    def adopt(self, context: Optional[SpanContext]) -> Iterator[None]:
        """Make ``context`` the parent for spans opened inside the block.

        ``adopt(None)`` is a no-op, so call sites can pass a parsed
        header straight through without branching.
        """
        if context is None:
            yield
            return
        stack = self._stack()
        stack.append(context)
        try:
            yield
        finally:
            stack.pop()
