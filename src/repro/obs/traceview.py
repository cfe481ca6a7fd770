"""Offline reconstruction of span trees from TraceWriter JSONL.

:class:`~repro.obs.trace.TraceWriter` appends one finished span per
line, flock-guarded so several processes can share a file.  The result
is an interleaved, multi-process log: a submitter's span and the
server's ``job`` and ``executor.step`` spans of one submission all
carry the same ``trace`` id but arrive in completion order from
different processes.

This module turns that log back into trees:

:func:`load_spans`
    Parse the JSONL, tolerating truncated/garbage lines (a crash mid
    ``write`` must not make the whole file unreadable).
:func:`list_traces`
    One summary row per trace id — root span name, span count, wall
    duration, error count — newest first (the ``trace ls`` verb).
:func:`build_tree`
    Stitch one trace's spans into parent/child trees.  Spans whose
    parent never got written (the parent process died, or the parent is
    an adopted remote context recorded elsewhere) surface as roots
    rather than vanishing.
:func:`render_tree` / :func:`render_trace`
    Indented timing view with per-span durations, status flags and
    attributes (the ``trace show`` verb).
:func:`exemplar_references`
    Cross-reference a metrics snapshot: every histogram bucket whose
    exemplar points at the trace, so ``trace show`` can say *this*
    trace is the one a histogram bucket flagged.

Everything here is a pure function over already-written artifacts;
nothing feeds back into measurement.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

__all__ = [
    "TraceViewError",
    "build_tree",
    "exemplar_references",
    "list_traces",
    "load_spans",
    "render_trace",
    "render_tree",
]


class TraceViewError(ValueError):
    """Raised for unreadable trace files or unknown trace ids."""


def load_spans(path: Union[str, Path]) -> List[dict]:
    """All well-formed span records in ``path``, file order.

    Lines that are not valid JSON objects with ``name``/``trace``/
    ``span`` fields are skipped: a worker killed mid-append leaves a
    truncated tail line, and one bad line must not take down ``trace
    show`` for every other trace in the file.
    """

    trace_path = Path(path)
    if not trace_path.exists():
        raise TraceViewError(f"trace file not found: {trace_path}")
    spans: List[dict] = []
    with open(trace_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict):
                continue
            if not all(isinstance(record.get(key), str) for key in ("name", "trace", "span")):
                continue
            spans.append(record)
    return spans


def list_traces(spans: Sequence[Mapping]) -> List[dict]:
    """One summary per trace id, newest first.

    ``root`` is the name of the earliest-starting parentless span (or
    the earliest span at all when every recorded span is a child of an
    unrecorded remote parent); ``duration_ms`` is the wall window from
    first span start to last span end.
    """

    by_trace: Dict[str, List[Mapping]] = {}
    order: List[str] = []
    for span in spans:
        trace_id = str(span["trace"])
        if trace_id not in by_trace:
            by_trace[trace_id] = []
            order.append(trace_id)
        by_trace[trace_id].append(span)
    summaries = []
    for trace_id in order:
        members = by_trace[trace_id]
        started = [float(span.get("started_at", 0.0)) for span in members]
        ends = [
            float(span.get("started_at", 0.0)) + float(span.get("duration_ms") or 0.0) / 1e3
            for span in members
        ]
        roots = [span for span in members if "parent" not in span] or list(members)
        root = min(roots, key=lambda span: float(span.get("started_at", 0.0)))
        summaries.append({
            "trace": trace_id,
            "root": str(root["name"]),
            "spans": len(members),
            "errors": sum(1 for span in members if span.get("status") == "error"),
            "started_at": min(started),
            "duration_ms": (max(ends) - min(started)) * 1e3,
        })
    summaries.sort(key=lambda row: (-row["started_at"], row["trace"]))
    return summaries


def build_tree(spans: Sequence[Mapping], trace_id: str) -> List[dict]:
    """The trace's spans stitched into root trees.

    Returns a list of root nodes ``{"span": record, "children": [...]}``,
    each level sorted by start time (ties broken by span id so renders
    are stable).  A span whose ``parent`` id never appears in the file
    — its parent lived in a process that didn't share the writer, or
    died before finishing — becomes a root instead of being dropped,
    so partial traces still render.
    """

    members = [span for span in spans if str(span["trace"]) == str(trace_id)]
    if not members:
        raise TraceViewError(f"no spans for trace {trace_id!r}")
    nodes: Dict[str, dict] = {}
    for span in members:
        # Duplicate span ids (a retried write) keep the first record.
        nodes.setdefault(str(span["span"]), {"span": span, "children": []})
    roots: List[dict] = []
    for node in nodes.values():
        parent_id = node["span"].get("parent")
        parent = nodes.get(str(parent_id)) if parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)

    def sort_key(node: dict) -> tuple:
        span = node["span"]
        return (float(span.get("started_at", 0.0)), str(span["span"]))

    def sort_children(node: dict) -> None:
        node["children"].sort(key=sort_key)
        for child in node["children"]:
            sort_children(child)

    roots.sort(key=sort_key)
    for root in roots:
        sort_children(root)
    return roots


def _format_duration(duration_ms: Optional[float]) -> str:
    if duration_ms is None:
        return "?"
    if duration_ms >= 1000.0:
        return f"{duration_ms / 1000.0:.2f}s"
    return f"{duration_ms:.1f}ms"


def _render_node(node: dict, depth: int, lines: List[str]) -> None:
    span = node["span"]
    flag = " !" if span.get("status") == "error" else ""
    attrs = span.get("attrs") or {}
    suffix = ""
    if attrs:
        rendered = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        suffix = f"  [{rendered}]"
    lines.append(
        f"{'  ' * depth}{span['name']}  "
        f"{_format_duration(span.get('duration_ms'))}{flag}{suffix}"
    )
    for child in node["children"]:
        _render_node(child, depth + 1, lines)


def render_tree(roots: Sequence[dict]) -> str:
    """Indented timing view of :func:`build_tree` output."""

    lines: List[str] = []
    for root in roots:
        _render_node(root, 0, lines)
    return "\n".join(lines)


def exemplar_references(snapshot: Mapping[str, dict], trace_id: str) -> List[dict]:
    """Histogram buckets whose exemplar points at ``trace_id``.

    Rows are ``{"metric", "labels", "le", "value"}`` — enough for
    ``trace show`` to report "this trace is the exemplar for the
    ``repro_profile_batch_size`` le=256 bucket (142)".
    """

    references: List[dict] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        for entry in family.get("series", []):
            for edge, exemplar_trace, value in entry.get("exemplars", []):
                if str(exemplar_trace) == str(trace_id):
                    references.append({
                        "metric": name,
                        "labels": dict(entry.get("labels", {})),
                        "le": str(edge),
                        "value": float(value),
                    })
    return references


def render_trace(
    spans: Sequence[Mapping],
    trace_id: str,
    snapshot: Optional[Mapping[str, dict]] = None,
) -> str:
    """The full ``trace show`` body: span tree plus exemplar cross-refs."""

    roots = build_tree(spans, trace_id)
    total = sum(1 for span in spans if str(span["trace"]) == str(trace_id))
    lines = [f"trace {trace_id}  ({total} spans)", render_tree(roots)]
    if snapshot is not None:
        references = exemplar_references(snapshot, trace_id)
        if references:
            lines.append("")
            lines.append("metric exemplars referencing this trace:")
            for ref in references:
                labels = ",".join(f'{k}="{v}"' for k, v in sorted(ref["labels"].items()))
                rendered = f"{{{labels}}}" if labels else ""
                lines.append(
                    f"  {ref['metric']}{rendered} le={ref['le']}  value={ref['value']:g}"
                )
    return "\n".join(lines) + "\n"
