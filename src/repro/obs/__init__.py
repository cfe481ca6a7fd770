"""``repro.obs`` — observability: metrics, span tracing, scrape surface.

The reproduction measures a measurement system; this package measures
the reproduction itself.  Three parts:

``metrics``
    A thread-safe :class:`MetricsRegistry` of :class:`Counter` /
    :class:`Gauge` / :class:`Histogram` families with labeled series,
    deterministic ``snapshot()`` dicts and one Prometheus text renderer
    (:func:`render_snapshot_prometheus`) plus :func:`filter_snapshot`
    over that wire form (the ``metrics --grep`` backend).
    Instrumented modules declare handles against
    :func:`default_registry` at import time; the server exposes it at
    ``GET /v1/metrics`` (text) and ``GET /v1/metrics.json``.
    Histograms attach bounded per-bucket *exemplars* — the trace id of
    the recorded span open at observation time — rendered as
    OpenMetrics ``# {trace_id="..."}`` suffixes.
``trace``
    Span tracing (:class:`Tracer`, :class:`Span`, :class:`SpanContext`)
    with monotonic durations, a flock-safe JSONL :class:`TraceWriter`
    and ``X-Repro-Trace`` header propagation so a served job's spans
    stitch under the submitter's trace.
``traceview``
    Offline reconstruction of span trees from TraceWriter JSONL —
    the ``trace ls`` / ``trace show`` verbs.

Everything here is *inert* by contract: no metric or span may perturb
the splitmix64 noise stream, and traced plan execution is bitwise
identical to untraced (asserted in tests).  This package is also the
only place the RL002 linter permits wall/monotonic clock reads.
"""

from .metrics import (
    COUNT_BUCKETS,
    DEFAULT_EXEMPLARS_PER_BUCKET,
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    default_registry,
    filter_snapshot,
    render_snapshot_prometheus,
)
from .trace import (
    TRACE_HEADER,
    Span,
    SpanContext,
    TraceWriter,
    Tracer,
    current_trace_id,
)
from .traceview import (
    TraceViewError,
    build_tree,
    exemplar_references,
    list_traces,
    load_spans,
    render_trace,
    render_tree,
)

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_EXEMPLARS_PER_BUCKET",
    "DEFAULT_TIME_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "TRACE_HEADER",
    "TraceViewError",
    "TraceWriter",
    "Tracer",
    "build_tree",
    "current_trace_id",
    "default_registry",
    "exemplar_references",
    "filter_snapshot",
    "list_traces",
    "load_spans",
    "render_snapshot_prometheus",
    "render_trace",
    "render_tree",
]
