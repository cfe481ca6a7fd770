"""Thread-safe metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` owns a flat namespace of metrics.  Each metric
is a *family*: an optionally labeled set of series, where a series is one
``(label values…) -> state`` cell.  Declaring the same name twice with an
identical shape returns the existing family (so module-level handles in
independently imported modules converge on one series), while a
conflicting redeclaration raises :class:`MetricsError`.

Design constraints, in order:

1. **Determinism.**  Snapshots must not depend on thread arrival order:
   histogram bucket boundaries are fixed at declaration time,
   ``snapshot()`` sorts metric names and label tuples, and no clock is
   ever read here — durations are *observed into* histograms by callers
   (``repro.obs`` is the only package the RL002 linter permits to read
   monotonic clocks, and this module doesn't even need that).
2. **Thread safety.**  Every family guards its series map with its own
   lock; increments are read-modify-write under that lock so concurrent
   writers never lose updates (proved by a hammer test).
3. **Plain data out.**  ``snapshot()`` returns JSON-ready dicts, and
   :func:`render_snapshot_prometheus` is the one Prometheus text
   renderer: ``render_prometheus()`` is it applied to ``snapshot()``.
   The ``/v1/metrics`` route byte-serves the text, ``/v1/metrics.json``
   the snapshot, and ``metrics --grep`` renders a
   :func:`filter_snapshot` of it.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_EXEMPLARS_PER_BUCKET",
    "DEFAULT_TIME_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "default_registry",
    "filter_snapshot",
    "render_snapshot_prometheus",
]


class MetricsError(ValueError):
    """Raised for invalid metric declarations, labels or updates."""


_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Latency buckets (seconds) — wide enough for sub-millisecond simulator
#: steps and minute-long figure steps alike.
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Power-of-two size buckets for widths/batch sizes/queue depths.
COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)

#: Trace-id exemplars kept per histogram bucket (newest win).  Bounded
#: so a long-lived serving process never grows a per-bucket log.
DEFAULT_EXEMPLARS_PER_BUCKET = 2


def _validate_metric_name(name: str) -> str:
    if not isinstance(name, str) or not _METRIC_NAME_RE.match(name):
        raise MetricsError(f"invalid metric name: {name!r}")
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not isinstance(label, str) or not _LABEL_NAME_RE.match(label):
            raise MetricsError(f"invalid label name: {label!r}")
        if label == "le":
            raise MetricsError("label name 'le' is reserved for histogram buckets")
    if len(set(names)) != len(names):
        raise MetricsError(f"duplicate label names: {names!r}")
    return names


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Metric:
    """Shared family plumbing: label keying and the series lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        self.name = _validate_metric_name(name)
        self.help = str(help)
        self.labelnames = _validate_labelnames(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], object] = {}

    # Private on purpose: called only while holding ``self._lock``.
    def _label_key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if sorted(labels) != sorted(self.labelnames):
            raise MetricsError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def snapshot_series(self) -> List[dict]:
        with self._lock:
            out = []
            for key in sorted(self._series):
                entry = {"labels": dict(zip(self.labelnames, key))}
                entry.update(self._series_payload(key))
                out.append(entry)
            return out

    def _series_payload(self, key: Tuple[str, ...]) -> dict:
        raise NotImplementedError

    def describe(self) -> dict:
        payload = {
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": self.snapshot_series(),
        }
        return payload


class _ScalarMetric(_Metric):
    """A family whose series state is a single float."""

    def value(self, **labels: object) -> float:
        """Current value of one series (0.0 if never touched)."""
        with self._lock:
            return float(self._series.get(self._label_key(labels), 0.0))

    def _series_payload(self, key: Tuple[str, ...]) -> dict:
        return {"value": float(self._series[key])}


class Counter(_ScalarMetric):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        with self._lock:
            self._add_locked(self._label_key(labels), amount)

    def labels(self, **labels: object) -> "_BoundCounter":
        with self._lock:
            return _BoundCounter(self, self._label_key(labels))

    def _add_locked(self, key: Tuple[str, ...], amount: float) -> None:
        amount = float(amount)
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self._series[key] = self._series.get(key, 0.0) + amount

    def _inc_key(self, key: Tuple[str, ...], amount: float) -> None:
        with self._lock:
            self._add_locked(key, amount)


class Gauge(_ScalarMetric):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._series[self._label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        with self._lock:
            key = self._label_key(labels)
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-float(amount), **labels)

    def labels(self, **labels: object) -> "_BoundGauge":
        with self._lock:
            return _BoundGauge(self, self._label_key(labels))

    def _set_key(self, key: Tuple[str, ...], value: float) -> None:
        with self._lock:
            self._series[key] = float(value)

    def _inc_key(self, key: Tuple[str, ...], amount: float) -> None:
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)


class _HistogramState:
    __slots__ = ("bucket_counts", "sum", "count", "exemplars")

    def __init__(self, slots: int) -> None:
        self.bucket_counts = [0] * slots
        self.sum = 0.0
        self.count = 0
        #: bucket index -> newest-last [trace_id, value] pairs (bounded).
        self.exemplars: Dict[int, List[List[object]]] = {}


class Histogram(_Metric):
    """Fixed-boundary distribution; boundaries are ``le`` upper bounds.

    Histograms optionally carry *exemplars*: each bucket remembers the
    trace ids of the last few observations that landed in it, so a slow
    bucket points at the exact trace to open with ``trace show``.  An
    exemplar is taken from the explicit ``exemplar=`` argument or, when
    absent, from the thread's innermost *recorded* span
    (:func:`repro.obs.trace.current_trace_id`) — runs without a trace
    writer therefore never record exemplars, keeping untraced snapshots
    deterministic.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_S,
                 exemplars: int = DEFAULT_EXEMPLARS_PER_BUCKET) -> None:
        super().__init__(name, help=help, labelnames=labelnames)
        boundaries = tuple(float(edge) for edge in buckets)
        if not boundaries:
            raise MetricsError(f"histogram {name!r} needs at least one bucket")
        if list(boundaries) != sorted(set(boundaries)):
            raise MetricsError(
                f"histogram {name!r} buckets must be strictly increasing: "
                f"{boundaries!r}"
            )
        if exemplars < 0:
            raise MetricsError(
                f"histogram {name!r} exemplars bound must be >= 0, got {exemplars}"
            )
        self.buckets = boundaries
        self.exemplars_per_bucket = int(exemplars)

    def observe(self, value: float, exemplar: Optional[str] = None,
                **labels: object) -> None:
        if exemplar is None and self.exemplars_per_bucket:
            from .trace import current_trace_id

            exemplar = current_trace_id()
        with self._lock:
            self._observe_locked(self._label_key(labels), value, exemplar)

    def labels(self, **labels: object) -> "_BoundHistogram":
        with self._lock:
            return _BoundHistogram(self, self._label_key(labels))

    def _observe_locked(self, key: Tuple[str, ...], value: float,
                        exemplar: Optional[str] = None) -> None:
        number = float(value)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = _HistogramState(len(self.buckets) + 1)
        index = bisect.bisect_left(self.buckets, number)
        state.bucket_counts[index] += 1
        state.sum += number
        state.count += 1
        if exemplar and self.exemplars_per_bucket:
            kept = state.exemplars.setdefault(index, [])
            kept.append([str(exemplar), number])
            del kept[:-self.exemplars_per_bucket]

    def _observe_key(self, key: Tuple[str, ...], value: float,
                     exemplar: Optional[str] = None) -> None:
        if exemplar is None and self.exemplars_per_bucket:
            from .trace import current_trace_id

            exemplar = current_trace_id()
        with self._lock:
            self._observe_locked(key, value, exemplar)

    def describe(self) -> dict:
        payload = super().describe()
        payload["buckets"] = list(self.buckets)
        return payload

    def _series_payload(self, key: Tuple[str, ...]) -> dict:
        state = self._series[key]
        cumulative = 0
        rows = []
        edges = [str(edge) for edge in self.buckets] + ["+Inf"]
        for edge, bucket_count in zip(edges, state.bucket_counts):
            cumulative += bucket_count
            rows.append([edge, cumulative])
        payload = {"count": state.count, "sum": state.sum, "buckets": rows}
        if state.exemplars:
            # [le-edge, trace_id, observed value], newest last per bucket;
            # present only when tracing actually produced exemplars, so
            # untraced snapshots keep their historical shape.
            payload["exemplars"] = [
                [edges[index], trace_id, value]
                for index in sorted(state.exemplars)
                for trace_id, value in state.exemplars[index]
            ]
        return payload


class _BoundCounter:
    """One labeled counter series; pre-resolved key, no per-call lookup."""

    def __init__(self, metric: Counter, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc_key(self._key, amount)


class _BoundGauge:
    def __init__(self, metric: Gauge, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def set(self, value: float) -> None:
        self._metric._set_key(self._key, value)

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc_key(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._metric._inc_key(self._key, -float(amount))


class _BoundHistogram:
    def __init__(self, metric: Histogram, key: Tuple[str, ...]) -> None:
        self._metric = metric
        self._key = key

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        self._metric._observe_key(self._key, value, exemplar)


class MetricsRegistry:
    """A named, typed collection of metric families.

    Declarations are idempotent: re-declaring an identical shape returns
    the existing family, so every importer of an instrumented module
    shares one set of series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        with self._lock:
            return self._declare_locked(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        with self._lock:
            return self._declare_locked(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_S,
                  exemplars: int = DEFAULT_EXEMPLARS_PER_BUCKET) -> Histogram:
        with self._lock:
            return self._declare_locked(
                Histogram, name, help, labelnames,
                buckets=tuple(buckets), exemplars=exemplars,
            )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def _declare_locked(self, cls, name, help, labelnames, **extra):
        existing = self._metrics.get(name)
        if existing is not None:
            same = (
                type(existing) is cls
                and existing.labelnames == tuple(labelnames)
                and (
                    "buckets" not in extra
                    or existing.buckets == tuple(extra["buckets"])
                )
            )
            if not same:
                raise MetricsError(
                    f"metric {name!r} already registered with a different shape"
                )
            return existing
        metric = cls(name, help=help, labelnames=labelnames, **extra)
        self._metrics[name] = metric
        return metric

    def snapshot(self) -> Dict[str, dict]:
        """All families as plain sorted dicts (JSON-ready)."""
        with self._lock:
            families = [self._metrics[name] for name in sorted(self._metrics)]
        return {metric.name: metric.describe() for metric in families}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format, one family per block."""
        return render_snapshot_prometheus(self.snapshot())


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module reports into."""
    return _DEFAULT_REGISTRY


# ----------------------------------------------------------------------
# Rendering and filtering over the snapshot wire form
# ----------------------------------------------------------------------
def _render_label_pairs(labelnames: Sequence[str], labels: Mapping[str, str],
                        extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [
        f'{name}="{_escape_label_value(str(labels[name]))}"'
        for name in labelnames
        if name in labels
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label_value(extra[1])}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_snapshot_prometheus(snapshot: Mapping[str, dict]) -> str:
    """Prometheus text exposition of a :meth:`MetricsRegistry.snapshot`.

    One block per family in name order; histogram buckets carry
    OpenMetrics ``# {trace_id="..."}`` exemplar suffixes (the newest
    exemplar per bucket).
    """

    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = str(family.get("type", "untyped"))
        help_text = str(family.get("help", ""))
        labelnames = [str(label) for label in family.get("labelnames", [])]
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in family.get("series", []):
            labels = entry.get("labels", {})
            if kind == "histogram":
                newest = {
                    str(edge): (trace_id, value)
                    for edge, trace_id, value in entry.get("exemplars", [])
                }
                for edge, cumulative in entry.get("buckets", []):
                    le = edge if edge == "+Inf" else _format_value(float(edge))
                    rendered = _render_label_pairs(labelnames, labels, extra=("le", le))
                    line = f"{name}_bucket{rendered} {_format_value(cumulative)}"
                    if edge in newest:
                        trace_id, value = newest[edge]
                        line += (
                            f' # {{trace_id="{_escape_label_value(str(trace_id))}"}}'
                            f" {_format_value(value)}"
                        )
                    lines.append(line)
                rendered = _render_label_pairs(labelnames, labels)
                lines.append(f"{name}_sum{rendered} {_format_value(entry.get('sum', 0.0))}")
                lines.append(f"{name}_count{rendered} {_format_value(entry.get('count', 0))}")
            else:
                rendered = _render_label_pairs(labelnames, labels)
                lines.append(f"{name}{rendered} {_format_value(entry.get('value', 0.0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def filter_snapshot(snapshot: Mapping[str, dict], pattern: str) -> Dict[str, dict]:
    """Families/series whose name or rendered labels match ``pattern``.

    The regex is searched against the family name and against each
    series rendered as ``name{label="value",...}``; a family whose name
    matches keeps all its series, otherwise only matching series
    survive and empty families are dropped.
    """

    matcher = re.compile(pattern)
    out: Dict[str, dict] = {}
    for name in sorted(snapshot):
        family = snapshot[name]
        labelnames = [str(label) for label in family.get("labelnames", [])]
        if matcher.search(name):
            out[name] = family
            continue
        kept = [
            entry
            for entry in family.get("series", [])
            if matcher.search(
                f"{name}{_render_label_pairs(labelnames, entry.get('labels', {}))}"
            )
        ]
        if kept:
            out[name] = {**{k: v for k, v in family.items() if k != "series"}, "series": kept}
    return out
