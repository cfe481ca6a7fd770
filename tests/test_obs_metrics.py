"""Unit tests for repro.obs.metrics: registry semantics, thread safety and
the snapshot renderer and filter.

The registry is the backbone of ``/v1/metrics``: declarations must be
idempotent (module-level handles converge on one series), snapshots must
be deterministic (sorted names, sorted label tuples, fixed buckets) and
concurrent increments must never be lost — the hammer test proves the
read-modify-write is actually serialized.
"""

import json
import threading

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    DEFAULT_EXEMPLARS_PER_BUCKET,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    default_registry,
    filter_snapshot,
    render_snapshot_prometheus,
)


class TestDeclarations:
    def test_idempotent_redeclaration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "Hits.")
        second = registry.counter("hits_total", "Hits.")
        assert first is second

    def test_shape_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("hits_total")
        with pytest.raises(MetricsError):
            registry.gauge("hits_total")
        with pytest.raises(MetricsError):
            registry.counter("hits_total", labelnames=("status",))
        registry.histogram("latency", buckets=(1.0, 2.0))
        with pytest.raises(MetricsError):
            registry.histogram("latency", buckets=(1.0, 2.0, 4.0))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("0bad")
        with pytest.raises(MetricsError):
            registry.counter("ok", labelnames=("bad-label",))
        with pytest.raises(MetricsError):
            registry.histogram("h", labelnames=("le",))
        with pytest.raises(MetricsError):
            registry.histogram("h", buckets=())
        with pytest.raises(MetricsError):
            registry.histogram("h", buckets=(2.0, 1.0))

    def test_default_registry_is_process_wide(self):
        assert default_registry() is default_registry()


class TestCounterAndGauge:
    def test_counter_accumulates_per_label_series(self):
        counter = Counter("steps_total", labelnames=("backend",))
        counter.inc(backend="serial")
        counter.inc(2, backend="serial")
        counter.inc(backend="process")
        assert counter.value(backend="serial") == 3
        assert counter.value(backend="process") == 1
        assert counter.value(backend="remote") == 0

    def test_counter_rejects_negative_and_wrong_labels(self):
        counter = Counter("steps_total", labelnames=("backend",))
        with pytest.raises(MetricsError):
            counter.inc(-1, backend="serial")
        with pytest.raises(MetricsError):
            counter.inc()
        with pytest.raises(MetricsError):
            counter.inc(backend="serial", extra="nope")

    def test_gauge_holds_its_last_set_value_per_series(self):
        gauge = Gauge("depth", labelnames=("queue",))
        gauge.set(5, queue="a")
        gauge.set(2, queue="a")
        gauge.set(7, queue="b")
        assert gauge.value(queue="a") == 2
        assert gauge.value(queue="b") == 7
        assert gauge.value(queue="c") == 0


class TestHistogram:
    def test_bucketing_and_payload(self):
        histogram = Histogram("width", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            histogram.observe(value)
        (series,) = histogram.snapshot_series()
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(104.5)
        # Cumulative counts per le-edge; 1.0 lands in the le=1.0 bucket.
        assert series["buckets"] == [["1.0", 2], ["2.0", 2], ["4.0", 3], ["+Inf", 4]]

    def test_count_buckets_cover_powers_of_two(self):
        assert COUNT_BUCKETS[0] == 1.0
        assert all(b == 2 * a for a, b in zip(COUNT_BUCKETS, COUNT_BUCKETS[1:]))


class TestExemplars:
    def test_explicit_exemplar_lands_in_its_bucket(self):
        histogram = Histogram("wait", buckets=(1.0, 2.0))
        histogram.observe(0.5, exemplar="trace-a")
        histogram.observe(100.0, exemplar="trace-b")
        (series,) = histogram.snapshot_series()
        assert series["exemplars"] == [
            ["1.0", "trace-a", 0.5],
            ["+Inf", "trace-b", 100.0],
        ]

    def test_exemplars_key_absent_without_exemplars(self):
        # Untraced runs must keep byte-stable snapshots: no empty keys.
        histogram = Histogram("wait", buckets=(1.0,))
        histogram.observe(0.5)
        (series,) = histogram.snapshot_series()
        assert "exemplars" not in series

    def test_bounded_per_bucket_newest_win(self):
        histogram = Histogram("wait", buckets=(10.0,))
        for index in range(DEFAULT_EXEMPLARS_PER_BUCKET + 3):
            histogram.observe(float(index), exemplar=f"t{index}")
        (series,) = histogram.snapshot_series()
        kept = [row[1] for row in series["exemplars"]]
        assert len(kept) == DEFAULT_EXEMPLARS_PER_BUCKET
        assert kept == [f"t{index + 3}" for index in range(DEFAULT_EXEMPLARS_PER_BUCKET)]

    def test_exemplars_zero_disables_capture(self):
        histogram = Histogram("wait", buckets=(1.0,), exemplars=0)
        histogram.observe(0.5, exemplar="ignored")
        (series,) = histogram.snapshot_series()
        assert "exemplars" not in series

    def test_active_traced_span_is_captured_implicitly(self, tmp_path):
        from repro.obs.trace import TraceWriter, Tracer

        histogram = Histogram("wait", buckets=(1.0,))
        tracer = Tracer(writer=TraceWriter(tmp_path / "trace.jsonl"))
        with tracer.span("measuring") as span:
            histogram.observe(0.5)
        (series,) = histogram.snapshot_series()
        assert series["exemplars"] == [["1.0", span.trace_id, 0.5]]

    def test_writer_less_span_leaves_no_exemplar(self):
        from repro.obs.trace import Tracer

        histogram = Histogram("wait", buckets=(1.0,))
        with Tracer().span("untraced"):
            histogram.observe(0.5)
        (series,) = histogram.snapshot_series()
        assert "exemplars" not in series

    def test_openmetrics_suffix_on_bucket_lines(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_wait_seconds", "Wait.", buckets=(1.0,))
        histogram.observe(0.5, exemplar="abc123")
        text = registry.render_prometheus()
        assert (
            'repro_wait_seconds_bucket{le="1"} 1 # {trace_id="abc123"} 0.5\n' in text
        )
        # Lines without an exemplar keep the classic format.
        assert 'repro_wait_seconds_bucket{le="+Inf"} 1\n' in text


class TestRendering:
    def build(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_hits_total", "Hits.", labelnames=("kind",))
        counter.inc(3, kind="sweep")
        histogram = registry.histogram("repro_wait_seconds", "Waits.", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        registry.gauge("repro_depth", "Depth.").set(7)
        return registry

    def test_prometheus_text_format(self):
        text = self.build().render_prometheus()
        assert "# HELP repro_hits_total Hits.\n" in text
        assert "# TYPE repro_hits_total counter\n" in text
        assert 'repro_hits_total{kind="sweep"} 3\n' in text
        assert 'repro_wait_seconds_bucket{le="1"} 1\n' in text
        assert 'repro_wait_seconds_bucket{le="+Inf"} 1\n' in text
        assert "repro_wait_seconds_sum 0.5\n" in text
        assert "repro_wait_seconds_count 1\n" in text
        assert "repro_depth 7\n" in text
        assert text.endswith("\n")

    def test_snapshot_is_json_ready_and_sorted(self):
        registry = self.build()
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        # A snapshot must survive a JSON round trip unchanged.
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["repro_hits_total"]["type"] == "counter"
        assert snapshot["repro_wait_seconds"]["buckets"] == [1.0, 2.0]

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().snapshot() == {}


class TestConcurrency:
    def test_hammer_loses_no_increments(self):
        """N threads x M increments land exactly N*M on every family."""

        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", labelnames=("lane",))
        plain = registry.counter("hammer_plain_total")
        histogram = registry.histogram("hammer_hist", buckets=(0.5, 1.5))
        threads_n, per_thread = 16, 2000

        def pound(lane: str) -> None:
            for _ in range(per_thread):
                counter.inc(lane=lane)
                plain.inc()
                histogram.observe(1.0)

        threads = [
            threading.Thread(target=pound, args=(f"lane-{index % 4}",))
            for index in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = threads_n * per_thread
        assert sum(entry["value"] for entry in counter.snapshot_series()) == total
        assert plain.value() == total
        (series,) = histogram.snapshot_series()
        assert series["count"] == total
        assert series["buckets"][-1] == ["+Inf", total]

#: The 2.x per-metric renderer's exact output for :func:`golden_registry`
#: (label and help escapes, an empty family, ``inf``/``nan`` gauges and
#: exemplars); the snapshot renderer must keep it byte for byte.
GOLDEN_EXPOSITION = (
    '# HELP repro_depth Depth "quoted"\\nnewline \\\\ slash.\n'
    '# TYPE repro_depth gauge\n'
    'repro_depth 7\n'
    '# HELP repro_empty_total Never incremented.\n'
    '# TYPE repro_empty_total counter\n'
    '# HELP repro_jobs_total Jobs.\n'
    '# TYPE repro_jobs_total counter\n'
    'repro_jobs_total{status="a \\"b\\"\\\\c\\nd"} 1\n'
    'repro_jobs_total{status="done"} 2\n'
    '# TYPE repro_ratio gauge\n'
    'repro_ratio{kind="down"} -inf\n'
    'repro_ratio{kind="float"} 0.30000000000000004\n'
    'repro_ratio{kind="odd"} nan\n'
    'repro_ratio{kind="up"} inf\n'
    '# HELP repro_wait_seconds Wait.\n'
    '# TYPE repro_wait_seconds histogram\n'
    'repro_wait_seconds_bucket{stage="claim",le="0.1"} 2 # {trace_id="abc124"} 0.07\n'
    'repro_wait_seconds_bucket{stage="claim",le="1"} 2\n'
    'repro_wait_seconds_bucket{stage="claim",le="2.5"} 2\n'
    'repro_wait_seconds_bucket{stage="claim",le="+Inf"} 3\n'
    'repro_wait_seconds_sum{stage="claim"} 3.12\n'
    'repro_wait_seconds_count{stage="claim"} 3\n'
    'repro_wait_seconds_bucket{stage="run",le="0.1"} 0\n'
    'repro_wait_seconds_bucket{stage="run",le="1"} 0\n'
    'repro_wait_seconds_bucket{stage="run",le="2.5"} 1 # {trace_id="t\\"r\\\\x"} 1.5\n'
    'repro_wait_seconds_bucket{stage="run",le="+Inf"} 1\n'
    'repro_wait_seconds_sum{stage="run"} 1.5\n'
    'repro_wait_seconds_count{stage="run"} 1\n'
)


def golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    jobs = registry.counter("repro_jobs_total", "Jobs.", labelnames=("status",))
    jobs.inc(2, status="done")
    jobs.inc(1, status='a "b"\\c\nd')
    registry.counter("repro_empty_total", "Never incremented.")
    registry.gauge("repro_depth", 'Depth "quoted"\nnewline \\ slash.').set(7)
    ratio = registry.gauge("repro_ratio", "", labelnames=("kind",))
    ratio.set(float("inf"), kind="up")
    ratio.set(float("-inf"), kind="down")
    ratio.set(float("nan"), kind="odd")
    ratio.set(0.1 + 0.2, kind="float")
    histogram = registry.histogram(
        "repro_wait_seconds", "Wait.", buckets=(0.1, 1.0, 2.5), labelnames=("stage",)
    )
    histogram.observe(0.05, exemplar="abc123", stage="claim")
    histogram.observe(0.07, exemplar="abc124", stage="claim")
    histogram.observe(3.0, stage="claim")
    histogram.observe(1.5, exemplar='t"r\\x', stage="run")
    return registry


def small_snapshot(counter=0.0, gauge=None, observations=(), exemplar=None):
    """A real registry snapshot with one family of each type."""

    registry = MetricsRegistry()
    jobs = registry.counter("repro_jobs_total", "Jobs.", labelnames=("status",))
    if counter:
        jobs.inc(counter, status="done")
    depth = registry.gauge("repro_depth", "Depth.")
    if gauge is not None:
        depth.set(gauge)
    wait = registry.histogram("repro_wait_seconds", "Wait.", buckets=(0.1, 1.0))
    for value in observations:
        wait.observe(value, exemplar=exemplar)
    return registry.snapshot()


class TestSnapshotRendering:
    def test_snapshot_render_matches_live_registry_render(self):
        registry = golden_registry()
        assert render_snapshot_prometheus(registry.snapshot()) == GOLDEN_EXPOSITION
        assert registry.render_prometheus() == GOLDEN_EXPOSITION

    def test_exemplar_suffix_in_rendered_buckets(self):
        text = render_snapshot_prometheus(
            small_snapshot(observations=(0.05,), exemplar="tr1")
        )
        assert '# {trace_id="tr1"} 0.05' in text


class TestFilterSnapshot:
    def test_filters_by_family_name(self):
        filtered = filter_snapshot(small_snapshot(counter=1, gauge=1), "jobs_total")
        assert set(filtered) == {"repro_jobs_total"}

    def test_filters_by_rendered_labels(self):
        snapshot = small_snapshot(counter=1)
        assert filter_snapshot(snapshot, 'status="done"')
        assert not filter_snapshot(snapshot, 'status="failed"')

    def test_drops_empty_families(self):
        filtered = filter_snapshot(small_snapshot(counter=1), "no-such-metric")
        assert filtered == {}
