"""Tests for repro.obs.traceview: offline span-tree reconstruction.

The trace file is a multi-process artifact — spans land in completion
order from the client, the server and any ``run-plan`` — so these
tests pin the parts that make ``trace ls``/``trace show`` trustworthy:
garbage tolerance in the loader, parent/child stitching (including
orphaned parents surfacing as roots), stable render ordering and the
exemplar cross-reference against a metrics snapshot.
"""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceWriter, Tracer
from repro.obs.traceview import (
    TraceViewError,
    build_tree,
    exemplar_references,
    list_traces,
    load_spans,
    render_trace,
    render_tree,
)


def span(name, trace, span_id, parent=None, started=0.0, duration=1.0, **extra):
    record = {
        "name": name, "trace": trace, "span": span_id,
        "started_at": started, "duration_ms": duration, "status": "ok",
    }
    if parent is not None:
        record["parent"] = parent
    record.update(extra)
    return record


class TestLoadSpans:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceViewError, match="not found"):
            load_spans(tmp_path / "absent.jsonl")

    def test_skips_garbage_and_truncated_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = span("job", "t1", "s1")
        path.write_text(
            "\n".join([
                json.dumps(good),
                '{"name": "job", "trace": "t1", "span"',  # truncated tail
                "not json at all",
                '"a bare string"',
                json.dumps({"trace": "t1", "span": "s2"}),  # no name
                json.dumps({"name": "x", "trace": 7, "span": "s3"}),  # non-str
                "",
            ]),
            encoding="utf-8",
        )
        assert load_spans(path) == [good]

    def test_real_writer_output_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(writer=TraceWriter(path))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        loaded = load_spans(path)
        assert [record["name"] for record in loaded] == ["inner", "outer"]


class TestListTraces:
    def test_one_summary_per_trace_newest_first(self):
        spans = [
            span("old-root", "t-old", "s1", started=10.0, duration=100.0),
            span("new-root", "t-new", "s2", started=20.0, duration=50.0),
            span("child", "t-new", "s3", parent="s2", started=20.01, duration=5.0),
        ]
        summaries = list_traces(spans)
        by_trace = {row["trace"]: row for row in summaries}
        new, old = by_trace["t-new"], by_trace["t-old"]
        assert summaries == [new, old]  # newest first
        assert (new["root"], new["spans"], new["errors"]) == ("new-root", 2, 0)
        assert (old["root"], old["spans"]) == ("old-root", 1)

    def test_duration_is_the_wall_window_across_spans(self):
        spans = [
            span("root", "t1", "s1", started=1.0, duration=10.0),
            span("late", "t1", "s2", parent="s1", started=2.0, duration=500.0),
        ]
        (summary,) = list_traces(spans)
        # 1.0s .. 2.5s -> 1500 ms, not the root's own 10 ms.
        assert summary["duration_ms"] == pytest.approx(1500.0)

    def test_errors_counted_and_orphans_still_get_a_root(self):
        spans = [
            span("only-child", "t1", "s1", parent="gone", status="error"),
        ]
        (summary,) = list_traces(spans)
        assert summary["errors"] == 1
        assert summary["root"] == "only-child"


class TestBuildTree:
    def test_unknown_trace_raises(self):
        with pytest.raises(TraceViewError, match="no spans"):
            build_tree([span("a", "t1", "s1")], "t-missing")

    def test_parent_child_stitching_across_file_order(self):
        # Completion order: children first, like a real writer produces.
        spans = [
            span("leaf", "t1", "s3", parent="s2", started=3.0),
            span("mid", "t1", "s2", parent="s1", started=2.0),
            span("root", "t1", "s1", started=1.0),
            span("other-trace", "t2", "s9"),
        ]
        (root,) = build_tree(spans, "t1")
        assert root["span"]["name"] == "root"
        (mid,) = root["children"]
        assert mid["span"]["name"] == "mid"
        assert [node["span"]["name"] for node in mid["children"]] == ["leaf"]

    def test_orphaned_parent_becomes_a_root(self):
        spans = [
            span("root", "t1", "s1", started=1.0),
            span("orphan", "t1", "s9", parent="never-written", started=2.0),
        ]
        roots = build_tree(spans, "t1")
        assert [node["span"]["name"] for node in roots] == ["root", "orphan"]

    def test_children_sorted_by_start_time(self):
        spans = [
            span("root", "t1", "s1", started=0.0),
            span("second", "t1", "s3", parent="s1", started=2.0),
            span("first", "t1", "s2", parent="s1", started=1.0),
        ]
        (root,) = build_tree(spans, "t1")
        assert [node["span"]["name"] for node in root["children"]] == [
            "first", "second",
        ]

    def test_duplicate_span_ids_keep_the_first_record(self):
        spans = [
            span("original", "t1", "s1"),
            span("retry", "t1", "s1"),
        ]
        (root,) = build_tree(spans, "t1")
        assert root["span"]["name"] == "original"


class TestRendering:
    def test_indentation_error_flag_and_attrs(self):
        spans = [
            span("root", "t1", "s1", started=1.0, duration=1500.0),
            span("child", "t1", "s2", parent="s1", started=1.1, duration=2.5,
                 status="error", attrs={"step": "sweep-1", "n": 3}),
        ]
        text = render_tree(build_tree(spans, "t1"))
        assert text.splitlines() == [
            "root  1.50s",
            "  child  2.5ms !  [n=3 step=sweep-1]",
        ]

    def test_render_trace_header_and_exemplar_section(self):
        registry = MetricsRegistry()
        wait = registry.histogram("repro_wait_seconds", "Wait.", buckets=(1.0,))
        wait.observe(0.5, exemplar="t1")
        spans = [span("root", "t1", "s1")]
        text = render_trace(spans, "t1", snapshot=registry.snapshot())
        assert text.startswith("trace t1  (1 spans)\n")
        assert "metric exemplars referencing this trace:" in text
        assert "repro_wait_seconds le=1.0  value=0.5" in text

    def test_render_trace_without_matching_exemplars_has_no_section(self):
        registry = MetricsRegistry()
        registry.histogram("repro_wait_seconds", "Wait.", buckets=(1.0,)).observe(
            0.5, exemplar="other-trace"
        )
        text = render_trace([span("root", "t1", "s1")], "t1",
                            snapshot=registry.snapshot())
        assert "exemplars" not in text


class TestExemplarReferences:
    def test_matches_only_the_requested_trace(self):
        registry = MetricsRegistry()
        wait = registry.histogram(
            "repro_wait_seconds", "Wait.", buckets=(1.0, 5.0), labelnames=("stage",)
        )
        wait.observe(0.5, exemplar="t-yes", stage="claim")
        wait.observe(3.0, exemplar="t-no", stage="claim")
        (row,) = exemplar_references(registry.snapshot(), "t-yes")
        assert row == {
            "metric": "repro_wait_seconds",
            "labels": {"stage": "claim"},
            "le": "1.0",
            "value": 0.5,
        }

    def test_empty_snapshot_yields_no_rows(self):
        assert exemplar_references({}, "t1") == []
