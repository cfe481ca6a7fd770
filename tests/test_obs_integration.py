"""Integration tests for the observability layer: inertness and exposure.

The contract under test, in order of importance:

1. **Inertness** — tracing must never change results.  Traced and
   untraced executions of the same plan are bitwise identical, in
   process and as a queued service job.
2. **Stitching** — the serving queue's job and step spans land under the
   submitter's trace id, below its span, when the ``X-Repro-Trace``
   header is propagated.
3. **Exposure** — ``/v1/metrics`` (Prometheus text) and
   ``/v1/metrics.json`` serve the same snapshot, the client wraps both,
   and the CLI grew ``metrics``, ``run-plan --trace`` and per-step
   ``submit --watch`` timings.
"""

import json

import pytest

from repro.api import Plan, Session, Target
from repro.experiments.cli import main as cli_main
from repro.models import ConvLayerSpec
from repro.obs.metrics import default_registry
from repro.obs.trace import SpanContext, TraceWriter, Tracer
from repro.service import ReproServer, ServiceClient
from repro.service.results import step_result_payload

TARGET = Target("hikey-970", "acl-gemm")

LAYER = ConvLayerSpec(
    name="test.obs.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)


def small_plan() -> Plan:
    plan = Plan()
    plan.sweep(TARGET, LAYER, sweep_step=8)
    plan.sweep(
        TARGET,
        ConvLayerSpec(
            name="test.obs.second", in_channels=24, out_channels=32,
            kernel_size=1, stride=1, padding=0, input_hw=14,
        ),
        sweep_step=8,
    )
    return plan


def payloads(results, plan):
    return {step.id: step_result_payload(results[step.id]) for step in plan}


@pytest.fixture
def server(tmp_path):
    with ReproServer(
        profile_store=tmp_path / "profiles.jsonl",
        job_store=tmp_path / "jobs.jsonl",
        trace=tmp_path / "server-trace.jsonl",
    ) as running:
        yield running


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


# ----------------------------------------------------------------------
# Inertness: traced == untraced, bitwise
# ----------------------------------------------------------------------
class TestTracingIsInert:
    @pytest.mark.parametrize("backend", ["serial", "queued"])
    def test_local_backends_bitwise_identical(self, backend, tmp_path, run_queued):
        def run(trace=None):
            if backend == "queued":
                job = run_queued(plan, trace=trace)
                assert job.status == "succeeded", job.error
                return {record.id: record.result for record in job.steps}
            tracer = Tracer(writer=TraceWriter(trace) if trace else None)
            return payloads(Session(seed=0, tracer=tracer).execute(plan, backend), plan)

        plan = small_plan()
        trace_path = tmp_path / "trace.jsonl"
        untraced = run()
        traced = run(trace_path)
        assert traced == untraced
        assert trace_path.read_text().count("\n") > 0

    def test_served_job_traced_matches_serial_untraced(self, server, client):
        plan = small_plan()
        context = SpanContext(trace_id="feedbeefcafe0123", span_id="ab01cd23")
        job = client.submit(plan, trace=context)
        final = client.wait(job["id"], timeout=120.0)
        assert final["status"] == "succeeded", final.get("error")
        assert final["simulations"] > 0  # measured in the server process

        serial = payloads(Session(seed=0).execute(plan, executor="serial"), plan)
        assert {step["id"]: step["result"] for step in final["steps"]} == serial

        # Stitching: the job span hangs under the submitter's span and
        # every step span under the job span, all in the submitted trace.
        spans = [
            json.loads(line)
            for line in server.queue.trace_writer.path.read_text().splitlines()
        ]
        assert {span["trace"] for span in spans} == {context.trace_id}
        (job_span,) = [span for span in spans if span["name"] == "job"]
        assert job_span["parent"] == context.span_id
        assert job_span["attrs"] == {"job": job["id"], "seed": 0}
        steps = [span for span in spans if span["name"] == "executor.step"]
        assert [span["attrs"]["step"] for span in steps] == [step.id for step in plan]
        assert {span["parent"] for span in steps} == {job_span["span"]}

    def test_a_finished_job_has_its_span_in_the_trace_file(self, server, client):
        # The job span closes before job-finished is published, so a
        # client never sees a finished job whose span is still unwritten.
        trace_path = server.queue.trace_writer.path
        plan = Plan()
        plan.sweep(TARGET, LAYER, sweep_step=8)
        for _ in range(20):
            job = client.submit(plan)
            for event in client.iter_events(job["id"], timeout=60.0):
                if event["event"] == "job-finished":
                    break
            spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
            assert any(
                span["name"] == "job" and span["attrs"]["job"] == job["id"]
                for span in spans
            ), job["id"]


# ----------------------------------------------------------------------
# Exposure: /v1/metrics, /v1/metrics.json, the client
# ----------------------------------------------------------------------
class TestMetricsExposure:
    def test_text_and_json_serve_the_same_snapshot(self, server, client):
        job = client.submit(small_plan())
        assert client.wait(job["id"], timeout=120.0)["status"] == "succeeded"

        snapshot = client.metrics()
        text = client.metrics_text()
        assert snapshot == default_registry().snapshot()
        for name in (
            "repro_jobs_submitted_total",
            "repro_jobs_finished_total",
            "repro_job_steps_total",
            "repro_profile_simulations_total",
            "repro_store_appends_total",
            "repro_executor_steps_total",
        ):
            assert name in snapshot, name
            assert f"# TYPE {name} " in text, name
        # Scalar series render as "<name>{labels} <value>" in the text
        # exposition with the value the JSON snapshot reports.
        (series,) = snapshot["repro_jobs_submitted_total"]["series"]
        assert f"repro_jobs_submitted_total {int(series['value'])}\n" in text

        finished = snapshot["repro_jobs_finished_total"]["series"]
        by_status = {entry["labels"]["status"]: entry["value"] for entry in finished}
        assert by_status.get("succeeded", 0) >= 1


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliSurface:
    def test_metrics_verb_prints_prometheus_text(self, server, capsys):
        assert cli_main(["metrics", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_jobs_submitted_total counter" in out

    def test_metrics_verb_reports_unreachable_service(self, capsys):
        assert cli_main(["metrics", "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_watch_prints_per_step_timings(self, server, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan = small_plan()
        plan_path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        code = cli_main(
            ["submit", str(plan_path), "--url", server.url, "--watch"]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The CI-grepped accounting line keeps its exact shape...
        assert "; simulated " in out and " configuration(s)" in out
        # ...and every step now reports its wall timing from the record.
        for step in plan:
            (line,) = [
                line for line in out.splitlines()
                if line.startswith(f"  step {step.id} ")
            ]
            assert "succeeded" in line
            assert line.endswith(" ms")

    def test_run_plan_trace_writes_spans(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(small_plan().to_dict()), encoding="utf-8")
        trace_path = tmp_path / "trace.jsonl"
        code = cli_main(
            ["run-plan", str(plan_path), "--trace", str(trace_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"span(s) to {trace_path}" in out
        spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
        names = {span["name"] for span in spans}
        assert "run-plan" in names and "executor.step" in names
        (root,) = [span for span in spans if span["name"] == "run-plan"]
        assert all(span["trace"] == root["trace"] for span in spans)
