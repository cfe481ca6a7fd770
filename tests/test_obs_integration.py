"""Integration tests for the observability layer: inertness and exposure.

The contract under test, in order of importance:

1. **Inertness** — tracing must never change results.  Traced and
   untraced executions of the same plan are bitwise identical, across
   serial execution and the fleet prefetch.
2. **Stitching** — spans recorded by the CLI client, the serving queue,
   its fleet prefetch and fleet workers all land under one trace id when the
   ``X-Repro-Trace`` header is propagated.
3. **Exposure** — ``/v1/metrics`` (Prometheus text) and
   ``/v1/metrics.json`` serve the same snapshot, the client wraps both,
   ``/v1/fleet`` carries the autoscaling signals, and the CLI grew
   ``metrics``, ``run-plan --trace`` and per-step ``submit --watch``
   timings.
"""

import json
import threading

import pytest

from repro.api import Plan, Session, Target
from repro.experiments.cli import main as cli_main
from repro.models import ConvLayerSpec
from repro.obs.metrics import default_registry
from repro.obs.trace import SpanContext, TraceWriter, Tracer
from repro.service import FleetWorker, ReproServer, ServiceClient
from repro.service.results import step_result_payload

TARGET = Target("hikey-970", "acl-gemm")

LAYER = ConvLayerSpec(
    name="test.obs.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)


def small_plan() -> Plan:
    plan = Plan()
    base = plan.sweep(TARGET, LAYER, sweep_step=8)
    plan.sweep(
        TARGET,
        ConvLayerSpec(
            name="test.obs.second", in_channels=24, out_channels=32,
            kernel_size=1, stride=1, padding=0, input_hw=14,
        ),
        sweep_step=8,
        depends_on=[base.id],
    )
    return plan


def payloads(results, plan):
    return {step.id: step_result_payload(results[step.id]) for step in plan}


@pytest.fixture
def server(tmp_path):
    with ReproServer(
        profile_store=tmp_path / "profiles.jsonl",
        job_store=tmp_path / "jobs.jsonl",
        lease_ttl=0.5,
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
    @pytest.mark.parametrize("backend", ["serial", "remote"])
    def test_local_backends_bitwise_identical(self, backend, tmp_path, remote_executor):
        def run(session):
            if backend == "remote":
                return payloads(remote_executor.execute(session, plan), plan)
            return payloads(session.execute(plan, backend), plan)

        plan = small_plan()
        untraced = run(Session(seed=0))
        tracer = Tracer(writer=TraceWriter(tmp_path / "trace.jsonl"))
        traced = run(Session(seed=0, tracer=tracer))
        assert traced == untraced
        assert tracer.writer.written > 0

    def test_remote_fleet_traced_matches_serial_untraced(
        self, server, client, tmp_path
    ):
        plan = small_plan()
        trace_path = tmp_path / "worker-trace.jsonl"
        worker = FleetWorker(
            url=server.url,
            name="obs-w",
            poll=0.2,
            tracer=Tracer(writer=TraceWriter(trace_path)),
        )
        stop = threading.Event()
        thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
        thread.start()
        context = SpanContext(trace_id="feedbeefcafe0123", span_id="ab01cd23")
        try:
            job = client.submit(plan, executor="remote", trace=context)
            final = client.wait(job["id"], timeout=120.0)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert final["status"] == "succeeded", final.get("error")
        assert final["simulations"] == 0  # every measurement came from the fleet

        serial = payloads(Session(seed=0).execute(plan, executor="serial"), plan)
        by_id = {step["id"]: step for step in final["steps"]}
        for step in plan:
            assert by_id[step.id]["result"] == serial[step.id]

        # Stitching: server spans (job/prefetch/step) and worker spans
        # (worker.measure) all share the submitted trace id.
        server_spans = [
            json.loads(line)
            for line in (server.queue.trace_writer.path).read_text().splitlines()
        ]
        worker_spans = [
            json.loads(line) for line in trace_path.read_text().splitlines()
        ]
        names = {span["name"] for span in server_spans}
        assert {"job", "fleet.prefetch", "executor.step"} <= names
        assert {span["name"] for span in worker_spans} == {"worker.measure"}
        for span in server_spans + worker_spans:
            assert span["trace"] == context.trace_id
        (job_span,) = [span for span in server_spans if span["name"] == "job"]
        assert job_span["parent"] == context.span_id


# ----------------------------------------------------------------------
# Exposure: /v1/metrics, /v1/metrics.json, /v1/fleet, the client
# ----------------------------------------------------------------------
class TestMetricsExposure:
    def test_text_and_json_serve_the_same_snapshot(self, server, client):
        job = client.submit(small_plan(), executor="serial")
        assert client.wait(job["id"], timeout=120.0)["status"] == "succeeded"

        snapshot = client.metrics()
        text = client.metrics_text()
        assert snapshot == default_registry().snapshot()
        for name in (
            "repro_jobs_submitted_total",
            "repro_jobs_finished_total",
            "repro_job_steps_total",
            "repro_session_cache_misses_total",
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

    def test_fleet_status_carries_autoscaling_signals(self, server, client):
        status = client.fleet()
        signals = status["autoscaling"]
        assert set(signals) == {
            "pending_leases",
            "busy_workers",
            "idle_workers",
            "claim_wait_p50_s",
            "claim_wait_p95_s",
        }
        assert signals["pending_leases"] == 0
        assert signals["busy_workers"] == 0

        worker = client.register_worker("idle-one")["worker"]
        assert client.claim_lease(worker, timeout=0.0) is None
        signals = client.fleet()["autoscaling"]
        assert signals["idle_workers"] == 1
        # The claim above was recorded in the wait histogram's process-wide
        # series, so the percentile is a number once any claim ran.
        assert signals["claim_wait_p50_s"] is None or signals["claim_wait_p50_s"] >= 0


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
