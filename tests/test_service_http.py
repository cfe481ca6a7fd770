"""End-to-end tests of the HTTP service over a real localhost socket."""

import json
import threading
import urllib.request

import pytest

import repro
from repro.api import Plan, PruningRequest, Session, Target
from repro.api.executor import EXECUTORS, SerialExecutor
from repro.models import ConvLayerSpec
from repro.profiling.store import shard_id_for
from repro.service import ReproServer, ServiceClient, ServiceError
from repro.service.results import step_result_payload

TARGETS = (Target("hikey-970", "acl-gemm"), Target("jetson-tx2", "cudnn"))


class HttpGateExecutor(SerialExecutor):
    """A serial executor that parks inside the step until released."""

    entered = threading.Event()
    release = threading.Event()

    def execute(self, session, plan):
        type(self).entered.set()
        assert type(self).release.wait(timeout=30.0), "gate never released"
        return super().execute(session, plan)


if "test-gate-http" not in EXECUTORS:
    EXECUTORS.register("test-gate-http", HttpGateExecutor)

LAYER = ConvLayerSpec(
    name="test.http.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)


def two_step_plan() -> Plan:
    plan = Plan()
    sweep = plan.sweep(TARGETS, LAYER, sweep_step=4)
    plan.prune(
        PruningRequest("resnet50", TARGETS[0], fraction=0.25,
                       layer_indices=(16,), sweep_step=8),
        depends_on=[sweep.id],
    )
    return plan


@pytest.fixture
def server(tmp_path):
    with ReproServer(
        profile_store=tmp_path / "profiles.jsonl",
        job_store=tmp_path / "jobs.jsonl",
    ) as running:
        yield running


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


class TestEndpoints:
    def test_healthz_reports_ok(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"]["succeeded"] == 0

    def test_version_reports_the_package_version(self, client):
        version = client.version()
        assert version["version"] == repro.__version__
        assert {"serial", "process"}.issubset(set(version["executors"]))

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/v1/nope")
        with pytest.raises(ServiceError, match="404"):
            client._request("GET", "/other/jobs")

    def test_unknown_job_is_404(self, client):
        for call in (lambda: client.job("job-missing"),
                     lambda: client.cancel("job-missing"),
                     lambda: list(client.iter_events("job-missing"))):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 404

    def test_invalid_plan_is_400_with_the_plan_error(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"version": 1, "steps": [{"id": "x", "kind": "warp"}]})
        assert excinfo.value.status == 400
        assert "unknown step kind" in str(excinfo.value)

    def test_bad_seed_executor_and_body_are_400(self, client, server):
        with pytest.raises(ServiceError, match="seed"):
            client.submit(two_step_plan(), seed=-1)
        with pytest.raises(ServiceError, match="unknown executor"):
            client.submit(two_step_plan(), executor="quantum")
        request = urllib.request.Request(
            f"{server.url}/v1/plans", data=b"not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestSubmitStreamResult:
    def test_submit_stream_and_fetch_result(self, client):
        plan = two_step_plan()
        job = client.submit(plan)
        assert job["status"] == "queued"
        assert [step["id"] for step in job["steps"]] == [step.id for step in plan]

        events = list(client.iter_events(job["id"]))
        names = [event["event"] for event in events]
        assert names[0] == "job-queued"
        assert names[-1] == "job-finished"
        assert names.count("step-started") == len(plan)
        assert names.count("step-finished") == len(plan)
        assert events[-1]["status"] == "succeeded"

        final = client.wait(job["id"], timeout=10.0)
        assert final["status"] == "succeeded"
        assert {step["status"] for step in final["steps"]} == {"succeeded"}
        assert final["simulations"] > 0

    def test_http_results_are_bitwise_identical_to_in_process_execution(self, client):
        """Acceptance: the service serves exactly Session.execute's results."""

        plan = two_step_plan()
        expected = Session().execute(plan)  # same seed (0), same executor (serial)
        job = client.submit(plan)
        final = client.wait(job["id"], timeout=120.0)
        for record in final["steps"]:
            in_process = step_result_payload(expected[record["id"]])
            # Compare through JSON: the wire crossing must lose nothing.
            assert record["result"] == json.loads(json.dumps(in_process))

    def test_jobs_listing_reflects_submissions(self, client):
        job = client.submit(two_step_plan())
        client.wait(job["id"], timeout=120.0)
        listed = client.jobs()
        assert [entry["id"] for entry in listed] == [job["id"]]
        assert listed[0]["status"] == "succeeded"

    def test_events_of_a_finished_job_replay_immediately(self, client):
        job = client.submit(two_step_plan())
        client.wait(job["id"], timeout=120.0)
        replay = list(client.iter_events(job["id"]))
        assert replay[-1]["event"] == "job-finished"

    def test_submitting_under_a_seed_forks_the_results(self, client):
        plan = Plan()
        plan.sweep(TARGETS[0], LAYER, sweep_step=8)
        base = client.wait(client.submit(plan)["id"], timeout=120.0)
        forked = client.wait(client.submit(plan, seed=9)["id"], timeout=120.0)
        assert base["steps"][0]["result"] != forked["steps"][0]["result"]


class TestResumeAfterRestart:
    def test_restart_replays_jobs_and_resubmission_simulates_nothing(self, tmp_path):
        """Acceptance: restart serves old jobs; a re-submitted plan is
        fully store-served (zero new simulator measurements)."""

        profile_path = tmp_path / "profiles.jsonl"
        jobs_path = tmp_path / "jobs.jsonl"
        plan = two_step_plan()

        with ReproServer(profile_store=profile_path, job_store=jobs_path) as first:
            client = ServiceClient(first.url)
            job = client.submit(plan)
            original = client.wait(job["id"], timeout=120.0)
            assert original["status"] == "succeeded"
            assert original["simulations"] > 0

        with ReproServer(profile_store=profile_path, job_store=jobs_path) as second:
            client = ServiceClient(second.url)
            # The finished job is served verbatim from the job store.
            replayed = client.job(job["id"])
            assert replayed["status"] == "succeeded"
            assert replayed["steps"] == original["steps"]
            # Re-submitting the identical plan replays measurements from
            # the profile store: zero new simulations, identical results.
            rerun = client.wait(client.submit(plan)["id"], timeout=120.0)
            assert rerun["status"] == "succeeded"
            assert rerun["simulations"] == 0
            assert [step["result"] for step in rerun["steps"]] == [
                step["result"] for step in original["steps"]
            ]


class TestFleetMetricsRollup:
    def make_snapshot(self, completed: float):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter(
            "repro_fleet_worker_completed_total", "Completed."
        ).inc(completed)
        return registry.snapshot()

    def test_push_then_fleet_scrape_merges_under_worker_labels(self, client):
        client.push_worker_metrics("w1", self.make_snapshot(2), label="one")
        client.push_worker_metrics("w2", self.make_snapshot(3), label="two")
        fleet = client.fleet_metrics()
        series = fleet["repro_fleet_worker_completed_total"]["series"]
        by_worker = {
            entry["labels"]["worker"]: entry["value"] for entry in series
        }
        # Earlier in-process fleet tests may have moved the same counter
        # in the process-global default registry (shown as _server), so
        # only pin down the two pushed workers.
        assert by_worker["one"] == 2.0
        assert by_worker["two"] == 3.0
        # The text exposition serves the same merged counters.
        text = client.fleet_metrics_text()
        assert 'repro_fleet_worker_completed_total{worker="one"} 2\n' in text
        assert 'repro_fleet_worker_completed_total{worker="two"} 3\n' in text

    def test_fleet_scrape_includes_the_server_under_its_own_label(self, client):
        client.health()  # move at least one server-side counter
        fleet = client.fleet_metrics()
        workers = {
            entry["labels"].get("worker")
            for family in fleet.values()
            for entry in family["series"]
        }
        assert "_server" in workers

    def test_garbage_snapshot_is_400_not_500(self, client, server):
        for bad in (b'"not a dict"', b'{"snapshot": "garbage"}',
                    b'{"snapshot": {"m": {"series": "x"}}}'):
            request = urllib.request.Request(
                f"{server.url}/v1/workers/w1/metrics", data=bad,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    def test_real_worker_counters_survive_worker_exit(self, tmp_path):
        """Acceptance: the rollup remembers counters of exited workers."""

        from repro.obs.metrics import MetricsRegistry
        from repro.service.fleet.worker import run_worker

        plan = Plan()
        plan.sweep(TARGETS[0], LAYER, sweep_step=8)
        with ReproServer(
            profile_store=tmp_path / "profiles.jsonl", executor="remote",
        ) as running:
            client = ServiceClient(running.url)
            job = client.submit(plan)
            # A private registry keeps the pushed snapshot hermetic — the
            # process-global default registry accumulates across tests.
            completed = run_worker(
                running.url, name="push-worker", poll=0.2, max_leases=1,
                registry=MetricsRegistry(),
            )
            assert completed == 1
            assert client.wait(job["id"], timeout=60.0)["status"] == "succeeded"
            fleet = client.fleet_metrics()
            series = fleet["repro_fleet_worker_completed_total"]["series"]
            by_worker = {
                entry["labels"]["worker"]: entry["value"] for entry in series
            }
            assert by_worker["push-worker"] == 1.0
            assert client.fleet()["lifetime"]["completed"] == 1


class TestTraceHeaderHardening:
    @pytest.mark.parametrize("header", [
        "total garbage", "a/b/c", "UPPER/case", "zz!!/1234", "x" * 4096,
    ])
    def test_garbage_trace_header_is_ignored_not_500(self, client, server, header):
        plan = Plan()
        plan.sweep(TARGETS[0], LAYER, sweep_step=8)
        body = json.dumps({"plan": json.loads(plan.to_json())}).encode()
        request = urllib.request.Request(
            f"{server.url}/v1/plans", data=body,
            headers={"Content-Type": "application/json", "X-Repro-Trace": header},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            job = json.loads(response.read())
            assert response.status in (200, 202)
        # The job still runs to completion: the bad context was dropped.
        assert client.wait(job["id"], timeout=120.0)["status"] == "succeeded"


class TestStoreEndpoint:
    def test_store_stats_report_per_target_and_per_shard_figures(
        self, client, server
    ):
        plan = Plan()
        plan.sweep(TARGETS[0], LAYER, sweep_step=8)
        client.wait(client.submit(plan)["id"], timeout=30.0)

        stats = client.store_stats()
        assert stats["path"] == server.queue.profile_store
        assert stats["entries"] > 0
        assert stats["by_target"]  # library@device breakdown present
        assert list(stats["shards"]) == [
            shard_id_for(TARGETS[0].device_spec.name, TARGETS[0].library)
        ]

    def test_store_endpoint_reflects_a_foreign_compaction(self, client, server):
        from repro.profiling.runner import ProfileRunner
        from repro.profiling.store import ProfileStore

        plan = Plan()
        plan.sweep(TARGETS, LAYER, sweep_step=8)
        client.wait(client.submit(plan)["id"], timeout=30.0)
        # Another process re-records one target's sweep, then compacts.
        foreign = ProfileStore(server.queue.profile_store)
        again = ProfileRunner.for_target(TARGETS[0]).measure_many(LAYER, range(1, 25))
        foreign.record(again[0].device_name, again[0].library_name, again[0].runs,
                       LAYER, again)
        superseded = client.store_stats()["superseded"]
        assert superseded > 0
        assert foreign.compact() == superseded

        stats = client.store_stats()
        assert stats["superseded"] == 0
        assert len(stats["shards"]) == len(TARGETS)
        # A resubmission against the compacted store replays everything.
        final = client.wait(client.submit(plan)["id"], timeout=30.0)
        assert final["status"] == "succeeded"
        assert final["simulations"] == 0

    def test_store_endpoint_is_404_without_a_profile_store(self):
        with ReproServer() as bare:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(bare.url, timeout=10.0).store_stats()
            assert excinfo.value.status == 404


class TestFleetStatusQuantiles:
    def test_fresh_fleet_reports_null_claim_wait_percentiles(self, client):
        """Regression: before any claim the p50/p95 must be null, not a
        quantile of some other server's process-global histogram."""

        autoscaling = client.fleet()["autoscaling"]
        assert autoscaling["claim_wait_p50_s"] is None
        assert autoscaling["claim_wait_p95_s"] is None
        assert autoscaling["pending_leases"] == 0


class TestConcurrencyAndCancel:
    def test_concurrent_submissions_from_two_client_threads(self, server):
        plans = {
            "a": Plan(), "b": Plan(),
        }
        plans["a"].sweep(TARGETS[0], LAYER, sweep_step=4)
        plans["b"].sweep(TARGETS[1], LAYER, sweep_step=4)
        outcomes = {}

        def submit_and_wait(name):
            client = ServiceClient(server.url)
            job = client.submit(plans[name])
            outcomes[name] = client.wait(job["id"], timeout=120.0)

        threads = [
            threading.Thread(target=submit_and_wait, args=(name,)) for name in plans
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert len(outcomes) == 2
        assert {job["status"] for job in outcomes.values()} == {"succeeded"}
        expected = Session().execute(plans["a"])
        step_id = plans["a"].steps[0].id
        assert outcomes["a"]["steps"][0]["result"] == step_result_payload(
            expected[step_id]
        )

    def test_cancel_endpoint_on_a_queued_job(self, server):
        # Stall the single worker so the second submission stays queued.
        HttpGateExecutor.entered.clear()
        HttpGateExecutor.release.clear()
        client = ServiceClient(server.url)
        try:
            plan = Plan()
            plan.sweep(TARGETS[0], LAYER, sweep_step=8)
            blocker = client.submit(plan, executor="test-gate-http")
            assert HttpGateExecutor.entered.wait(timeout=30.0)
            queued = client.submit(two_step_plan())
            cancelled = client.cancel(queued["id"])
            assert cancelled["status"] == "cancelled"
        finally:
            HttpGateExecutor.release.set()
        assert client.wait(blocker["id"], timeout=120.0)["status"] == "succeeded"
        events = list(client.iter_events(queued["id"]))
        assert events[-1]["event"] == "job-finished"
        assert events[-1]["status"] == "cancelled"
