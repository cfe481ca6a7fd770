"""End-to-end tests of the HTTP service over a real localhost socket."""

import json
import socket
import threading
import time
import urllib.request

import pytest

import repro
from repro.api import Plan, PruningRequest, Session, Target
from repro.models import ConvLayerSpec
from repro.profiling.store import shard_id_for
from repro.service import ReproServer, ServiceClient, ServiceError
from repro.service.results import step_result_payload

TARGETS = (Target("hikey-970", "acl-gemm"), Target("jetson-tx2", "cudnn"))


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


def submit_with_executor(client, executor):
    """POST a submission envelope that names an executor."""

    body = {"plan": two_step_plan().to_dict(), "executor": executor}
    return client._request("POST", "/v1/plans", body)


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
        assert "executors" not in version

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

    @pytest.mark.parametrize("field", [
        {"depends_on": "a"}, {"depends_on": 5}, {"params": 5},
    ], ids=["string-depends-on", "int-depends-on", "int-params"])
    def test_malformed_step_fields_are_400_and_the_client_stays_usable(
        self, client, field
    ):
        # Regression: a string ``depends_on`` was split into characters
        # and stored; a number raised TypeError, the handler thread
        # died and the client saw the connection drop.
        second = {"id": "b", "kind": "figure", "params": {"experiment": "table1"}}
        second.update(field)
        payload = {"version": 1, "steps": [
            {"id": "a", "kind": "figure", "params": {"experiment": "table1"}}, second,
        ]}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        expected = (
            "depends_on must be a list" if "depends_on" in field
            else "params must be a mapping"
        )
        assert expected in str(excinfo.value)
        assert sum(client.health()["jobs"].values()) == 0  # nothing stored

    @pytest.mark.parametrize("counts, message", [
        ("12", "must be a list of integers"),
        ([64.5, 128], "must be a list of integers"),
        (5, "must be a list of integers"),
        ([999], "outside 1..24"),
    ], ids=["string", "float", "int", "too-many"])
    def test_malformed_sweep_channel_counts_are_400_and_the_client_stays_usable(
        self, client, counts, message
    ):
        # Regression: "12" was swept as [1, 2], floats were truncated,
        # [999] failed only when the job ran, and a bare number raised
        # TypeError, so the client saw the connection drop.
        payload = Plan().to_dict()
        payload["steps"] = [{"id": "s", "kind": "sweep", "params": {
            "targets": [TARGETS[0].to_dict()], "layers": [LAYER.as_dict()],
            "channel_counts": counts,
        }}]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert message in str(excinfo.value)
        assert sum(client.health()["jobs"].values()) == 0  # nothing stored

    @pytest.mark.parametrize("kernel_size", [3.0, 2.5, True], ids=repr)
    def test_non_integer_layer_field_is_400_and_nothing_is_stored(
        self, client, kernel_size
    ):
        # Regression: kernel_size 3.0 was accepted and measured under a
        # store group of its own.
        payload = Plan().to_dict()
        layer = dict(LAYER.as_dict(), kernel_size=kernel_size)
        payload["steps"] = [{"id": "s", "kind": "sweep", "params": {
            "targets": [TARGETS[0].to_dict()], "layers": [layer],
        }}]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "kernel_size must be an integer" in str(excinfo.value)
        assert sum(client.health()["jobs"].values()) == 0  # nothing stored

    @pytest.mark.parametrize("bias", [1, "no"], ids=repr)
    def test_non_bool_layer_bias_is_400_and_nothing_is_stored(self, client, bias):
        # Regression: "bias": 1 was accepted and measured under a store
        # group apart from "bias": true's.
        payload = Plan().to_dict()
        layer = dict(LAYER.as_dict(), bias=bias)
        payload["steps"] = [{"id": "s", "kind": "sweep", "params": {
            "targets": [TARGETS[0].to_dict()], "layers": [layer],
        }}]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "bias must be a bool" in str(excinfo.value)
        assert sum(client.health()["jobs"].values()) == 0  # nothing stored

    def test_prune_request_with_string_layer_indices_is_400(self, client):
        request = PruningRequest("resnet50", TARGETS[0], fraction=0.25).to_dict()
        request["layer_indices"] = "16"
        payload = {"version": 1, "steps": [
            {"id": "p", "kind": "prune", "params": {"request": request}},
        ]}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "layer_indices must be a list of integers" in str(excinfo.value)
        assert sum(client.health()["jobs"].values()) == 0  # nothing stored

    @pytest.mark.parametrize("field, value, message", [
        ("model", 5, "model must be a string"),
        ("criterion", 5, "criterion must be a string"),
        ("target", {"device": 5, "library": "acl-gemm"}, "device must be a string"),
        ("fraction", "0.25", "fraction must be a real number"),
        ("fraction", [0.25], "fraction must be a real number"),
        ("layer_indices", [999], "are not conv layers of resnet50"),
        ("layer_indices", [-1], "are not conv layers of resnet50"),
    ], ids=["int-model", "int-criterion", "int-device", "string-fraction",
            "list-fraction", "layer-999", "layer-minus-1"])
    def test_prune_request_with_a_mistyped_field_is_400_and_the_client_stays_usable(
        self, client, field, value, message
    ):
        # Regression: these raised AttributeError or TypeError and the
        # connection dropped without a reply, or (layer indices) got a
        # 202 and the job failed later.
        request = PruningRequest("resnet50", TARGETS[0], fraction=0.25).to_dict()
        request[field] = value
        payload = {"version": 1, "steps": [
            {"id": "p", "kind": "prune", "params": {"request": request}},
        ]}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert message in str(excinfo.value)
        assert sum(client.health()["jobs"].values()) == 0  # nothing stored

    def test_nan_latency_budget_is_400(self, client):
        request = PruningRequest(
            "resnet50", TARGETS[0], strategy="latency-budget", latency_budget_ms=1.0
        ).to_dict()
        request["latency_budget_ms"] = float("nan")  # json writes NaN, and reads it
        payload = {"version": 1, "steps": [
            {"id": "p", "kind": "prune", "params": {"request": request}},
        ]}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "latency_budget_ms must be finite and positive" in str(excinfo.value)

    def test_profile_step_with_a_layer_the_model_lacks_is_400(self, client):
        payload = Plan().to_dict()
        payload["steps"] = [{"id": "p", "kind": "profile", "params": {
            "target": TARGETS[0].to_dict(), "model": "alexnet", "layer_indices": [1],
        }}]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "are not conv layers of alexnet" in str(excinfo.value)

    def test_bad_seed_executor_and_body_are_400(self, client, server):
        with pytest.raises(ServiceError, match="seed"):
            client.submit(two_step_plan(), seed=-1)
        with pytest.raises(ServiceError, match="unknown submission fields: \\['executor'\\]"):
            submit_with_executor(client, "quantum")
        request = urllib.request.Request(
            f"{server.url}/v1/plans", data=b"not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("executor", [5, ["serial"], {"name": "serial"}])
    def test_non_string_executor_is_400_and_the_client_stays_usable(
        self, client, executor
    ):
        # Regression: the registry lower-cased the value, the handler
        # thread died and the client saw the connection drop.
        with pytest.raises(ServiceError) as excinfo:
            submit_with_executor(client, executor)
        assert excinfo.value.status == 400
        assert "unknown submission fields: ['executor']" in str(excinfo.value)
        assert client.health()["status"] == "ok"

    def test_removed_submission_fields_and_executors_are_400(self, client):
        body = {"plan": two_step_plan().to_dict(), "jobs": 4}
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/plans", body)
        assert excinfo.value.status == 400
        assert "unknown submission fields: ['jobs']" in str(excinfo.value)
        # Every job runs in the server process: naming any executor,
        # even the one that runs, is refused rather than ignored.
        for name in ("process", "remote", "serial"):
            with pytest.raises(ServiceError) as excinfo:
                submit_with_executor(client, name)
            assert excinfo.value.status == 400
            assert "unknown submission fields: ['executor']" in str(excinfo.value)
        assert sum(client.health()["jobs"].values()) == 0  # nothing stored

    def test_bare_plan_with_unknown_top_level_key_is_400(self, client):
        # Regression: a bare plan body (no envelope) naming an executor
        # was accepted with 202 and run, the key silently ignored.
        body = {**two_step_plan().to_dict(), "executor": "remote"}
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/plans", body)
        assert excinfo.value.status == 400
        assert "unknown plan fields: ['executor']" in str(excinfo.value)
        assert sum(client.health()["jobs"].values()) == 0  # nothing stored

    @pytest.mark.parametrize("seed", [2**64, 18446744073709551617])
    def test_seeds_of_64_bits_or_more_are_400(self, client, seed):
        # The noise stream mixes seeds modulo 2**64: 2**64 + 1 would
        # replay seed 1's measurements under a separate store key.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(two_step_plan(), seed=seed)
        assert excinfo.value.status == 400
        assert "seed must be an integer in [0, 2**64)" in str(excinfo.value)
        assert sum(client.health()["jobs"].values()) == 0


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


class TestFleetRoutesAreGone:
    @pytest.mark.parametrize("method, path", [
        ("GET", "/v1/fleet"),
        ("POST", "/v1/workers/register"),
        ("POST", "/v1/leases/claim"),
        ("POST", "/v1/leases/lease-1/heartbeat"),
        ("POST", "/v1/leases/lease-1/complete"),
    ])
    def test_fleet_routes_are_404(self, client, method, path):
        with pytest.raises(ServiceError) as excinfo:
            client._send(method, path, {"worker": "w1"} if method == "POST" else None)
        assert excinfo.value.status == 404
        assert "no route" in str(excinfo.value)

    def test_the_worker_metrics_push_route_is_gone(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._send("POST", "/v1/workers/w1/metrics", {"snapshot": {}})
        assert excinfo.value.status == 404


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


def gate_steps(monkeypatch):
    """Stall every job inside its step until ``release`` is set."""

    entered, release = threading.Event(), threading.Event()
    original = Session._run_step

    def gated(session, step):
        entered.set()
        assert release.wait(timeout=30.0), "gate never released"
        return original(session, step)

    monkeypatch.setattr(Session, "_run_step", gated)
    return entered, release


class TestEventKeepalive:
    def test_idle_stream_emits_keepalives(self, tmp_path, monkeypatch):
        # Stall the worker inside its step: an idle running job is
        # exactly when watchers need keepalives.
        entered, release = gate_steps(monkeypatch)
        with ReproServer(
            profile_store=tmp_path / "p.jsonl",
            job_store=tmp_path / "j.jsonl",
            events_keepalive_seconds=0.2,
        ) as running:
            local = ServiceClient(running.url, timeout=30.0)
            plan = Plan()
            plan.sweep(TARGETS[0], LAYER, sweep_step=8)
            try:
                job = local.submit(plan)
                assert entered.wait(timeout=30.0)
                seen = []
                for event in local.iter_events(job["id"], keepalives=True):
                    seen.append(event["event"])
                    if seen.count("keepalive") >= 2:
                        break
                assert "keepalive" in seen
            finally:
                release.set()

            # The default stream filters them out.
            local.wait(job["id"], timeout=30.0)
            names = [e["event"] for e in local.iter_events(job["id"])]
            assert "keepalive" not in names
            assert names[-1] == "job-finished"


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

    def test_cancel_endpoint_on_a_queued_job(self, server, monkeypatch):
        # Stall the single worker inside its step so the second
        # submission stays queued.
        entered, release = gate_steps(monkeypatch)
        client = ServiceClient(server.url)
        try:
            plan = Plan()
            plan.sweep(TARGETS[0], LAYER, sweep_step=8)
            blocker = client.submit(plan)
            assert entered.wait(timeout=30.0)
            queued = client.submit(two_step_plan())
            cancelled = client.cancel(queued["id"])
            assert cancelled["status"] == "cancelled"
        finally:
            release.set()
        assert client.wait(blocker["id"], timeout=120.0)["status"] == "succeeded"
        events = list(client.iter_events(queued["id"]))
        assert events[-1]["event"] == "job-finished"
        assert events[-1]["status"] == "cancelled"


def count_connections(monkeypatch, running):
    """Count the connections ``running`` accepts from now on."""

    accepted = []
    http_server = running._http
    original = http_server.process_request

    def counting(request, client_address):
        accepted.append(request)
        original(request, client_address)

    monkeypatch.setattr(http_server, "process_request", counting)
    return accepted


def handler_threads():
    return [
        thread for thread in threading.enumerate()
        if thread.name == "repro-service-connection" and thread.is_alive()
    ]


class TestKeepAlive:
    def test_consecutive_calls_share_one_connection(self, client, server, monkeypatch):
        accepted = count_connections(monkeypatch, server)
        client.health()
        address = client._local.connection.sock.getsockname()
        assert client.version()["version"] == repro.__version__
        assert client._local.connection.sock.getsockname() == address
        assert len(accepted) == 1
        # With Nagle on, each kept-alive reply's body waits for the
        # client's delayed ACK of its headers.
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_error_replies_leave_the_client_usable(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"version": 1, "steps": [{"id": "x", "kind": "warp"}]})
        assert excinfo.value.status == 400
        assert client.health()["status"] == "ok"
        # A 404 answered before the body is read: the unread body must
        # not be parsed as the connection's next request.
        with pytest.raises(ServiceError) as excinfo:
            client._send("POST", "/v1/nope", {"padding": "x" * 64})
        assert excinfo.value.status == 404
        assert client.version()["version"] == repro.__version__

    def test_close_of_an_idle_server_is_prompt(self, tmp_path):
        # Regression: shutdown() waited for serve_forever's 0.5 s poll.
        running = ReproServer(job_store=tmp_path / "jobs.jsonl").start()
        assert ServiceClient(running.url, timeout=10.0).health()["status"] == "ok"
        time.sleep(0.1)  # let serve_forever settle into its poll
        started = time.monotonic()
        running.close()
        assert time.monotonic() - started < 0.2

    def test_close_ends_kept_alive_connections(self, tmp_path):
        running = ReproServer(job_store=tmp_path / "jobs.jsonl").start()
        client = ServiceClient(running.url, timeout=10.0)
        assert client.health()["status"] == "ok"
        assert handler_threads()  # the kept-alive connection's handler
        started = time.monotonic()
        running.close()
        assert time.monotonic() - started < 5.0  # not the idle timeout
        assert handler_threads() == []
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    def test_threads_sharing_a_client_get_their_own_replies(
        self, client, server, monkeypatch
    ):
        job_ids = [
            server.store.create({"version": 1, "steps": []}).id for _ in range(8)
        ]
        accepted = count_connections(monkeypatch, server)
        mismatches = []

        def fetch(job_id):
            for _ in range(10):
                if client.job(job_id)["id"] != job_id:
                    mismatches.append(job_id)

        threads = [threading.Thread(target=fetch, args=(job_id,)) for job_id in job_ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert mismatches == []
        assert len(accepted) == len(threads)

    def test_a_connection_the_server_closed_while_idle_is_replaced(
        self, client, server, monkeypatch
    ):
        from repro.service import server as server_module

        monkeypatch.setattr(server_module._ServiceHandler, "timeout", 0.2)
        accepted = count_connections(monkeypatch, server)
        client.health()
        stale = client._local.connection.sock
        deadline = time.monotonic() + 10.0
        while handler_threads() and time.monotonic() < deadline:
            time.sleep(0.05)  # the server times the idle connection out
        assert handler_threads() == []
        assert client.version()["version"] == repro.__version__
        assert client._local.connection.sock is not stale
        assert len(accepted) == 2


def small_sweep(step: int = 8) -> Plan:
    plan = Plan()
    plan.sweep(TARGETS[0], LAYER, sweep_step=step)
    return plan


class TestChunkedEventStream:
    def test_a_thread_running_many_jobs_opens_two_connections(
        self, client, server, monkeypatch
    ):
        accepted = count_connections(monkeypatch, server)
        for step in (4, 6, 8, 4, 6):
            job = client.submit(small_sweep(step))
            for event in client.iter_events(job["id"]):
                if event["event"] == "job-finished":
                    break
            assert client.job(job["id"])["status"] == "succeeded"
            assert client.wait(job["id"], timeout=30.0)["status"] == "succeeded"
        # One request connection and one stream connection.
        assert len(accepted) == 2
        assert len(client._local.streams) == 1

    def test_the_stream_is_chunked_and_ends_with_the_job(self, client):
        job = client.wait(client.submit(small_sweep())["id"], timeout=30.0)
        host, port = client._netloc.split(":")
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            sock.sendall(
                f"GET /v1/jobs/{job['id']}/events HTTP/1.1\r\nHost: x\r\n\r\n".encode()
            )
            received = b""
            while not received.endswith(b"\r\n0\r\n\r\n"):
                data = sock.recv(65536)
                assert data, received
                received += data
        head, _, body = received.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        assert b"Connection: close" not in head
        assert body.count(b"job-finished") == 1

    def test_an_http_1_0_stream_is_read_to_eof(self, client):
        job = client.wait(client.submit(small_sweep())["id"], timeout=30.0)
        host, port = client._netloc.split(":")
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            sock.sendall(f"GET /v1/jobs/{job['id']}/events HTTP/1.0\r\n\r\n".encode())
            received = b""
            while data := sock.recv(65536):
                received += data
        head, _, body = received.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding" not in head
        lines = [json.loads(line) for line in body.splitlines()]
        assert lines[0]["event"] == "job-queued"
        assert lines[-1]["event"] == "job-finished"

    def test_a_stream_abandoned_mid_job_closes_its_connection(
        self, client, server, monkeypatch
    ):
        entered, release = gate_steps(monkeypatch)
        accepted = count_connections(monkeypatch, server)
        try:
            job = client.submit(small_sweep())
            assert entered.wait(timeout=30.0)
            events = client.iter_events(job["id"])
            for event in events:
                if event["event"] == "step-started":
                    break
            connection = events.gi_frame.f_locals["connection"]
            assert connection.sock is not None
            events.close()
            assert connection.sock is None
            assert client._local.streams == []
        finally:
            release.set()
        names = [event["event"] for event in client.iter_events(job["id"])]
        assert names[0] == "job-queued" and names[-1] == "job-finished"
        # request, abandoned stream, fresh stream
        assert len(accepted) == 3

    def test_cancel_inside_an_event_loop(self, client, monkeypatch):
        entered, release = gate_steps(monkeypatch)
        try:
            blocker = client.submit(small_sweep())
            assert entered.wait(timeout=30.0)
            queued = client.submit(two_step_plan())
            seen = []
            for event in client.iter_events(queued["id"], timeout=30.0):
                seen.append(event)
                if event["event"] == "job-queued":
                    assert client.cancel(queued["id"])["status"] == "cancelled"
            assert seen[-1]["event"] == "job-finished"
            assert seen[-1]["status"] == "cancelled"
        finally:
            release.set()
        assert client.wait(blocker["id"], timeout=60.0)["status"] == "succeeded"

    def test_a_stream_connection_the_server_timed_out_is_replaced(
        self, client, server, monkeypatch
    ):
        from repro.service import server as server_module

        monkeypatch.setattr(server_module._ServiceHandler, "timeout", 0.2)
        job = client.wait(client.submit(small_sweep())["id"], timeout=30.0)
        (stale,) = [connection.sock for connection in client._local.streams]
        deadline = time.monotonic() + 10.0
        while handler_threads() and time.monotonic() < deadline:
            time.sleep(0.05)  # the server times the idle connections out
        assert handler_threads() == []
        accepted = count_connections(monkeypatch, server)
        names = [event["event"] for event in client.iter_events(job["id"])]
        assert names[-1] == "job-finished"
        (fresh,) = client._local.streams
        assert fresh.sock is not stale
        assert len(accepted) == 1  # the stale stream's replacement

    def test_close_ends_a_running_stream(self, tmp_path, monkeypatch):
        entered, release = gate_steps(monkeypatch)
        running = ReproServer(job_store=tmp_path / "jobs.jsonl").start()
        client = ServiceClient(running.url, timeout=10.0)
        seen, ended = [], threading.Event()

        def watch():
            try:
                for event in client.iter_events(job["id"]):
                    seen.append(event["event"])
            except ServiceError:
                pass
            ended.set()

        closer = threading.Thread(target=running.close)
        try:
            job = client.submit(small_sweep())
            assert entered.wait(timeout=30.0)
            watcher = threading.Thread(target=watch)
            watcher.start()
            deadline = time.monotonic() + 10.0
            while "step-started" not in seen and time.monotonic() < deadline:
                time.sleep(0.01)
            assert "step-started" in seen
            closer.start()
            assert ended.wait(timeout=5.0)
            assert "job-finished" not in seen
        finally:
            release.set()
            if closer.ident is not None:
                closer.join(timeout=30.0)
            running.close()
        watcher.join(timeout=5.0)

    def test_wait_keeps_its_timeout_error(self, client, monkeypatch):
        entered, release = gate_steps(monkeypatch)
        try:
            job = client.submit(small_sweep())
            assert entered.wait(timeout=30.0)
            started = time.monotonic()
            with pytest.raises(
                ServiceError, match=r"timed out waiting for job .* \(still running\)"
            ):
                client.wait(job["id"], timeout=0.3)
            assert time.monotonic() - started < 5.0
        finally:
            release.set()
        assert client.wait(job["id"], timeout=30.0)["status"] == "succeeded"
