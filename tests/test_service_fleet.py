"""Tests for the distributed worker fleet: leases, workers, remote executor.

Three layers, matching the subsystem's structure:

- :class:`~repro.service.fleet.leases.LeaseManager` unit tests — claim
  FIFO, heartbeat expiry, crash-safe re-queue, attempt exhaustion and
  the zombie fence (stale completions rejected).
- HTTP route tests — the ``/v1/workers`` + ``/v1/leases`` surface over
  a real localhost socket, including error-code mapping.
- End-to-end: plans submitted with ``--executor remote`` against a live
  fleet are bitwise identical to serial execution, survive a worker
  crash mid-lease with every configuration simulated exactly once, and
  cancel cleanly mid-wait.
"""

import threading
import time

import pytest

from repro.api import ExecutionError, Plan, PruningRequest, Session, Target
from repro.models import ConvLayerSpec
from repro.profiling import Sweep
from repro.profiling.store import ProfileStore
from repro.service import FleetWorker, ReproServer, ServiceClient, ServiceError
from repro.service.fleet.leases import (
    LeaseError,
    LeaseFailedError,
    LeaseManager,
    LeaseWaitAborted,
    StaleLeaseError,
    UnknownLeaseError,
)
from repro.service.fleet.worker import _measure_worker
from repro.service.results import step_result_payload

TARGETS = (Target("hikey-970", "acl-gemm"), Target("jetson-tx2", "cudnn"))

LAYER = ConvLayerSpec(
    name="test.fleet.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)


def one_task():
    """One valid (target dict, spec dict, counts, seed) lease task."""

    return (TARGETS[0].to_dict(), LAYER.as_dict(), [8, 16], 0)


def measure(task):
    """The honest payload a worker would post back for ``task``."""

    return [m.as_dict() for m in Sweep.from_columns(_measure_worker(*task))]


def diamond_plan(sweep_step: int = 8) -> Plan:
    plan = Plan()
    base = plan.sweep(TARGETS, LAYER, sweep_step=sweep_step)
    left = plan.sweep(
        TARGETS[0],
        ConvLayerSpec(
            name="test.fleet.left", in_channels=32, out_channels=48,
            kernel_size=3, stride=1, padding=1, input_hw=14,
        ),
        sweep_step=sweep_step,
        depends_on=[base.id],
    )
    right = plan.sweep(
        TARGETS[1],
        ConvLayerSpec(
            name="test.fleet.right", in_channels=32, out_channels=48,
            kernel_size=1, stride=1, padding=0, input_hw=14,
        ),
        sweep_step=sweep_step,
        depends_on=[base.id],
    )
    plan.prune(
        PruningRequest("resnet50", TARGETS[0], fraction=0.25,
                       layer_indices=(16,), sweep_step=16),
        depends_on=[left.id, right.id],
    )
    return plan


# ----------------------------------------------------------------------
# LeaseManager unit tests
# ----------------------------------------------------------------------
class TestLeaseManager:
    def test_publish_claim_complete_wait_roundtrip(self):
        manager = LeaseManager(lease_ttl=5.0)
        task = one_task()
        (lease_id,) = manager.publish([task], job_id="job-1")
        worker = manager.register_worker("w1")["worker"]

        lease = manager.claim(worker)
        assert lease["lease"] == lease_id
        assert lease["counts"] == [8, 16]
        assert lease["job"] == "job-1"
        assert lease["attempt"] == 1

        payloads = measure(task)
        manager.complete(lease_id, worker, measurements=payloads)
        done = manager.wait([lease_id], timeout=1.0)
        assert done[lease_id] == payloads
        assert manager.completed == 1

    def test_claims_are_fifo(self):
        manager = LeaseManager(lease_ttl=5.0)
        first, second = manager.publish([one_task(), one_task()])
        worker = manager.register_worker()["worker"]
        assert manager.claim(worker)["lease"] == first
        assert manager.claim(worker)["lease"] == second
        assert manager.claim(worker) is None

    def test_claim_returns_none_when_idle(self):
        manager = LeaseManager(lease_ttl=5.0)
        worker = manager.register_worker()["worker"]
        started = time.monotonic()
        assert manager.claim(worker, timeout=0.2) is None
        assert time.monotonic() - started >= 0.2

    def test_missed_heartbeats_requeue_the_lease(self):
        manager = LeaseManager(lease_ttl=0.1)
        (lease_id,) = manager.publish([one_task()])
        dead = manager.register_worker("dead")["worker"]
        live = manager.register_worker("live")["worker"]

        assert manager.claim(dead)["lease"] == lease_id
        time.sleep(0.15)  # past the deadline without a heartbeat
        reclaimed = manager.claim(live)
        assert reclaimed["lease"] == lease_id
        assert reclaimed["attempt"] == 2
        assert manager.expired == 1

    def test_heartbeat_extends_the_deadline(self):
        manager = LeaseManager(lease_ttl=0.3)
        (lease_id,) = manager.publish([one_task()])
        worker = manager.register_worker()["worker"]
        manager.claim(worker)
        for _ in range(3):
            time.sleep(0.15)
            manager.heartbeat(lease_id, worker)
        # 0.45s elapsed > ttl, but the beats kept the lease alive.
        assert manager.status()["leases"]["claimed"] == 1
        assert manager.expired == 0

    def test_exhausted_attempts_fail_the_lease_and_the_wait(self):
        manager = LeaseManager(lease_ttl=0.05, max_attempts=2)
        (lease_id,) = manager.publish([one_task()])
        worker = manager.register_worker()["worker"]
        for _ in range(2):
            assert manager.claim(worker, timeout=1.0)["lease"] == lease_id
            time.sleep(0.08)  # let it expire
        with pytest.raises(LeaseFailedError, match="failed permanently"):
            manager.wait([lease_id], timeout=1.0)
        assert manager.failed == 1

    def test_stale_completion_is_fenced(self):
        manager = LeaseManager(lease_ttl=0.1)
        task = one_task()
        (lease_id,) = manager.publish([task])
        zombie = manager.register_worker("zombie")["worker"]
        honest = manager.register_worker("honest")["worker"]

        manager.claim(zombie)
        time.sleep(0.15)
        manager.claim(honest)  # re-queued and re-claimed

        payloads = measure(task)
        with pytest.raises(StaleLeaseError):
            manager.complete(lease_id, zombie, measurements=payloads)
        manager.complete(lease_id, honest, measurements=payloads)
        assert manager.wait([lease_id], timeout=1.0)[lease_id] == payloads
        assert manager.completed == 1  # exactly one adoption

    def test_error_completion_requeues(self):
        manager = LeaseManager(lease_ttl=5.0)
        (lease_id,) = manager.publish([one_task()])
        worker = manager.register_worker()["worker"]
        manager.claim(worker)
        result = manager.complete(lease_id, worker, error="boom")
        assert result["status"] == "pending"
        assert manager.claim(worker)["attempt"] == 2

    def test_completion_payload_validation(self):
        manager = LeaseManager(lease_ttl=5.0)
        (lease_id,) = manager.publish([one_task()])
        worker = manager.register_worker()["worker"]
        manager.claim(worker)
        with pytest.raises(LeaseError, match="either measurements or an error"):
            manager.complete(lease_id, worker)
        with pytest.raises(LeaseError, match="either measurements or an error"):
            manager.complete(lease_id, worker, measurements=[], error="x")
        with pytest.raises(LeaseError, match="malformed measurement"):
            manager.complete(lease_id, worker, measurements=[{"nope": 1}])
        with pytest.raises(LeaseError, match="at least one measurement"):
            manager.complete(lease_id, worker, measurements=[])
        # Valid measurements that answer another question than the lease's:
        # another layer, another target, another run count, other counts.
        honest = measure(one_task())
        for dishonest in (
            [dict(row, layer_name="resnet50.conv3") for row in honest],
            measure((TARGETS[1].to_dict(), LAYER.as_dict(), [8, 16], 0)),
            [dict(row, runs=7) for row in honest],
            honest[:1],
            [*honest, dict(honest[0], out_channels=9999)],
        ):
            with pytest.raises(LeaseError, match="do not fit lease"):
                manager.complete(lease_id, worker, measurements=dishonest)
        # Failed validation must not release the lease: it stays claimed
        # (and will expire) instead of poisoning the waiting executor.
        assert manager.status()["leases"]["claimed"] == 1
        assert manager.complete(lease_id, worker, measurements=honest)["status"] == "completed"

    def test_wait_abort_raises(self):
        manager = LeaseManager(lease_ttl=5.0)
        lease_ids = manager.publish([one_task()])
        with pytest.raises(LeaseWaitAborted):
            manager.wait(lease_ids, abort=lambda: True, poll=0.01)

    def test_wait_timeout_raises(self):
        manager = LeaseManager(lease_ttl=5.0)
        lease_ids = manager.publish([one_task()])
        with pytest.raises(LeaseError, match="timed out"):
            manager.wait(lease_ids, timeout=0.1)

    def test_revoke_forgets_leases(self):
        manager = LeaseManager(lease_ttl=5.0)
        (lease_id,) = manager.publish([one_task()])
        worker = manager.register_worker()["worker"]
        assert manager.revoke([lease_id]) == 1
        assert manager.claim(worker) is None
        with pytest.raises(UnknownLeaseError):
            manager.heartbeat(lease_id, worker)
        with pytest.raises(UnknownLeaseError):
            manager.wait([lease_id], timeout=0.1)

    def test_status_snapshot(self):
        manager = LeaseManager(lease_ttl=2.0, max_attempts=3)
        manager.publish([one_task(), one_task()])
        worker = manager.register_worker("snapshot")["worker"]
        manager.claim(worker)
        status = manager.status()
        assert status["lease_ttl"] == 2.0
        assert status["max_attempts"] == 3
        assert status["leases"] == {
            "pending": 1, "claimed": 1, "completed": 0, "failed": 0,
        }
        assert status["lifetime"]["published"] == 2
        (record,) = status["workers"]
        assert record["name"] == "snapshot"
        assert record["active"] is True

    def test_constructor_validation(self):
        with pytest.raises(LeaseError):
            LeaseManager(lease_ttl=0)
        with pytest.raises(LeaseError):
            LeaseManager(max_attempts=0)
        with pytest.raises(LeaseError, match="at least one channel count"):
            LeaseManager().publish([(TARGETS[0].to_dict(), LAYER.as_dict(), [], 0)])


# ----------------------------------------------------------------------
# HTTP fleet routes
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    with ReproServer(
        profile_store=tmp_path / "profiles.jsonl",
        job_store=tmp_path / "jobs.jsonl",
        lease_ttl=0.5,
    ) as running:
        yield running


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


class TestFleetRoutes:
    def test_register_claim_complete_over_http(self, server, client):
        task = one_task()
        (lease_id,) = server.queue.lease_manager.publish([task])

        registration = client.register_worker("http-w")
        worker = registration["worker"]
        assert registration["lease_ttl"] == 0.5

        lease = client.claim_lease(worker, timeout=2.0)
        assert lease["lease"] == lease_id
        assert lease["seed"] == 0
        client.heartbeat_lease(lease_id, worker)
        done = client.complete_lease(lease_id, worker, measurements=measure(task))
        assert done == {"lease": lease_id, "status": "completed"}

        fleet = client.fleet()
        assert fleet["lifetime"]["completed"] == 1
        assert fleet["workers"][0]["completed"] == 1

    def test_claim_without_work_is_204(self, client):
        worker = client.register_worker()["worker"]
        assert client.claim_lease(worker, timeout=0.0) is None

    def test_fleet_error_mapping(self, server, client):
        worker = client.register_worker()["worker"]
        with pytest.raises(ServiceError) as excinfo:
            client.heartbeat_lease("lease-missing", worker)
        assert excinfo.value.status == 404

        task = one_task()
        (lease_id,) = server.queue.lease_manager.publish([task])
        client.claim_lease(worker, timeout=1.0)
        other = client.register_worker()["worker"]
        with pytest.raises(ServiceError) as excinfo:
            client.complete_lease(lease_id, other, measurements=measure(task))
        assert excinfo.value.status == 409

        with pytest.raises(ServiceError) as excinfo:
            client.complete_lease(lease_id, worker, measurements=[{"bad": 1}])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.claim_lease("", timeout=0.0)
        assert excinfo.value.status == 400

    def test_nan_claim_timeout_is_400_not_a_hang(self, server, client):
        import http.client

        worker = client.register_worker()["worker"]
        body = '{"worker": "%s", "timeout": NaN}' % worker
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=1.0
        )
        try:
            started = time.monotonic()
            connection.request(
                "POST", "/v1/leases/claim", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"timeout" in response.read()
            assert time.monotonic() - started < 1.0
        finally:
            connection.close()
        # The handler survived: a valid claim still gets its 204.
        assert client.claim_lease(worker, timeout=0.0) is None

    def test_version_advertises_the_remote_executor(self, client):
        assert "remote" in client.version()["executors"]


# ----------------------------------------------------------------------
# End-to-end: remote executor against a live fleet
# ----------------------------------------------------------------------
def start_worker(url, **kwargs):
    """Run a FleetWorker on a daemon thread; returns (worker, thread, stop)."""

    stop = threading.Event()
    worker = FleetWorker(url=url, poll=0.2, **kwargs)
    thread = threading.Thread(target=worker.run, args=(stop,), daemon=True)
    thread.start()
    return worker, thread, stop


class TestRemoteExecution:
    def test_remote_results_match_serial_bitwise(self, server, client):
        plan = diamond_plan()
        workers = [start_worker(server.url, name=f"fleet-{i}") for i in range(2)]
        try:
            job = client.submit(plan, executor="remote")
            final = client.wait(job["id"], timeout=120.0)
        finally:
            for _, _, stop in workers:
                stop.set()
            for _, thread, _ in workers:
                thread.join(timeout=10.0)
        assert final["status"] == "succeeded", final.get("error")
        assert final["simulations"] == 0  # every measurement came from the fleet
        assert sum(worker.completed for worker, _, _ in workers) > 0

        serial = Session(seed=0).execute(plan, executor="serial")
        by_id = {step["id"]: step for step in final["steps"]}
        for step in plan:
            assert by_id[step.id]["result"] == step_result_payload(serial[step.id])

    def test_worker_crash_mid_lease_recovers_exactly_once(
        self, server, client, tmp_path
    ):
        plan = Plan()
        plan.sweep(TARGETS[0], LAYER, sweep_step=8)
        job = client.submit(plan, executor="remote")

        # A worker that claims the lease and then dies: no heartbeat, no
        # completion.  Its lease must expire and re-queue.
        crasher = client.register_worker("crasher")["worker"]
        deadline = time.monotonic() + 30.0
        lease = None
        while lease is None and time.monotonic() < deadline:
            lease = client.claim_lease(crasher, timeout=1.0)
        assert lease is not None, "the job never published its lease"

        worker, thread, stop = start_worker(server.url, name="rescuer")
        try:
            final = client.wait(job["id"], timeout=120.0)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert final["status"] == "succeeded", final.get("error")
        assert worker.completed >= 1
        assert server.queue.lease_manager.expired >= 1

        # Exactly-once: the store holds each configuration once, nothing
        # superseded, and the per-target breakdown agrees.
        stats = ProfileStore(tmp_path / "profiles.jsonl").file_stats()
        assert stats["entries"] > 0
        assert stats["superseded"] == 0
        # hikey-970 resolves to its mali-g72 GPU in the store key.
        assert set(stats["by_target"]) == {"acl-gemm@mali-g72"}
        for per_target in stats["by_target"].values():
            assert per_target["measurements"] == per_target["entries"]

    def test_failing_lease_fails_the_job_after_max_attempts(self, tmp_path):
        with ReproServer(
            profile_store=tmp_path / "p.jsonl",
            job_store=tmp_path / "j.jsonl",
            lease_ttl=5.0,
        ) as running:
            running.queue.lease_manager.max_attempts = 1
            local = ServiceClient(running.url, timeout=30.0)
            plan = Plan()
            plan.sweep(TARGETS[0], LAYER, sweep_step=8)
            job = local.submit(plan, executor="remote")

            worker = local.register_worker("saboteur")["worker"]
            deadline = time.monotonic() + 30.0
            lease = None
            while lease is None and time.monotonic() < deadline:
                lease = local.claim_lease(worker, timeout=1.0)
            local.complete_lease(lease["lease"], worker, error="simulated crash")

            final = local.wait(job["id"], timeout=60.0)
            assert final["status"] == "failed"
            assert "simulated crash" in final["error"]

    def test_cancel_interrupts_a_lease_wait(self, server, client):
        plan = Plan()
        plan.sweep(TARGETS[0], LAYER, sweep_step=8)
        job = client.submit(plan, executor="remote")  # no workers attached

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.job(job["id"])["status"] == "running":
                break
            time.sleep(0.02)
        # Give the executor a moment to actually publish and block.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if server.queue.lease_manager.status()["leases"]["pending"]:
                break
            time.sleep(0.02)

        client.cancel(job["id"])
        final = client.wait(job["id"], timeout=30.0)
        assert final["status"] == "cancelled"
        (step,) = final["steps"]
        assert step["status"] == "skipped"

    def test_unwired_remote_executor_explains_itself(self):
        with pytest.raises(ExecutionError, match="repro-experiments serve"):
            Session().execute(diamond_plan(), executor="remote")


# ----------------------------------------------------------------------
# Satellite regression: event keepalives
# ----------------------------------------------------------------------
class TestEventKeepalive:
    def test_idle_stream_emits_keepalives(self, tmp_path):
        with ReproServer(
            profile_store=tmp_path / "p.jsonl",
            job_store=tmp_path / "j.jsonl",
            lease_ttl=5.0,
            events_keepalive_seconds=0.2,
        ) as running:
            local = ServiceClient(running.url, timeout=30.0)
            plan = Plan()
            plan.sweep(TARGETS[0], LAYER, sweep_step=8)
            # No workers: a remote job idles inside its lease wait, which
            # is exactly when watchers need keepalives.
            job = local.submit(plan, executor="remote")

            seen = []
            for event in local.iter_events(job["id"], keepalives=True):
                seen.append(event["event"])
                if seen.count("keepalive") >= 2:
                    break
            assert "keepalive" in seen

            # The default stream filters them out.
            local.cancel(job["id"])
            local.wait(job["id"], timeout=30.0)
            names = [e["event"] for e in local.iter_events(job["id"])]
            assert "keepalive" not in names
            assert names[-1] == "job-finished"
