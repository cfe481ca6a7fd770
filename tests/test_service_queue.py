"""Tests for the JobQueue worker pool: execution, failure isolation,
cancellation, figure-step concurrency and graceful shutdown."""

import threading
import time

import pytest

from repro.api import Plan, PruningRequest, Session, Target
from repro.experiments.base import ExperimentResult, resolve_session
from repro.experiments.registry import EXPERIMENTS
from repro.models import ConvLayerSpec
from repro.service.jobs import JobStore
from repro.service.queue import JobQueue, QueueClosedError
from repro.service.results import step_result_payload

TARGET = Target("hikey-970", "acl-gemm")

LAYER = ConvLayerSpec(
    name="test.service.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)


class OverlapGate:
    """Rendezvous for the figure-concurrency regression test.

    When ``barrier`` is set, every probe-figure run parks at it until
    the expected number of parties arrive — so the test only passes if
    the runs were genuinely concurrent (a serialized queue would leave
    the first run stuck until the barrier times out and breaks).
    """

    barrier = None


def overlap_probe_figure(runs: int = 3, session=None) -> ExperimentResult:
    """Test-only figure: sweeps one layer through the given session."""

    probed = resolve_session(session)
    if OverlapGate.barrier is not None:
        OverlapGate.barrier.wait(timeout=30.0)  # BrokenBarrierError on timeout
    table = probed.sweep(TARGET, LAYER, sweep_step=8)
    times = [row["median_time_ms"] for row in table.rows]
    return ExperimentResult(
        experiment_id="overlap_probe_figure",
        title="figure-overlap probe",
        description="sweeps one layer; parks at a barrier when armed",
        data={"times_ms": times},
        text="",
        measured={"points": float(len(times)), "min_time_ms": min(times)},
    )


if "test-overlap-figure" not in EXPERIMENTS:
    EXPERIMENTS.register("test-overlap-figure", overlap_probe_figure)


class Gate:
    """Parks every step inside ``Session._run_step`` until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()


@pytest.fixture
def gate(monkeypatch):
    gate = Gate()
    original = Session._run_step

    def gated(session, step):
        gate.entered.set()
        assert gate.release.wait(timeout=30.0), "gate never released"
        return original(session, step)

    monkeypatch.setattr(Session, "_run_step", gated)
    yield gate
    gate.release.set()


def sweep_plan(sweep_step: int = 8) -> Plan:
    plan = Plan()
    plan.sweep(TARGET, LAYER, sweep_step=sweep_step)
    return plan


def wait_done(queue: JobQueue, job_id: str, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = queue.store.get(job_id)
        if job.done:
            return job
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} still {queue.store.get(job_id).status}")


class TestExecution:
    def test_submitted_plan_runs_to_success(self):
        with JobQueue() as queue:
            job = queue.submit(sweep_plan())
            final = wait_done(queue, job.id)
        assert final.status == "succeeded"
        assert final.steps[0].status == "succeeded"
        assert final.steps[0].duration_ms > 0
        assert final.simulations > 0

    def test_result_matches_in_process_execution(self):
        plan = Plan()
        sweep = plan.sweep(TARGET, LAYER, sweep_step=4)
        plan.prune(
            PruningRequest("resnet50", TARGET, fraction=0.25,
                           layer_indices=(16,), sweep_step=8),
            depends_on=[sweep.id],
        )
        expected = Session().execute(plan)
        with JobQueue() as queue:
            final = wait_done(queue, queue.submit(plan).id)
        for record in final.steps:
            assert record.result == step_result_payload(expected[record.id])

    def test_validation_errors_surface_at_submit_time(self):
        with JobQueue() as queue:
            for seed in (-1, 2**64, True, "1"):
                with pytest.raises(ValueError, match="seed"):
                    queue.submit(sweep_plan(), seed=seed)
            with pytest.raises(TypeError, match="executor"):
                queue.submit(sweep_plan(), executor="serial")
            with pytest.raises(Exception, match="steps"):
                queue.submit({"version": 1})  # not a valid plan payload

    def test_seed_is_honoured(self):
        with JobQueue() as queue:
            base = wait_done(queue, queue.submit(sweep_plan()).id)
            forked = wait_done(queue, queue.submit(sweep_plan(), seed=7).id)
        assert base.steps[0].result != forked.steps[0].result


class TestResidentProfileStore:
    """One store object serves every job, caught up instead of reloaded."""

    def test_sequential_jobs_load_a_shard_once(self, tmp_path):
        from repro.profiling.store import _STORE_RELOADS, shard_id_for

        path = tmp_path / "profiles"
        shard = shard_id_for(TARGET.device_spec.name, TARGET.library)
        reloads = lambda: _STORE_RELOADS.value(store=str(path), shard=shard)
        before = reloads()
        with JobQueue(profile_store=path) as queue:
            first = wait_done(queue, queue.submit(sweep_plan()).id)
            repeats = [
                wait_done(queue, queue.submit(sweep_plan(sweep_step)).id)
                for sweep_step in (8, 4, 8)
            ]
        assert first.simulations > 0
        # The finer sweep appends its new counts; the last job replays them.
        assert [job.simulations > 0 for job in repeats] == [False, True, False]
        assert all(job.status == "succeeded" for job in repeats)
        assert repeats[0].steps[0].result == first.steps[0].result
        assert reloads() == before + 1

    def test_an_unusable_store_path_fails_at_construction(self, tmp_path):
        from repro.profiling.store import ProfileStoreError

        (tmp_path / "notes.txt").write_text("not a store", encoding="utf-8")
        with pytest.raises(ProfileStoreError):
            JobQueue(profile_store=tmp_path)  # a directory without a marker

    def test_a_foreign_append_is_served_to_the_next_job(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        with JobQueue(profile_store=path) as queue:
            wait_done(queue, queue.submit(sweep_plan(8)).id)  # loads the shard
            # Another process (here: another session) fills in the rest.
            Session(store=str(path)).execute(sweep_plan(4))
            replay = wait_done(queue, queue.submit(sweep_plan(4)).id)
        assert replay.status == "succeeded"
        assert replay.simulations == 0


class TestFailureIsolation:
    def test_failing_step_marks_job_failed_and_worker_survives(self):
        """Regression: a crashing step must not take the worker down."""

        bad = Plan()
        # Valid at build time, explodes at run time: the generator does
        # not accept this option.
        bad.figure("table1", bogus_option=True)
        with JobQueue() as queue:
            failed = wait_done(queue, queue.submit(bad).id)
            assert failed.status == "failed"
            assert failed.steps[0].status == "failed"
            assert "Traceback" in failed.error
            assert "bogus_option" in failed.error
            assert failed.steps[0].error == failed.error

            # The same worker thread still serves the next job.
            good = wait_done(queue, queue.submit(sweep_plan()).id)
            assert good.status == "succeeded"

    def test_failure_skips_the_remaining_steps(self):
        plan = Plan()
        plan.figure("table1", bogus_option=True)
        plan.sweep(TARGET, LAYER, sweep_step=8)
        with JobQueue() as queue:
            final = wait_done(queue, queue.submit(plan).id)
        assert [record.status for record in final.steps] == ["failed", "skipped"]


class TestFigureConcurrency:
    def test_concurrent_figure_jobs_keep_their_own_sessions(self):
        """Figure steps receive their job's session explicitly; two
        workers running them concurrently must not cross-contaminate
        seeds."""

        plan = Plan()
        plan.figure("fig04", runs=3, step=17)
        with JobQueue(workers=2) as queue:
            a = queue.submit(plan)
            b = queue.submit(plan, seed=5)
            final_a = wait_done(queue, a.id)
            final_b = wait_done(queue, b.id)
        assert final_a.status == final_b.status == "succeeded"
        assert final_a.steps[0].result != final_b.steps[0].result

        with JobQueue(workers=1) as solo:
            ref_a = wait_done(solo, solo.submit(plan).id)
            ref_b = wait_done(solo, solo.submit(plan, seed=5).id)
        assert final_a.steps[0].result == ref_a.steps[0].result
        assert final_b.steps[0].result == ref_b.steps[0].result

    def test_two_figure_jobs_overlap_on_a_two_worker_queue(self):
        """Regression for the old figure lock: two ``figure`` steps on a
        2-worker queue must *demonstrably* execute at the same time.

        Both jobs run a probe figure that parks at a 2-party barrier
        inside the generator.  The barrier releases only if both steps
        are inside their generators simultaneously; a queue serializing
        figure steps (the pre-session-parameter behaviour) would break
        the barrier by timeout and fail both jobs.
        """

        plan = Plan()
        plan.figure("test-overlap-figure")
        OverlapGate.barrier = threading.Barrier(2)
        try:
            with JobQueue(workers=2) as queue:
                a = queue.submit(plan)
                b = queue.submit(plan)
                final_a = wait_done(queue, a.id)
                final_b = wait_done(queue, b.id)
        finally:
            OverlapGate.barrier = None
        assert final_a.status == "succeeded", final_a.error
        assert final_b.status == "succeeded", final_b.error

        # Concurrency changed nothing about the results: a 1-worker
        # queue (barrier disarmed — it would deadlock there) produces
        # byte-identical step payloads.
        with JobQueue(workers=1) as solo:
            ref = wait_done(solo, solo.submit(plan).id)
        assert final_a.steps[0].result == ref.steps[0].result
        assert final_b.steps[0].result == ref.steps[0].result

    def test_figure_lock_is_gone(self):
        """The queue module no longer carries a process-global figure lock."""

        import repro.service.queue as queue_module

        assert not hasattr(queue_module, "_FIGURE_LOCK")


class TestCancellation:
    def test_cancel_mid_plan_stops_at_the_step_boundary(self, gate):
        plan = Plan()
        plan.sweep(TARGET, LAYER, sweep_step=8, step_id="first")
        plan.sweep(TARGET, LAYER, sweep_step=7, step_id="second")
        with JobQueue() as queue:
            job = queue.submit(plan)
            assert gate.entered.wait(timeout=30.0)
            queue.cancel(job.id)
            gate.release.set()
            final = wait_done(queue, job.id)
        assert final.status == "cancelled"
        assert final.steps[0].status == "succeeded"
        assert final.steps[1].status == "skipped"
        assert final.events[-1]["event"] == "job-finished"

    def test_cancel_of_a_queued_job_never_runs_it(self, gate):
        with JobQueue() as queue:
            blocker = queue.submit(sweep_plan())
            assert gate.entered.wait(timeout=30.0)
            queued = queue.submit(sweep_plan())
            cancelled = queue.cancel(queued.id)
            assert cancelled.status == "cancelled"
            gate.release.set()
            wait_done(queue, blocker.id)
            final = queue.store.get(queued.id)
        assert final.status == "cancelled"
        assert all(record.status == "skipped" for record in final.steps)


class TestShutdown:
    def test_close_drains_queued_jobs(self):
        queue = JobQueue()
        ids = [queue.submit(sweep_plan()).id for _ in range(3)]
        queue.close(drain=True)
        assert [queue.store.get(job_id).status for job_id in ids] == ["succeeded"] * 3

    def test_close_without_drain_cancels_the_backlog(self, gate):
        queue = JobQueue()
        running = queue.submit(sweep_plan())
        assert gate.entered.wait(timeout=30.0)
        backlog = queue.submit(sweep_plan())
        gate.release.set()
        queue.close(drain=False)
        assert queue.store.get(running.id).status == "succeeded"
        assert queue.store.get(backlog.id).status == "cancelled"

    def test_submit_after_close_is_rejected(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit(sweep_plan())

    def test_close_is_idempotent(self):
        queue = JobQueue()
        queue.close()
        queue.close()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            JobQueue(workers=0)

    def test_invalid_default_executor_and_jobs_fail_at_construction(self):
        """Removed knobs stop the queue from being built instead of
        being ignored: every job runs in this process."""

        for knob in ("executor", "lease_ttl", "jobs"):
            with pytest.raises(TypeError, match=knob):
                JobQueue(**{knob: 1})


class TestResume:
    def test_interrupted_jobs_are_requeued_on_startup(self, tmp_path):
        jobs_path = tmp_path / "jobs.jsonl"
        profile_path = tmp_path / "profiles.jsonl"
        # Simulate a server that died mid-job: the store says running,
        # nobody is executing it.
        store = JobStore(jobs_path)
        plan = sweep_plan()
        job = store.create(
            plan.to_dict(), seed=0,
            steps=[(step.id, step.kind) for step in plan],
        )
        store.mark_running(job.id)
        del store

        with JobQueue(
            store=JobStore(jobs_path), profile_store=profile_path
        ) as queue:
            final = wait_done(queue, job.id)
        assert final.status == "succeeded"
        assert "job-requeued" in [event["event"] for event in final.events]

    def test_a_job_stopped_before_its_terminal_snapshot_reruns_from_the_store(
        self, tmp_path
    ):
        """Only submission and the terminal transition are persisted: a job
        whose steps all finished, but not the job, reloads as queued and
        re-runs entirely from the profile store."""

        jobs_path = tmp_path / "jobs.jsonl"
        profile_path = tmp_path / "profiles"
        plan = sweep_plan()
        step = plan.steps[0]
        expected = step_result_payload(
            Session(store=profile_path).execute(plan)[step.id]
        )
        store = JobStore(jobs_path)
        job = store.create(
            plan.to_dict(), seed=0,
            steps=[(step.id, step.kind)],
        )
        store.mark_running(job.id)
        store.mark_step_running(job.id, step.id)
        store.mark_step_finished(job.id, step.id, "succeeded", result=expected)
        store.close()

        reloaded = JobStore(jobs_path)
        assert reloaded.get(job.id).status == "queued"
        assert reloaded.get(job.id).steps[0].status == "pending"
        with JobQueue(store=reloaded, profile_store=profile_path) as queue:
            final = wait_done(queue, job.id)
        assert final.status == "succeeded"
        assert "job-requeued" in [event["event"] for event in final.events]
        assert final.simulations == 0
        assert final.steps[0].result == expected

    def test_a_cancel_of_a_running_job_survives_a_restart(self, tmp_path):
        jobs_path = tmp_path / "jobs.jsonl"
        plan = sweep_plan()
        store = JobStore(jobs_path)
        job = store.create(
            plan.to_dict(), seed=0,
            steps=[(step.id, step.kind) for step in plan],
        )
        store.mark_running(job.id)
        store.request_cancel(job.id)
        store.close()

        with JobQueue(store=JobStore(jobs_path)) as queue:
            final = wait_done(queue, job.id)
        assert final.status == "cancelled"
        assert [record.status for record in final.steps] == ["skipped"]

    @pytest.mark.parametrize("written_by", ["2.x", "5.x"])
    def test_a_record_naming_an_executor_reloads_and_runs_in_process(
        self, tmp_path, written_by
    ):
        """A queued job written by an older server — a 2.x ``process``
        job with a ``jobs`` bound, or a 5.x ``remote`` job — reloads,
        runs in this process to the results of a serial run, and is
        rewritten without the old fields."""

        import json

        from repro.service.jobs import JOB_VERSION

        plan = sweep_plan()
        expected = step_result_payload(Session().execute(plan)[plan.steps[0].id])
        jobs_path = tmp_path / "jobs.jsonl"
        old_fields = (
            {"executor": "process", "jobs": 4} if written_by == "2.x"
            else {"executor": "remote"}
        )
        record = {
            "v": JOB_VERSION, "id": "job-old000000001", "plan": plan.to_dict(),
            **old_fields, "seed": 0, "status": "queued",
            "submitted_at": 1.0, "started_at": None, "finished_at": None,
            "error": None, "simulations": None, "cancel_requested": False,
            "trace": None,
            "steps": [{"id": step.id, "kind": step.kind, "status": "pending"}
                      for step in plan],
            "events": [],
        }
        jobs_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

        with JobQueue(store=JobStore(jobs_path)) as queue:
            old = wait_done(queue, record["id"])
            assert old.status == "succeeded", old.error
            assert old.steps[0].result == expected
            assert not set(old_fields) & set(old.to_dict())
            new = wait_done(queue, queue.submit(plan).id)
            assert new.status == "succeeded"
        reloaded = [json.loads(line) for line in jobs_path.read_text().splitlines()]
        assert not any(set(old_fields) & set(line) for line in reloaded)
