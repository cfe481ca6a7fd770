"""Unit tests for the service job records and the JSONL job store."""

import json
import threading

import pytest

from repro.service.jobs import (
    _JOBSTORE_SKIPPED,
    JOB_VERSION,
    Job,
    JobStore,
    JobStoreError,
    UnknownJobError,
)

PLAN = {"version": 1, "steps": [{"id": "sweep-1", "kind": "sweep", "params": {}}]}
STEPS = [("sweep-1", "sweep")]


def make_job(store: JobStore) -> Job:
    return store.create(PLAN, executor="serial", jobs=None, seed=0, steps=STEPS)


class TestJobRecord:
    def test_round_trips_through_dict(self):
        job = make_job(JobStore())
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.to_dict() == job.to_dict()

    def test_rejects_unknown_version(self):
        payload = make_job(JobStore()).to_dict()
        payload["v"] = JOB_VERSION + 1
        with pytest.raises(JobStoreError, match="version"):
            Job.from_dict(payload)

    def test_unknown_step_rejected(self):
        job = make_job(JobStore())
        with pytest.raises(JobStoreError, match="no step"):
            job.step("nope")

    def test_summary_counts_steps_by_status(self):
        store = JobStore()
        job = store.create(PLAN, steps=[("a", "sweep"), ("b", "prune")])
        store.mark_running(job.id)
        store.mark_step_running(job.id, "a")
        store.mark_step_finished(job.id, "a", "succeeded", duration_ms=1.0)
        summary = store.get(job.id).summary()
        assert summary["steps"] == {"pending": 1, "succeeded": 1}


class TestLifecycle:
    def test_happy_path_emits_ordered_events(self):
        store = JobStore()
        job = make_job(store)
        store.mark_running(job.id)
        store.mark_step_running(job.id, "sweep-1")
        store.mark_step_finished(job.id, "sweep-1", "succeeded", result={"rows": []})
        store.finish(job.id, "succeeded", simulations=0)
        names = [event["event"] for event in store.get(job.id).events]
        assert names == [
            "job-queued", "job-started", "step-started", "step-finished", "job-finished",
        ]
        assert [event["seq"] for event in store.get(job.id).events] == [0, 1, 2, 3, 4]

    def test_finish_skips_unfinished_steps(self):
        store = JobStore()
        job = store.create(PLAN, steps=[("a", "sweep"), ("b", "prune")])
        store.mark_running(job.id)
        store.mark_step_running(job.id, "a")
        store.finish(job.id, "failed", error="boom")
        job = store.get(job.id)
        assert job.status == "failed" and job.error == "boom"
        assert [record.status for record in job.steps] == ["skipped", "skipped"]

    def test_finish_rejects_non_terminal_status(self):
        store = JobStore()
        job = make_job(store)
        with pytest.raises(JobStoreError, match="terminal"):
            store.finish(job.id, "running")

    def test_cancel_of_queued_job_is_immediate(self):
        store = JobStore()
        job = make_job(store)
        assert store.request_cancel(job.id).status == "cancelled"
        assert store.get(job.id).events[-1]["event"] == "job-finished"

    def test_cancel_of_running_job_only_sets_the_flag(self):
        store = JobStore()
        job = make_job(store)
        store.mark_running(job.id)
        cancelled = store.request_cancel(job.id)
        assert cancelled.status == "running" and cancelled.cancel_requested

    def test_mark_running_cannot_resurrect_a_finished_job(self):
        """Regression: a cancel landing between queueing and the worker's
        claim must win — the claim returns None and changes nothing."""

        store = JobStore()
        job = make_job(store)
        store.request_cancel(job.id)  # queued -> cancelled immediately
        assert store.mark_running(job.id) is None
        record = store.get(job.id)
        assert record.status == "cancelled"
        assert [event["event"] for event in record.events] == [
            "job-queued", "job-finished",
        ]

    def test_finish_is_idempotent_on_terminal_jobs(self):
        store = JobStore()
        job = make_job(store)
        assert store.mark_running(job.id) is not None
        first = store.finish(job.id, "succeeded", simulations=3)
        again = store.finish(job.id, "failed", error="late")
        assert again.status == "succeeded" and again.simulations == 3
        assert again.error is None
        events = [event["event"] for event in store.get(job.id).events]
        assert events.count("job-finished") == 1
        assert first.finished_at == again.finished_at

    def test_cancel_of_finished_job_is_a_noop(self):
        store = JobStore()
        job = make_job(store)
        store.mark_running(job.id)
        store.finish(job.id, "succeeded")
        assert store.request_cancel(job.id).status == "succeeded"
        assert not store.get(job.id).cancel_requested

    def test_unknown_job_raises(self):
        with pytest.raises(UnknownJobError, match="job-nope"):
            JobStore().get("job-nope")


class TestPersistence:
    def test_restart_reloads_last_snapshot(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = make_job(store)
        store.mark_running(job.id)
        store.mark_step_running(job.id, "sweep-1")
        store.mark_step_finished(job.id, "sweep-1", "succeeded", result={"rows": [1]})
        store.finish(job.id, "succeeded", simulations=3)

        reloaded = JobStore(path).get(job.id)
        assert reloaded.status == "succeeded"
        assert reloaded.simulations == 3
        assert reloaded.steps[0].result == {"rows": [1]}
        assert [event["event"] for event in reloaded.events][-1] == "job-finished"

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = make_job(store)
        store.finish(job.id, "succeeded")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "id": "job-torn"')  # killed mid-write
        reloaded = JobStore(path)
        assert reloaded.skipped_lines == 1
        assert reloaded.get(job.id).status == "succeeded"

    def test_garbage_and_torn_lines_are_counted(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = make_job(store)
        store.finish(job.id, "succeeded")
        with path.open("a", encoding="utf-8") as handle:
            handle.write("{garbage\n")
            handle.write('{"v": 1, "id": "job-torn"')  # killed mid-write
        before = _JOBSTORE_SKIPPED.value(store=str(path))
        reloaded = JobStore(path)
        assert reloaded.skipped_lines == 2
        assert _JOBSTORE_SKIPPED.value(store=str(path)) == before + 2
        assert reloaded.get(job.id).status == "succeeded"
        # Opening compacts the bad lines away: nothing left to skip.
        assert JobStore(path).skipped_lines == 0
        assert _JOBSTORE_SKIPPED.value(store=str(path)) == before + 2

    def test_pending_ids_and_requeue_after_interrupt(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        done = make_job(store)
        store.mark_running(done.id)
        store.finish(done.id, "succeeded")
        interrupted = make_job(store)
        store.mark_running(interrupted.id)
        store.mark_step_running(interrupted.id, "sweep-1")

        reloaded = JobStore(path)
        assert reloaded.pending_ids() == [interrupted.id]
        requeued = reloaded.requeue(interrupted.id)
        assert requeued.status == "queued"
        assert requeued.steps[0].status == "pending"
        with pytest.raises(JobStoreError, match="finished"):
            reloaded.requeue(done.id)

    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(JobStoreError, match="directory"):
            JobStore(tmp_path)

    def test_reopening_compacts_superseded_snapshots(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = make_job(store)
        store.mark_running(job.id)
        store.mark_step_running(job.id, "sweep-1")
        store.mark_step_finished(job.id, "sweep-1", "succeeded", result={"rows": []})
        store.finish(job.id, "succeeded")
        lines_before = sum(1 for line in path.open() if line.strip())
        assert lines_before == 2  # one snapshot at submission, one at the end

        reloaded = JobStore(path)
        lines_after = sum(1 for line in path.open() if line.strip())
        assert lines_after == 1  # one line per job after startup compaction
        assert reloaded.get(job.id).to_dict() == store.get(job.id).to_dict()
        assert reloaded.compact() == 0  # nothing further to drop

    def test_long_lived_store_compacts_past_the_append_threshold(self, tmp_path, monkeypatch):
        from repro.service import jobs as jobs_module

        monkeypatch.setattr(jobs_module, "COMPACT_APPEND_THRESHOLD", 4)
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        for _ in range(5):
            job = make_job(store)
            store.mark_running(job.id)
            store.finish(job.id, "succeeded")
        # Without in-flight compaction this would be 15 snapshot lines;
        # the threshold keeps the file proportional to the job count.
        lines = sum(1 for line in path.open() if line.strip())
        assert lines <= len(store.list()) + jobs_module.COMPACT_APPEND_THRESHOLD
        assert {job.status for job in JobStore(path).list()} == {"succeeded"}


class TestEventWaiting:
    def test_finished_job_replays_without_blocking(self):
        store = JobStore()
        job = make_job(store)
        store.finish(job.id, "cancelled")
        events, done = store.wait_for_events(job.id, 0, timeout=0.0)
        assert done and [event["event"] for event in events] == [
            "job-queued", "job-finished",
        ]
        events, done = store.wait_for_events(job.id, len(events), timeout=0.0)
        assert done and events == []

    def test_timeout_returns_empty(self):
        store = JobStore()
        job = make_job(store)
        events, done = store.wait_for_events(job.id, 1, timeout=0.05)
        assert events == [] and not done

    def test_waiter_wakes_on_new_event(self):
        store = JobStore()
        job = make_job(store)
        seen = {}

        def waiter():
            seen["events"], seen["done"] = store.wait_for_events(job.id, 1, timeout=5.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        store.mark_running(job.id)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert [event["event"] for event in seen["events"]] == ["job-started"]
