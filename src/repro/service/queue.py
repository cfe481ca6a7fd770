"""The :class:`JobQueue`: worker threads draining the job store.

Each worker pulls a queued job id, builds a **fresh**
:class:`~repro.api.Session` for it (sharing with every other job only
the queue's resident profile store and the process-wide zoo networks,
which nothing mutates) and executes the plan one step at a time, in
plan order, through :meth:`Session.execute` — the same in-process path
``run-plan`` takes.  Per step granularity is what gives the service its
live ``step-started`` / ``step-finished`` event stream and
step-boundary cancellation; results stay bitwise identical to executing
the whole plan at once because the session (and its caches, noise
stream and store) persists across the steps of a job.  Since every step
kind — including ``figure`` steps, which receive the job's session
explicitly — touches only job-local state, workers never serialize
against each other: a multi-worker queue runs any two jobs' steps truly
in parallel.

Failure isolation is per job: an exception inside a step marks that
step and its job ``failed`` — traceback string in the job record — and
the worker thread moves on to the next queued job.  A dead plan can
never take a worker down with it.

Shutdown is a graceful drain: :meth:`JobQueue.close` stops accepting
submissions, lets workers finish everything already queued (or, with
``drain=False``, cancels the backlog and finishes only the jobs
currently running) and joins the threads.
"""

from __future__ import annotations

import queue as _stdlib_queue
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..api.plan import Plan, PlanError, Step
from ..api.session import Session
from ..obs.metrics import default_registry
from ..obs.trace import SpanContext, TraceWriter, Tracer
from ..profiling.noise import check_seed
from ..profiling.store import ProfileStore
from .jobs import Job, JobStore
from .results import step_result_payload

_JOBS_SUBMITTED = default_registry().counter(
    "repro_jobs_submitted_total", "Plan jobs accepted by the queue."
)
_JOBS_FINISHED = default_registry().counter(
    "repro_jobs_finished_total",
    "Jobs moved to a terminal status by the queue, by outcome.",
    labelnames=("status",),
)
_JOB_STEPS = default_registry().counter(
    "repro_job_steps_total",
    "Plan steps the queue finished, by outcome.",
    labelnames=("status",),
)
_QUEUE_DEPTH = default_registry().gauge(
    "repro_job_queue_depth", "Queued job ids awaiting a worker."
)

#: Wakes idle workers so they can notice the shutdown flag.
_POLL_SECONDS = 0.1


class QueueClosedError(RuntimeError):
    """Raised when submitting to a queue that is shutting down."""


class JobQueue:
    """A thread-based worker pool executing queued plan jobs.

    Parameters
    ----------
    store:
        The :class:`JobStore` recording every job's lifecycle.
    profile_store:
        Optional path to the shared measurement
        :class:`~repro.profiling.store.ProfileStore` directory.  The
        queue opens one store object on it and hands it to every job's
        (otherwise fresh) session.  The object stays resident: each
        lookup parses only the shard lines appended since the last one,
        by any job or any other process, instead of every job re-parsing
        whole shards.  So a re-submitted plan replays measurements
        instead of re-simulating them, and jobs writing to different
        targets append to different shards without contending on one
        inode.
    workers:
        Worker thread count (default 1).  Every step kind runs
        concurrently across workers — ``figure`` steps included, since
        experiment generators receive the job's session explicitly
        instead of swapping a process-global one.
    trace:
        Optional path to a JSONL trace file.  Every job then runs under
        a ``job`` root span (adopted under the submitter's
        ``X-Repro-Trace`` context when one was sent) with per-step
        ``executor.step`` child spans.  Tracing is inert: traced
        execution is bitwise identical to untraced.
    """

    def __init__(
        self,
        store: Optional[JobStore] = None,
        profile_store: Union[str, Path, None] = None,
        workers: int = 1,
        trace: Union[str, Path, None] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store if store is not None else JobStore()
        self.profile_store = str(profile_store) if profile_store is not None else None
        self._profiles = (
            ProfileStore(self.profile_store) if self.profile_store is not None else None
        )
        self.trace_writer = TraceWriter(trace) if trace is not None else None
        self._queue: "_stdlib_queue.Queue[Optional[str]]" = _stdlib_queue.Queue()
        self._closed = False
        self._lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-worker-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()
        self._resume()

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------
    def _resume(self) -> None:
        """Re-enqueue jobs interrupted before a previous shutdown."""

        for job_id in self.store.pending_ids():
            self.store.requeue(job_id)
            self._queue.put(job_id)

    def submit(
        self,
        plan: Union[Plan, Dict[str, Any]],
        seed: int = 0,
        trace: Optional[str] = None,
    ) -> Job:
        """Validate a plan payload, register it and queue it for execution.

        ``trace`` is the submitter's ``X-Repro-Trace`` context header;
        the job's root span is adopted under it so client and server
        spans stitch into one trace.

        Raises :class:`~repro.api.plan.PlanError` for structurally
        invalid plans and :class:`ValueError` for a bad ``seed`` — the
        server maps both to HTTP 400.
        """

        validated = plan if isinstance(plan, Plan) else Plan.from_dict(plan)
        check_seed(seed)
        with self._lock:
            if self._closed:
                raise QueueClosedError("the job queue is shutting down")
            job = self.store.create(
                validated.to_dict(),
                seed=seed,
                steps=[(step.id, step.kind) for step in validated],
                trace=trace,
            )
            self._queue.put(job.id)
            _JOBS_SUBMITTED.inc()
            _QUEUE_DEPTH.set(self._queue.qsize())
        return job

    def cancel(self, job_id: str) -> Job:
        """Request cancellation; see :meth:`JobStore.request_cancel`."""

        was_done = self.store.get(job_id).done
        job = self.store.request_cancel(job_id)
        if job.done and not was_done:
            # Queued jobs cancel immediately without passing through a
            # worker, so count their terminal transition here.
            _JOBS_FINISHED.inc(status=job.status)
        return job

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            try:
                job_id = self._queue.get(timeout=_POLL_SECONDS)
            except _stdlib_queue.Empty:
                if self._closed:
                    return
                continue
            if job_id is None:  # shutdown sentinel
                self._queue.task_done()
                return
            _QUEUE_DEPTH.set(self._queue.qsize())
            try:
                self._run_job(job_id)
            except Exception:
                # _run_job already records per-step failures; this
                # catch-all keeps the worker alive even if bookkeeping
                # itself blows up (e.g. an unserializable result).
                try:
                    self._finish_job(job_id, "failed", error=traceback.format_exc())
                except Exception:
                    pass
            finally:
                self._queue.task_done()

    def _finish_job(self, job_id: str, status: str, **fields: Any) -> Job:
        """Finish a job through the store, counting the transition once.

        ``JobStore.finish`` is idempotent, so the metric increments only
        when this call actually moved the job to a terminal status.
        """

        was_done = self.store.get(job_id).done
        job = self.store.finish(job_id, status, **fields)
        if job.done and not was_done:
            _JOBS_FINISHED.inc(status=job.status)
        return job

    def _run_job(self, job_id: str) -> None:
        # Atomic claim: returns None if the job reached a terminal state
        # while queued (e.g. cancelled), so a cancel racing this worker
        # can never be overwritten by a later job-started transition.
        job = self.store.mark_running(job_id)
        if job is None:
            return
        try:
            plan = Plan.from_dict(job.plan)
        except PlanError as error:
            # Submissions are validated, but a store written by a newer
            # build may hold plans this build cannot parse.
            self._finish_job(job_id, "failed", error=f"invalid stored plan: {error}")
            return
        # One tracer per job: its root "job" span adopts the submitter's
        # X-Repro-Trace context (when one was sent) and parents every
        # step span.
        tracer = Tracer(writer=self.trace_writer)
        session = Session(store=self._profiles, seed=job.seed, tracer=tracer)
        status, error = "succeeded", None
        with tracer.adopt(SpanContext.parse(job.trace)):
            with tracer.span("job", job=job_id, seed=job.seed):
                for step in plan:
                    if self.store.get(job_id).cancel_requested:
                        status, error = "cancelled", None
                    else:
                        status, error = self._run_step(session, job, step)
                    if status in ("cancelled", "failed"):
                        break
        # Finished only once the span is written: a client that sees
        # job-finished finds the job's span in the trace file.
        self._finish_job(
            job_id, status, error=error, simulations=session.simulation_count()
        )

    def _run_step(
        self,
        session: Session,
        job: Job,
        step: Step,
    ) -> Tuple[str, Optional[str]]:
        """Execute one step; never raises (failures come back as a status)."""

        self.store.mark_step_running(job.id, step.id)
        started = time.monotonic()
        try:
            # Dependencies only order steps (data flows through the
            # session caches), so a single-step plan with deps stripped
            # is semantically identical here: every dependency already
            # ran in this job, against this session.
            single = Plan()
            single.add(Step(id=step.id, kind=step.kind, params=step.params))
            payload = step_result_payload(session.execute(single)[step.id])
        except Exception:
            error = traceback.format_exc()
            duration_ms = (time.monotonic() - started) * 1000.0
            self.store.mark_step_finished(
                job.id, step.id, "failed", error=error, duration_ms=duration_ms
            )
            _JOB_STEPS.inc(status="failed")
            return "failed", error
        duration_ms = (time.monotonic() - started) * 1000.0
        self.store.mark_step_finished(
            job.id, step.id, "succeeded", result=payload, duration_ms=duration_ms
        )
        _JOB_STEPS.inc(status="succeeded")
        return "succeeded", None

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting jobs and shut the workers down.

        ``drain=True`` (default) lets workers finish every job already
        queued; ``drain=False`` cancels the queued backlog first, so only
        jobs currently running complete.  Idempotent.
        """

        with self._lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            for job in self.store.list():
                if job.status == "queued":
                    self.store.request_cancel(job.id)
        # Deliberately outside _lock: holding it here would deadlock
        # against workers that take it to finish their last job.
        for _ in self._workers:  # repro-lint: ignore[RL001] -- immutable after __init__
            self._queue.put(None)  # repro-lint: ignore[RL001] -- queue.Queue is thread-safe
        for thread in self._workers:  # repro-lint: ignore[RL001] -- immutable after __init__
            thread.join(timeout=timeout)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = ["JobQueue", "QueueClosedError"]
