"""Job records and the JSONL-persisted :class:`JobStore`.

A :class:`Job` is one submitted :class:`~repro.api.plan.Plan` plus
everything the service knows about running it: executor/jobs/seed, per
step status, JSON result projections, timings, the error traceback when
a step fails and the ordered event log the NDJSON stream serves.

The :class:`JobStore` is the single mutation point.  Every state
transition happens under one lock and wakes event-stream readers
through a condition variable.  Only the transitions a restart needs
append a full job snapshot to the store file: submission (``create``,
so the job is re-queued) and the terminal ``finish`` (so it replays),
plus the rare ``request_cancel`` and ``requeue``.  The file holds one
JSON object per line, last line per job id wins on load — the same
torn-line-tolerant shape as :class:`~repro.profiling.store.ProfileStore`
— written through one held append handle, flushed per line.  A
restarted server therefore reloads finished jobs verbatim — results and
event log replay without touching the simulator — and re-queues every
other job; the measurements of a job that was running are already
checkpointed in the profile store, so its re-run is a cheap
store-served replay.

Unlike the profile store, the job store assumes a *single server
process* owns the file; it is thread-safe, not multi-process-safe.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

from ..obs.metrics import default_registry

_JOBSTORE_SKIPPED = default_registry().counter(
    "repro_jobstore_skipped_lines_total",
    "Unreadable or torn job-store lines skipped while loading.",
    labelnames=("store",),
)

#: Job store wire-format version.
JOB_VERSION = 1

#: Lifecycle of a job.  ``queued -> running -> succeeded|failed|cancelled``.
JOB_STATUSES: Tuple[str, ...] = ("queued", "running", "succeeded", "failed", "cancelled")

#: Lifecycle of one step inside a job.  Steps after a failure or a
#: cancellation are marked ``skipped``.
STEP_STATUSES: Tuple[str, ...] = ("pending", "running", "succeeded", "failed", "skipped")

#: Job statuses that will never change again.
TERMINAL_STATUSES = frozenset({"succeeded", "failed", "cancelled"})

#: Compact the store file once this many snapshot lines have been
#: appended since the last compaction (checked when a job finishes), so
#: a long-lived server's file stays proportional to its job count.
COMPACT_APPEND_THRESHOLD = 256


class JobStoreError(ValueError):
    """Raised for unusable job-store paths or malformed job operations."""


class UnknownJobError(KeyError):
    """Raised when a job id is not in the store."""


@dataclass
class StepRecord:
    """Execution state of one plan step inside a job."""

    id: str
    kind: str
    status: str = "pending"
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    duration_ms: Optional[float] = None
    result: Any = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"id": self.id, "kind": self.kind, "status": self.status}
        for key in ("started_at", "finished_at", "duration_ms", "result", "error"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StepRecord":
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            status=payload.get("status", "pending"),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            duration_ms=payload.get("duration_ms"),
            result=payload.get("result"),
            error=payload.get("error"),
        )


@dataclass
class Job:
    """One submitted plan and everything known about executing it."""

    id: str
    plan: Dict[str, Any]
    executor: str
    jobs: Optional[int]
    seed: int
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    simulations: Optional[int] = None
    cancel_requested: bool = False
    #: ``trace_id/span_id`` from the submitter's ``X-Repro-Trace``
    #: header, if any; the queue adopts it as the job span's parent.
    trace: Optional[str] = None
    steps: List[StepRecord] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def step(self, step_id: str) -> StepRecord:
        for record in self.steps:
            if record.id == step_id:
                return record
        raise JobStoreError(
            f"job {self.id} has no step {step_id!r}; available: "
            f"{[record.id for record in self.steps]}"
        )

    def summary(self) -> Dict[str, Any]:
        """The short listing shape ``GET /v1/jobs`` serves."""

        return {
            "id": self.id,
            "status": self.status,
            "executor": self.executor,
            "seed": self.seed,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "steps": {
                status: sum(1 for record in self.steps if record.status == status)
                for status in STEP_STATUSES
                if any(record.status == status for record in self.steps)
            },
            "error": self.error,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "v": JOB_VERSION,
            "id": self.id,
            "plan": self.plan,
            "executor": self.executor,
            "jobs": self.jobs,
            "seed": self.seed,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "simulations": self.simulations,
            "cancel_requested": self.cancel_requested,
            "trace": self.trace,
            "steps": [record.to_dict() for record in self.steps],
            "events": list(self.events),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Job":
        if payload.get("v") != JOB_VERSION:
            raise JobStoreError(
                f"unsupported job record version {payload.get('v')!r} "
                f"(this build reads {JOB_VERSION})"
            )
        return cls(
            id=payload["id"],
            plan=payload["plan"],
            executor=payload["executor"],
            jobs=payload.get("jobs"),
            seed=int(payload.get("seed", 0)),
            status=payload.get("status", "queued"),
            submitted_at=payload.get("submitted_at", 0.0),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            error=payload.get("error"),
            simulations=payload.get("simulations"),
            cancel_requested=bool(payload.get("cancel_requested", False)),
            trace=payload.get("trace"),
            steps=[StepRecord.from_dict(entry) for entry in payload.get("steps", [])],
            events=list(payload.get("events", [])),
        )


class JobStore:
    """Thread-safe registry of jobs, optionally persisted as JSONL.

    All mutations go through this class: they run under one lock and
    notify blocked :meth:`wait_for_events` readers; the ones a restart
    needs also append a snapshot line to ``path`` (when given).
    ``path=None`` keeps jobs in memory only (useful for tests and the
    in-process example).
    """

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists() and self.path.is_dir():
            raise JobStoreError(f"job store path {self.path} is a directory")
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._appends_since_compact = 0
        self._handle: Optional[TextIO] = None
        self.skipped_lines = 0
        if self.path is not None and self.path.exists():
            self._load()
            # Snapshot-per-transition appends are superseded by the last
            # line per job; rewriting once per restart keeps the file
            # proportional to the job count, not the event count.
            self.compact()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        assert self.path is not None
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    job = Job.from_dict(json.loads(line))
                except (ValueError, KeyError, TypeError):
                    self.skipped_lines += 1
                    _JOBSTORE_SKIPPED.inc(store=str(self.path))
                    continue
                # Later snapshots supersede earlier ones; dict insertion
                # order (first snapshot seen) is submission order.
                self._jobs[job.id] = job

    def _persist(self, job: Job) -> None:
        if self.path is None:
            return
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(job.to_dict()) + "\n")
        self._handle.flush()
        self._appends_since_compact += 1

    def close(self) -> None:
        """Close the append handle; a later snapshot reopens it."""

        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def compact(self) -> int:
        """Atomically rewrite the file with one snapshot line per job.

        Earlier snapshots of a job are dead weight (last line wins on
        load); compaction drops them via a tmp-file + :func:`os.replace`
        swap.  Runs automatically when a store is opened on an existing
        file and every :data:`COMPACT_APPEND_THRESHOLD` appends once a
        job finishes.  Returns the number of superseded or unreadable
        lines dropped.
        """

        if self.path is None:
            return 0
        with self._lock:
            self._appends_since_compact = 0
            self.close()  # the handle would keep appending to the old file
            if not self.path.exists():
                return 0
            with self.path.open("r", encoding="utf-8") as handle:
                before = sum(1 for line in handle if line.strip())
            fd, tmp_name = tempfile.mkstemp(
                prefix=self.path.name + ".", suffix=".compact",
                dir=str(self.path.parent),
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as tmp:
                    for job in self._jobs.values():
                        tmp.write(json.dumps(job.to_dict()) + "\n")
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            return before - len(self._jobs)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(f"unknown job id {job_id!r}") from None

    def __contains__(self, job_id: object) -> bool:
        with self._lock:
            return job_id in self._jobs

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def list(self) -> List[Job]:
        """All jobs in submission order."""

        with self._lock:
            return list(self._jobs.values())

    def snapshot(self, job_id: str) -> Dict[str, Any]:
        """One job's full wire payload, serialized under the store lock.

        The HTTP layer must use this (not ``get(id).to_dict()``): worker
        mutations happen under the same lock, so an unlocked serialization
        could observe a step half-finished (status set, result not yet).
        """

        with self._lock:
            return self.get(job_id).to_dict()

    def summaries(self) -> List[Dict[str, Any]]:
        """Every job's listing payload, serialized under the store lock."""

        with self._lock:
            return [job.summary() for job in self._jobs.values()]

    def pending_ids(self) -> List[str]:
        """Ids of jobs a restarted server must re-enqueue (oldest first)."""

        with self._lock:
            return [job.id for job in self._jobs.values() if not job.done]

    def counts(self) -> Dict[str, int]:
        """``{status: job count}`` over every known job."""

        with self._lock:
            tally = {status: 0 for status in JOB_STATUSES}
            for job in self._jobs.values():
                tally[job.status] = tally.get(job.status, 0) + 1
            return tally

    # ------------------------------------------------------------------
    # Mutations (the only writers)
    # ------------------------------------------------------------------
    def _emit(self, job: Job, event: str, **fields: Any) -> None:
        job.events.append({
            "event": event,
            "job": job.id,
            "seq": len(job.events),
            "time": time.time(),
            **fields,
        })

    def _commit(self, job: Job) -> None:
        self._persist(job)
        self._changed.notify_all()

    def create(
        self,
        plan: Dict[str, Any],
        executor: str = "serial",
        jobs: Optional[int] = None,
        seed: int = 0,
        steps: Optional[List[Tuple[str, str]]] = None,
        trace: Optional[str] = None,
    ) -> Job:
        """Register a new queued job for an already-validated plan payload.

        ``steps`` is the ``[(id, kind), ...]`` skeleton of the plan (the
        caller validated the plan, so it knows); every step starts
        ``pending``.  ``trace`` is the submitter's ``X-Repro-Trace``
        context, recorded verbatim.
        """

        job = Job(
            id=f"job-{uuid.uuid4().hex[:12]}",
            plan=plan,
            executor=executor,
            jobs=jobs,
            seed=seed,
            submitted_at=time.time(),
            trace=trace,
            steps=[StepRecord(id=step_id, kind=kind) for step_id, kind in steps or []],
        )
        with self._lock:
            self._jobs[job.id] = job
            self._emit(job, "job-queued", executor=executor, seed=seed)
            self._commit(job)
        return job

    def mark_running(self, job_id: str) -> Optional[Job]:
        """Atomically claim a queued job for execution.

        Returns ``None`` — without touching the record — when the job
        already reached a terminal status (e.g. cancelled while queued),
        so a worker can never resurrect a finished job.  This and the
        step transitions are not persisted: a restart re-queues a
        running job exactly like a queued one.
        """

        with self._lock:
            job = self.get(job_id)
            if job.done:
                return None
            job.status = "running"
            job.started_at = time.time()
            self._emit(job, "job-started")
            self._changed.notify_all()
            return job

    def mark_step_running(self, job_id: str, step_id: str) -> None:
        with self._lock:
            job = self.get(job_id)
            record = job.step(step_id)
            record.status = "running"
            record.started_at = time.time()
            self._emit(job, "step-started", step=step_id, kind=record.kind)
            self._changed.notify_all()

    def mark_step_finished(
        self,
        job_id: str,
        step_id: str,
        status: str,
        result: Any = None,
        error: Optional[str] = None,
        duration_ms: Optional[float] = None,
    ) -> None:
        with self._lock:
            job = self.get(job_id)
            record = job.step(step_id)
            record.status = status
            record.finished_at = time.time()
            record.duration_ms = duration_ms
            record.result = result
            record.error = error
            self._emit(
                job, "step-finished", step=step_id, kind=record.kind,
                status=status, duration_ms=duration_ms,
                **({"error": error} if error else {}),
            )
            self._changed.notify_all()

    def finish(
        self,
        job_id: str,
        status: str,
        error: Optional[str] = None,
        simulations: Optional[int] = None,
    ) -> Job:
        """Move a job to a terminal status; pending steps become ``skipped``.

        Idempotent on already-finished jobs: the first terminal
        transition wins and later calls return the record unchanged (no
        duplicate ``job-finished`` event).
        """

        if status not in TERMINAL_STATUSES:
            raise JobStoreError(f"{status!r} is not a terminal job status")
        with self._lock:
            job = self.get(job_id)
            if job.done:
                return job
            job.status = status
            job.finished_at = time.time()
            job.error = error
            job.simulations = simulations
            for record in job.steps:
                if record.status in ("pending", "running"):
                    record.status = "skipped"
            self._emit(
                job, "job-finished", status=status, simulations=simulations,
                **({"error": error} if error else {}),
            )
            self._commit(job)
            if self._appends_since_compact >= COMPACT_APPEND_THRESHOLD:
                self.compact()
            return job

    def request_cancel(self, job_id: str) -> Job:
        """Ask for a job to stop: queued jobs cancel immediately, running
        jobs stop at the next step boundary, finished jobs are unchanged."""

        with self._lock:
            job = self.get(job_id)
            if job.done:
                return job
            job.cancel_requested = True
            if job.status == "queued":
                return self.finish(job_id, "cancelled")
            self._commit(job)
            return job

    def requeue(self, job_id: str) -> Job:
        """Reset an interrupted (non-terminal) job to ``queued`` on restart."""

        with self._lock:
            job = self.get(job_id)
            if job.done:
                raise JobStoreError(f"cannot requeue finished job {job_id}")
            job.status = "queued"
            job.started_at = None
            for record in job.steps:
                if record.status == "running":
                    record.status = "pending"
                    record.started_at = None
            self._emit(job, "job-requeued")
            self._commit(job)
            return job

    # ------------------------------------------------------------------
    # Event streaming
    # ------------------------------------------------------------------
    def wait_for_events(
        self, job_id: str, index: int, timeout: Optional[float] = None
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Block until the job has events past ``index`` (or is done).

        Returns ``(new events, job is terminal)``; on timeout the event
        list is empty.  Streaming a finished job replays its whole log
        immediately.
        """

        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                job = self.get(job_id)
                fresh = job.events[index:]
                if fresh or job.done:
                    return list(fresh), job.done
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return [], job.done
                self._changed.wait(remaining if remaining is not None else 1.0)


__all__ = [
    "JOB_STATUSES",
    "JOB_VERSION",
    "STEP_STATUSES",
    "TERMINAL_STATUSES",
    "Job",
    "JobStore",
    "JobStoreError",
    "StepRecord",
    "UnknownJobError",
]
