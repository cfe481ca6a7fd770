"""Work leases: the unit of distribution between the server and workers.

A *lease* is one ``(target, layer-sweep)`` measurement task — exactly
the payload :func:`repro.service.fleet.worker._measure_worker` takes —
plus the bookkeeping that makes pull-based distribution crash-safe: a
claiming worker, a heartbeat deadline and an attempt counter.  The
:class:`LeaseManager` is the single synchronization point between the
server-side :meth:`~repro.service.fleet.remote.RemoteExecutor.prefetch`
(which publishes leases and blocks until they complete) and the
stateless HTTP workers (which claim, heartbeat and complete them
through the ``/v1/leases`` routes).

Lifecycle::

    pending --claim--> claimed --complete--> completed
       ^                  |
       +--expiry/error----+   (attempts < max_attempts)
                          |
                          +--> failed      (attempts exhausted)

Crash safety comes from the deadline: a claimed lease whose worker
stops heartbeating past its TTL is re-queued into ``pending`` on the
next scheduling decision (claim, wait or status poll) — no reaper
thread, no timer wheel.  Results stay exactly-once and bitwise
deterministic regardless of which worker finally completes a lease,
because measurement noise is counter-based on the configuration itself
(see :mod:`repro.profiling.profilers`): any two honest workers produce
identical payloads, and the manager accepts only the completion of the
worker currently holding the lease.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...obs.metrics import DEFAULT_TIME_BUCKETS_S, Histogram, default_registry

_LEASES_PUBLISHED = default_registry().counter(
    "repro_leases_published_total", "Measurement leases published to the fleet."
)
_LEASES_COMPLETED = default_registry().counter(
    "repro_leases_completed_total", "Leases completed with valid measurements."
)
_LEASES_EXPIRED = default_registry().counter(
    "repro_leases_expired_total", "Claimed leases re-queued after a missed heartbeat."
)
_LEASES_FAILED = default_registry().counter(
    "repro_leases_failed_total", "Leases failed permanently (attempts exhausted)."
)
_LEASE_CLAIMS = default_registry().counter(
    "repro_lease_claims_total", "Successful lease claims by fleet workers."
)
_LEASE_HEARTBEATS = default_registry().counter(
    "repro_lease_heartbeats_total", "Lease heartbeats accepted from workers."
)
_CLAIM_WAIT = default_registry().histogram(
    "repro_lease_claim_wait_seconds",
    "Long-poll wait before a claim returned a lease.",
)

#: Default seconds a claimed lease may go without a heartbeat before it
#: is considered lost and re-queued.
DEFAULT_LEASE_TTL = 30.0

#: Default number of claims a lease may consume before it is failed
#: outright (a task that kills every worker that touches it must not
#: requeue forever).
DEFAULT_MAX_ATTEMPTS = 5

#: Lease lifecycle states.
LEASE_STATUSES: Tuple[str, ...] = ("pending", "claimed", "completed", "failed")


class LeaseError(ValueError):
    """Raised for malformed lease operations (bad payloads, bad TTLs)."""


class UnknownLeaseError(KeyError):
    """Raised when a lease id is not (or no longer) in the manager."""


class StaleLeaseError(LeaseError):
    """Raised when a worker touches a lease it no longer holds.

    This is the zombie fence: a worker that missed its heartbeats keeps
    running, but by the time it reports back the lease has been
    re-queued (and possibly re-claimed).  Its completion is rejected so
    exactly one worker's result is ever adopted.
    """


class LeaseWaitAborted(LeaseError):
    """Raised from :meth:`LeaseManager.wait` when the abort check fires
    (e.g. the owning job was cancelled mid-wait)."""


class LeaseFailedError(LeaseError):
    """Raised from :meth:`LeaseManager.wait` when a lease exhausted its
    attempts and can never complete."""


@dataclass
class Lease:
    """One published measurement task and its distribution state."""

    id: str
    target: Dict[str, Any]
    spec: Dict[str, Any]
    counts: List[int]
    seed: int
    job_id: Optional[str] = None
    status: str = "pending"
    worker: Optional[str] = None
    deadline: Optional[float] = None  # monotonic; claimed leases only
    attempts: int = 0
    error: Optional[str] = None
    results: Optional[List[Dict[str, Any]]] = None
    published_at: float = field(default_factory=time.time)
    #: ``trace_id/span_id`` of the publishing executor's span, if any —
    #: workers adopt it so their measurement spans stitch under the
    #: submitting job's trace.
    trace: Optional[str] = None

    def claim_payload(self, ttl: float) -> Dict[str, Any]:
        """The wire shape a claiming worker receives."""

        return {
            "lease": self.id,
            "target": dict(self.target),
            "spec": dict(self.spec),
            "counts": list(self.counts),
            "seed": self.seed,
            "job": self.job_id,
            "attempt": self.attempts,
            "ttl": ttl,
            "trace": self.trace,
        }


class LeaseManager:
    """Thread-safe lease registry shared by executor and HTTP workers.

    Parameters
    ----------
    lease_ttl:
        Seconds a claimed lease survives without a heartbeat before
        being re-queued.  Workers are told the TTL at claim time and
        heartbeat at a fraction of it.
    max_attempts:
        Claims a lease may consume before it fails permanently.

    The manager is purely in-process state: it belongs to the serving
    :class:`~repro.service.queue.JobQueue` and is reached remotely only
    through the server's ``/v1/leases`` routes.  Published leases that
    are never completed die with the process — the job store re-queues
    the owning job on restart, which re-publishes them.
    """

    def __init__(
        self,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if lease_ttl <= 0:
            raise LeaseError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_attempts < 1:
            raise LeaseError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        # Private (unregistered) claim-wait histogram: status() quantiles
        # must describe *this* manager, not every claim the process ever
        # saw through the shared exposition family — a fresh manager's
        # /v1/fleet renders claim_wait_p50_s: null until its first claim.
        self._claim_wait = Histogram(
            "lease_claim_wait_seconds",
            "Claim waits observed by this manager.",
            buckets=DEFAULT_TIME_BUCKETS_S,
        )
        self._leases: Dict[str, Lease] = {}
        self._pending: List[str] = []  # claim order (FIFO)
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        #: Lifetime counters for monitoring (`GET /v1/fleet`).
        self.published = 0
        self.completed = 0
        self.expired = 0
        self.failed = 0

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------
    def register_worker(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Register a worker; returns its id and the heartbeat TTL."""

        worker_id = f"worker-{uuid.uuid4().hex[:10]}"
        with self._lock:
            self._workers[worker_id] = {
                "worker": worker_id,
                "name": name or worker_id,
                "registered_at": time.time(),
                "last_seen": time.time(),
                "completed": 0,
                "errors": 0,
            }
        return {"worker": worker_id, "lease_ttl": self.lease_ttl}

    def _touch_worker(self, worker_id: Optional[str]) -> None:
        if worker_id is not None and worker_id in self._workers:
            self._workers[worker_id]["last_seen"] = time.time()

    # ------------------------------------------------------------------
    # Publication (executor side)
    # ------------------------------------------------------------------
    def publish(
        self,
        tasks: Sequence[Tuple[Dict[str, Any], Dict[str, Any], Sequence[int], int]],
        job_id: Optional[str] = None,
        trace: Optional[str] = None,
    ) -> Tuple[str, ...]:
        """Queue ``(target dict, spec dict, counts, seed)`` tasks as leases.

        Returns the new lease ids in task order; blocked claimers are
        woken immediately.  ``trace`` (a ``trace_id/span_id`` header
        string) rides along on every lease so workers can stitch their
        spans under the publishing job's trace.
        """

        leases: List[Lease] = []
        for target, spec, counts, seed in tasks:
            counts = [int(count) for count in counts]
            if not counts:
                raise LeaseError("a lease needs at least one channel count")
            leases.append(Lease(
                id=f"lease-{uuid.uuid4().hex[:12]}",
                target=dict(target),
                spec=dict(spec),
                counts=counts,
                seed=int(seed),
                job_id=job_id,
                trace=trace,
            ))
        with self._lock:
            for lease in leases:
                self._leases[lease.id] = lease
                self._pending.append(lease.id)
            self.published += len(leases)
            _LEASES_PUBLISHED.inc(len(leases))
            self._changed.notify_all()
        return tuple(lease.id for lease in leases)

    def revoke(self, lease_ids: Sequence[str]) -> int:
        """Forget leases (any state).  The executor calls this after a
        wait — successful or not — so the registry stays bounded and a
        zombie completion of an abandoned lease gets a clean 404."""

        with self._lock:
            removed = 0
            for lease_id in lease_ids:
                if self._leases.pop(lease_id, None) is not None:
                    removed += 1
            if removed:
                pending = set(self._leases)
                self._pending = [lid for lid in self._pending if lid in pending]
                self._changed.notify_all()
            return removed

    # ------------------------------------------------------------------
    # Expiry (runs inside every scheduling decision)
    # ------------------------------------------------------------------
    def _expire_overdue_locked(self) -> None:
        now = time.monotonic()
        for lease in self._leases.values():
            if lease.status != "claimed":
                continue
            assert lease.deadline is not None
            if lease.deadline > now:
                continue
            self.expired += 1
            _LEASES_EXPIRED.inc()
            self._requeue_or_fail_locked(
                lease,
                f"worker {lease.worker} missed its heartbeat deadline "
                f"(attempt {lease.attempts}/{self.max_attempts})",
            )

    def _requeue_or_fail_locked(self, lease: Lease, reason: str) -> None:
        lease.worker = None
        lease.deadline = None
        if lease.attempts >= self.max_attempts:
            lease.status = "failed"
            lease.error = reason
            self.failed += 1
            _LEASES_FAILED.inc()
        else:
            lease.status = "pending"
            lease.error = reason  # last failure, informational
            self._pending.append(lease.id)
        self._changed.notify_all()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def claim(self, worker_id: str, timeout: float = 0.0) -> Optional[Dict[str, Any]]:
        """Claim the oldest pending lease, waiting up to ``timeout``.

        Returns the lease's wire payload, or ``None`` when nothing
        became available (the HTTP route maps that to 204).  Claiming
        starts the heartbeat deadline and counts an attempt.
        """

        started = time.monotonic()
        deadline = started + max(0.0, timeout)
        with self._lock:
            self._touch_worker(worker_id)
            while True:
                self._expire_overdue_locked()
                while self._pending:
                    lease = self._leases.get(self._pending.pop(0))
                    if lease is None or lease.status != "pending":
                        continue  # revoked or re-claimed; skip stale entry
                    lease.status = "claimed"
                    lease.worker = worker_id
                    lease.attempts += 1
                    lease.deadline = time.monotonic() + self.lease_ttl
                    _LEASE_CLAIMS.inc()
                    waited = time.monotonic() - started
                    # The claimed lease's trace id rides along as the
                    # bucket exemplar, so a slow claim-wait bucket in the
                    # exposition points at the exact trace to `trace show`.
                    exemplar = (
                        lease.trace.split("/", 1)[0] if lease.trace else None
                    )
                    _CLAIM_WAIT.observe(waited, exemplar=exemplar)
                    self._claim_wait.observe(waited, exemplar=exemplar)
                    self._changed.notify_all()
                    return lease.claim_payload(self.lease_ttl)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                # Short slices so expiry checks keep running while idle.
                self._changed.wait(min(remaining, 0.5))

    def _held_lease_locked(self, lease_id: str, worker_id: str) -> Lease:
        lease = self._leases.get(lease_id)
        if lease is None:
            raise UnknownLeaseError(f"unknown lease id {lease_id!r}")
        if lease.status != "claimed" or lease.worker != worker_id:
            raise StaleLeaseError(
                f"lease {lease_id} is not held by worker {worker_id} "
                f"(status={lease.status!r}, holder={lease.worker!r})"
            )
        return lease

    def heartbeat(self, lease_id: str, worker_id: str) -> Dict[str, Any]:
        """Extend a held lease's deadline by one TTL."""

        with self._lock:
            self._expire_overdue_locked()
            lease = self._held_lease_locked(lease_id, worker_id)
            lease.deadline = time.monotonic() + self.lease_ttl
            self._touch_worker(worker_id)
            _LEASE_HEARTBEATS.inc()
            return {"lease": lease_id, "ttl": self.lease_ttl}

    def complete(
        self,
        lease_id: str,
        worker_id: str,
        measurements: Optional[List[Dict[str, Any]]] = None,
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Finish a held lease with measurement payloads or an error.

        An ``error`` completion re-queues the lease (or fails it once
        its attempts are exhausted); a measurement completion validates
        the payloads *before* committing, so a malformed report leaves
        the lease claimed (it will expire and re-queue) instead of
        poisoning the waiting executor.  Valid measurements are one
        sweep of the lease's layer on its target at its run count,
        covering exactly the lease's channel counts.
        """

        from ...api.target import Target
        from ...profiling.runner import Measurement, MeasurementError, Sweep

        if (measurements is None) == (error is None):
            raise LeaseError(
                "a completion carries either measurements or an error, not both"
            )
        if measurements is not None:
            try:
                sweep = Sweep.of(Measurement.from_dict(entry) for entry in measurements)
            except (MeasurementError, TypeError, KeyError) as exc:
                raise LeaseError(f"malformed measurement payload: {exc}") from exc
            if len(sweep) == 0:
                raise LeaseError("a completion needs at least one measurement")
        with self._lock:
            self._expire_overdue_locked()
            lease = self._held_lease_locked(lease_id, worker_id)
            if measurements is not None:
                target = Target.from_dict(lease.target)
                try:
                    sweep.expect(
                        lease.spec["name"], target.device_spec.name, target.library, target.runs
                    )
                    if set(sweep.counts.tolist()) != set(lease.counts):
                        raise MeasurementError(f"counts {sweep.counts.tolist()}")
                except MeasurementError as exc:
                    raise LeaseError(f"measurements do not fit lease {lease_id}: {exc}") from exc
            self._touch_worker(worker_id)
            if error is not None:
                if worker_id in self._workers:
                    self._workers[worker_id]["errors"] += 1
                self._requeue_or_fail_locked(
                    lease,
                    f"worker {worker_id} failed the task "
                    f"(attempt {lease.attempts}/{self.max_attempts}): {error}",
                )
                return {"lease": lease_id, "status": lease.status}
            lease.status = "completed"
            lease.results = [dict(entry) for entry in measurements or []]
            lease.worker = worker_id
            lease.deadline = None
            self.completed += 1
            _LEASES_COMPLETED.inc()
            if worker_id in self._workers:
                self._workers[worker_id]["completed"] += 1
            self._changed.notify_all()
            return {"lease": lease_id, "status": "completed"}

    # ------------------------------------------------------------------
    # Executor side
    # ------------------------------------------------------------------
    def wait(
        self,
        lease_ids: Sequence[str],
        timeout: Optional[float] = None,
        abort: Optional[Any] = None,
        poll: float = 0.25,
    ) -> Dict[str, List[Dict[str, Any]]]:
        """Block until every lease completed; return their measurements.

        Raises :class:`LeaseFailedError` as soon as any lease fails
        permanently, :class:`LeaseWaitAborted` when the ``abort``
        callable returns true (checked every ``poll`` seconds) and
        :class:`LeaseError` on ``timeout``.  Expiry checks run inside
        the wait loop, so worker death is detected even when no other
        worker is polling.
        """

        wanted = list(lease_ids)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                self._expire_overdue_locked()
                done: Dict[str, List[Dict[str, Any]]] = {}
                for lease_id in wanted:
                    lease = self._leases.get(lease_id)
                    if lease is None:
                        raise UnknownLeaseError(
                            f"lease {lease_id!r} vanished while being awaited"
                        )
                    if lease.status == "failed":
                        raise LeaseFailedError(
                            f"lease {lease_id} failed permanently: {lease.error}"
                        )
                    if lease.status == "completed":
                        done[lease_id] = lease.results or []
                if len(done) == len(wanted):
                    return done
                if abort is not None and abort():
                    raise LeaseWaitAborted(
                        f"abandoned waiting on {len(wanted) - len(done)} lease(s)"
                    )
                remaining = poll
                if deadline is not None:
                    until_deadline = deadline - time.monotonic()
                    if until_deadline <= 0:
                        raise LeaseError(
                            f"timed out waiting for {len(wanted) - len(done)} "
                            f"of {len(wanted)} lease(s) after {timeout}s"
                        )
                    remaining = min(remaining, until_deadline)
                self._changed.wait(remaining)

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The ``GET /v1/fleet`` snapshot: lease counts, workers and
        the autoscaling signals a pool controller needs (pending
        backlog, busy/idle split, claim-wait percentiles)."""

        with self._lock:
            self._expire_overdue_locked()
            counts = {status: 0 for status in LEASE_STATUSES}
            busy = set()
            for lease in self._leases.values():
                counts[lease.status] += 1
                if lease.status == "claimed" and lease.worker is not None:
                    busy.add(lease.worker)
            active_cutoff = time.time() - 3.0 * self.lease_ttl
            workers = [
                {**record, "active": record["last_seen"] >= active_cutoff}
                for record in self._workers.values()
            ]
            active = sum(1 for record in workers if record["active"])
            return {
                "lease_ttl": self.lease_ttl,
                "max_attempts": self.max_attempts,
                "leases": counts,
                "lifetime": {
                    "published": self.published,
                    "completed": self.completed,
                    "expired": self.expired,
                    "failed": self.failed,
                },
                "workers": workers,
                # Scale up on pending_leases / claim-wait growth, down on
                # idle_workers.  The percentiles come from this manager's
                # own claim-wait histogram (null until its first claim —
                # the shared exposition family would leak other managers'
                # claims in the same process).
                "autoscaling": {
                    "pending_leases": counts["pending"],
                    "busy_workers": len(busy),
                    "idle_workers": max(0, active - len(busy)),
                    "claim_wait_p50_s": self._claim_wait.quantile(0.5),
                    "claim_wait_p95_s": self._claim_wait.quantile(0.95),
                },
            }


__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "LEASE_STATUSES",
    "Lease",
    "LeaseError",
    "LeaseFailedError",
    "LeaseManager",
    "LeaseWaitAborted",
    "StaleLeaseError",
    "UnknownLeaseError",
]
