"""``repro.service.fleet`` — distributed measurement over work leases.

The measurement workload of every plan is embarrassingly parallel: one
independent (device, library, layer, channel-count) sweep per task.
This package lets those tasks leave the server process entirely:

``leases``
    :class:`LeaseManager` — the crash-safe work queue.  Each lease is
    one (target, layer-sweep) task with a heartbeat deadline; missed
    heartbeats re-queue it, exhausted attempts fail it.
``remote``
    :class:`RemoteExecutor` — what ``remote`` jobs run through.  Before
    each step, :meth:`~RemoteExecutor.prefetch` publishes the step's
    missing measurements as leases, blocks until workers complete them
    and adopts the results through the runner's cache+store checkpoint
    path; the step itself (figures included) then runs locally against
    the warmed session.
``worker``
    :class:`FleetWorker` / ``repro-experiments worker --url`` — the
    stateless pull agent: register, claim, measure with
    :func:`repro.service.fleet.worker._measure_worker`, heartbeat, post
    back.  Run one worker process per machine (per board, in the
    paper's setting); ``GET /v1/fleet`` counts each one's completed
    and failed leases.

Determinism is inherited, not negotiated: measurement noise is
counter-based on the configuration and seed, so any fleet of any size
produces results bitwise identical to a serial run.
"""

from .leases import (
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    Lease,
    LeaseError,
    LeaseFailedError,
    LeaseManager,
    LeaseWaitAborted,
    StaleLeaseError,
    UnknownLeaseError,
)
from .remote import RemoteExecutor
from .worker import FleetWorker, run_worker

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "FleetWorker",
    "Lease",
    "LeaseError",
    "LeaseFailedError",
    "LeaseManager",
    "LeaseWaitAborted",
    "RemoteExecutor",
    "StaleLeaseError",
    "UnknownLeaseError",
    "run_worker",
]
