"""``repro.service`` — a long-lived Plan execution service.

The library half of the system is declarative and serializable: a
:class:`~repro.api.plan.Plan` travels as JSON, any registered
:data:`~repro.api.executor.EXECUTORS` backend runs it bitwise-identically
and measurements checkpoint into the flock-safe
:class:`~repro.profiling.store.ProfileStore`.  This package adds the
process half: a job queue and HTTP front end other processes can talk
to::

    from repro.service import ReproServer, ServiceClient

    with ReproServer(profile_store="profiles") as server:
        client = ServiceClient(server.url)
        job = client.submit(plan)
        for event in client.iter_events(job["id"]):
            print(event["event"])
        report = client.job(job["id"])

Modules
-------
``jobs``
    :class:`Job` records and the JSONL-persisted :class:`JobStore` a
    restarted server reloads, so finished jobs replay without touching
    the simulator.
``queue``
    :class:`JobQueue` — worker threads pulling queued jobs through
    :meth:`repro.api.Session.execute` with per-step events,
    cancellation and graceful drain.
``server``
    :class:`ReproServer` — a stdlib-only ``ThreadingHTTPServer``
    exposing the ``/v1`` API (submit, inspect, NDJSON event stream,
    cancel, health, version).
``client``
    :class:`ServiceClient` — an ``http.client``-based Python client the CLI's
    ``submit`` subcommand drives (and the fleet worker's transport).
``results``
    Step-result projections shared by the CLI and the job records.
``fleet``
    Distributed measurement: the crash-safe :class:`LeaseManager` work
    queue, the ``remote`` executor that publishes into it, the
    pull-based :class:`FleetWorker` that ``repro-experiments worker``
    runs against a serving URL, and the :class:`Autoscaler` that
    ``serve --autoscale MIN:MAX`` runs to spawn/retire in-process
    workers from the fleet's own load signals.
"""

from .client import ServiceClient, ServiceError
from .fleet import Autoscaler, FleetWorker, LeaseManager, RemoteExecutor, run_worker
from .jobs import JOB_STATUSES, STEP_STATUSES, Job, JobStore, StepRecord
from .queue import JobQueue
from .results import describe_step_result, step_result_payload
from .server import ReproServer, serve

__all__ = [
    "JOB_STATUSES",
    "STEP_STATUSES",
    "Autoscaler",
    "FleetWorker",
    "Job",
    "JobQueue",
    "JobStore",
    "LeaseManager",
    "RemoteExecutor",
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "StepRecord",
    "describe_step_result",
    "run_worker",
    "serve",
    "step_result_payload",
]
