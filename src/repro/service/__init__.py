"""``repro.service`` — a long-lived Plan execution service.

The library half of the system is declarative and serializable: a
:class:`~repro.api.plan.Plan` travels as JSON,
:meth:`~repro.api.Session.execute` runs it step by step in plan order
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
    ``submit`` subcommand drives.
``results``
    Step-result projections shared by the CLI and the job records.
"""

from .client import ServiceClient, ServiceError
from .jobs import JOB_STATUSES, STEP_STATUSES, Job, JobStore, StepRecord
from .queue import JobQueue
from .results import describe_step_result, step_result_payload
from .server import ReproServer, serve

__all__ = [
    "JOB_STATUSES",
    "STEP_STATUSES",
    "Job",
    "JobQueue",
    "JobStore",
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "StepRecord",
    "describe_step_result",
    "serve",
    "step_result_payload",
]
