"""The ``remote`` executor: measurements distributed through work leases.

The plan runs wavefront by wavefront: each wave's deduplicated
measurement workload is split into one task per (target, layer) sweep,
and the results are adopted into the parent session's cache and profile
store before the wave's steps run.  Each task becomes a
:class:`~repro.service.fleet.leases.Lease` that stateless workers pull
over HTTP, run through :func:`~repro.api.executor._measure_worker` and
post back — one worker per board in the paper's setting, where a
configuration costs ten board runs.

Steps themselves — including ``figure``/``table`` steps, whose
measurement workload is not enumerable up front — always run locally in
the server process against the warmed session, so anything a lease did
not cover falls back to in-process measurement exactly as ``serial``
does.  Results are bitwise identical to ``serial``: the counter-based
noise stream keys every measurement on the configuration and seed,
never on which machine ran it.

The executor needs a live :class:`~repro.service.fleet.leases.LeaseManager`
to publish into; the serving :class:`~repro.service.queue.JobQueue`
constructs it with one.  Resolving ``"remote"`` straight from the
:data:`~repro.api.executor.EXECUTORS` registry (e.g. ``run-plan
--executor remote``) builds an unwired instance whose ``execute`` fails
with instructions, because there is no fleet to distribute to outside a
running service.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ...api.executor import ExecutionError, _wave_workload, traced_step, _ordered_results
from ...api.scheduler import wavefronts
from ...models.layers import ConvLayerSpec
from ...profiling.runner import Measurement, Sweep
from ...api.target import Target
from .leases import (
    LeaseError,
    LeaseFailedError,
    LeaseManager,
    LeaseWaitAborted,
    UnknownLeaseError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...api.plan import Plan
    from ...api.session import Session


class RemoteExecutor:
    """Fan measurement workloads out to a worker fleet via leases.

    The fleet's parallelism is however many workers are polling.

    Parameters
    ----------
    manager:
        The :class:`LeaseManager` to publish into.  ``None`` builds an
        unwired instance that fails on ``execute`` with instructions
        (this is what resolving ``"remote"`` by name outside a service
        produces).
    abort:
        Optional zero-argument callable polled while waiting on leases;
        returning true abandons the wait (the job queue wires this to
        the job's cancellation flag, so a cancel interrupts a step
        *mid-wait* instead of at the next step boundary).
    job_id:
        Informational tag stamped onto published leases.
    """

    name = "remote"

    def __init__(
        self,
        manager: Optional[LeaseManager] = None,
        abort: Optional[Callable[[], bool]] = None,
        job_id: Optional[str] = None,
    ) -> None:
        self.manager = manager
        self.abort = abort
        self.job_id = job_id

    def execute(self, session: "Session", plan: "Plan") -> Dict[str, Any]:
        if self.manager is None:
            raise ExecutionError(
                "the remote executor distributes measurements through a fleet "
                "lease manager and only runs inside a service: start one with "
                "`repro-experiments serve --executor remote`, attach workers "
                "with `repro-experiments worker --url ...` and submit the plan "
                "with `repro-experiments submit`"
            )
        results: Dict[str, Any] = {}
        for index, wave in enumerate(wavefronts(plan)):
            with session.tracer.span(
                "executor.wave", backend=self.name, wave=index, width=len(wave)
            ):
                tasks: List[Tuple[Target, ConvLayerSpec, List[int]]] = []
                for target, per_spec in _wave_workload(session, wave).items():
                    runner = session.runner(target)
                    for spec, counts in per_spec.items():
                        missing = runner.pending_counts(spec, sorted(counts))
                        if missing:
                            tasks.append((target, spec, missing))
                if tasks:
                    self._fan_out(session, tasks)
                for step in wave:
                    results[step.id] = traced_step(session, step, self.name)
        return _ordered_results(plan, results)

    def _fan_out(
        self, session: "Session", tasks: List[Tuple[Target, ConvLayerSpec, List[int]]]
    ) -> None:
        # Stamp the publishing span's context onto the leases so worker
        # spans stitch under this job's trace.
        context = session.tracer.current_context()
        lease_ids = self.manager.publish(
            [
                (target.to_dict(), spec.as_dict(), counts, session.seed)
                for target, spec, counts in tasks
            ],
            job_id=self.job_id,
            trace=context.to_header() if context is not None else None,
        )
        by_lease = {
            lease_id: (target, spec)
            for lease_id, (target, spec, _) in zip(lease_ids, tasks)
        }
        try:
            payloads = self.manager.wait(lease_ids, abort=self.abort)
        except LeaseWaitAborted:
            raise  # the queue maps this to a cancellation, not a failure
        except (LeaseFailedError, UnknownLeaseError, LeaseError) as error:
            raise ExecutionError(f"fleet measurement failed: {error}") from error
        finally:
            # Completed results are extracted, and abandoned leases must
            # not linger for a zombie worker to complete into.
            self.manager.revoke(lease_ids)
        for lease_id, entries in payloads.items():
            target, spec = by_lease[lease_id]
            session.runner(target).adopt(
                spec, Sweep.of(Measurement.from_dict(entry) for entry in entries)
            )


__all__ = ["RemoteExecutor"]
