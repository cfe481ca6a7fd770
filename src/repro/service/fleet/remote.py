"""The ``remote`` executor: a step's measurements prefetched through work leases.

Before the job queue runs a step of a ``remote`` job, it calls
:meth:`RemoteExecutor.prefetch`: the step's measurement workload that
the session cannot already serve is split into one task per (target,
layer) sweep, each task becomes a
:class:`~repro.service.fleet.leases.Lease` that stateless workers pull
over HTTP, run through :func:`~repro.service.fleet.worker._measure_worker`
and post back, and the results are adopted into the session's cache and
profile store.  One worker per board, in the paper's setting, where a
configuration costs ten board runs.

The step itself then runs locally through
:meth:`~repro.api.Session.execute` against the warmed session, so
anything a lease did not cover (``figure`` steps, whose workload is not
enumerable up front) is measured in-process exactly as ``serial`` does.
Results are bitwise identical to ``serial``: the counter-based noise
stream keys every measurement on the configuration and seed, never on
which machine ran it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ...api.pipeline import PruningRequest
from ...api.session import ExecutionError
from ...api.target import Target
from ...models.layers import ConvLayerSpec
from ...profiling.latency_table import sweep_counts
from ...profiling.runner import Measurement, Sweep
from .leases import (
    LeaseError,
    LeaseFailedError,
    LeaseManager,
    LeaseWaitAborted,
    UnknownLeaseError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...api.plan import Step
    from ...api.session import Session

#: target -> layer spec -> channel counts the step will need.
Workload = Dict[Target, Dict[ConvLayerSpec, Set[int]]]


def _merge(into: Workload, target: Target, spec: ConvLayerSpec, counts: Iterable[int]) -> None:
    into.setdefault(target, {}).setdefault(spec, set()).update(counts)


def _request_workload(session: "Session", request: PruningRequest) -> Workload:
    """The measurements a pruning job will need, enumerated up front.

    Under-enumeration is always safe — whatever is missing is measured
    in-process when the step runs — so strategies whose exact
    configurations depend on runtime choices (``uninstructed``)
    contribute nothing here.
    """

    workload: Workload = {}
    if request.strategy == "uninstructed":
        return workload
    network = session.network(request.model)
    indices = (
        list(request.layer_indices)
        if request.layer_indices is not None
        else network.conv_layer_indices
    )
    for index in indices:
        spec = network.conv_layer(index).spec
        counts = set(sweep_counts(spec.out_channels, step=request.sweep_step))
        if request.strategy == "performance-aware" and request.fraction is not None:
            # snap_to_step also measures the naive per-layer target.
            counts.add(max(1, round(spec.out_channels * (1.0 - request.fraction))))
        _merge(workload, request.target, spec, counts)
    return workload


def step_workload(session: "Session", step: "Step") -> Workload:
    """Enumerate the measurement workload of one plan step."""

    params = step.params
    workload: Workload = {}
    if step.kind == "sweep":
        targets = [Target.of(entry) for entry in params["targets"]]
        specs = [ConvLayerSpec.from_dict(entry) for entry in params["layers"]]
        for target in targets:
            for spec in specs:
                _merge(workload, target, spec, sweep_counts(
                    spec.out_channels, params.get("channel_counts"), params["sweep_step"]
                ))
    elif step.kind == "profile":
        target = Target.of(params["target"])
        network = session.network(params["model"])
        indices = params.get("layer_indices")
        indices = list(indices) if indices is not None else network.conv_layer_indices
        for index in indices:
            spec = network.conv_layer(index).spec
            _merge(workload, target, spec, sweep_counts(
                spec.out_channels, step=params["sweep_step"]
            ))
    elif step.kind == "prune":
        request = PruningRequest.from_dict(params["request"])
        workload = _request_workload(session, request)
    elif step.kind == "compare":
        request = PruningRequest.from_dict(params["request"])
        for strategy in params["strategies"]:
            for target, per_spec in _request_workload(
                session, request.with_strategy(strategy)
            ).items():
                for spec, counts in per_spec.items():
                    _merge(workload, target, spec, counts)
    # "figure" steps run arbitrary experiment generators; their workload
    # is not enumerable here, so they contribute nothing and measure
    # whatever is missing when they run.
    return workload


class RemoteExecutor:
    """Prefetch a step's measurements from a worker fleet via leases.

    The fleet's parallelism is however many workers are polling.

    Parameters
    ----------
    manager:
        The :class:`LeaseManager` to publish into.
    abort:
        Optional zero-argument callable polled while waiting on leases;
        returning true abandons the wait (the job queue wires this to
        the job's cancellation flag, so a cancel interrupts a step
        *mid-wait* instead of at the next step boundary).
    job_id:
        Informational tag stamped onto published leases.
    """

    def __init__(
        self,
        manager: LeaseManager,
        abort: Optional[Callable[[], bool]] = None,
        job_id: Optional[str] = None,
    ) -> None:
        self.manager = manager
        self.abort = abort
        self.job_id = job_id

    def prefetch(self, session: "Session", step: "Step") -> None:
        """Measure ``step``'s missing workload on the fleet, into ``session``."""

        with session.tracer.span("fleet.prefetch", step=step.id, kind=step.kind):
            tasks: List[Tuple[Target, ConvLayerSpec, List[int]]] = []
            for target, per_spec in step_workload(session, step).items():
                runner = session.runner(target)
                for spec, counts in per_spec.items():
                    missing = runner.pending_counts(spec, sorted(counts))
                    if missing:
                        tasks.append((target, spec, missing))
            if tasks:
                self._fan_out(session, tasks)

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
