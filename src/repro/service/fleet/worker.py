"""The fleet worker: a stateless agent pulling measurement leases over HTTP.

One worker process (``repro-experiments worker --url http://host:8765``)
is a loop around four HTTP calls::

    POST /v1/workers/register            -> worker id + heartbeat TTL
    POST /v1/leases/claim                -> one lease (long-polled) or 204
    POST /v1/leases/{id}/heartbeat       -> while the task is running
    POST /v1/leases/{id}/complete        -> measurements (or an error)

The measurement itself is :func:`_measure_worker`, a store-less
:class:`~repro.profiling.runner.ProfileRunner` sweep, so a
fleet-measured plan is bitwise identical to ``serial``.  Workers hold
no state between leases: killing one mid-task merely lets the lease's
heartbeat deadline lapse, after which the server re-queues it for the
next worker.  A worker that outlives its lease (network stall, paused
VM) gets a conflict when it reports back and simply moves on; the
server adopts exactly one completion.

Heartbeats run on a helper thread at roughly a quarter of the server's
TTL while the measurement computes, so slow sweeps on slow machines
survive arbitrarily long as long as the worker process itself is alive.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from ...api.target import Target
from ...models.layers import ConvLayerSpec
from ...obs.trace import SpanContext, Tracer
from ...profiling.runner import ProfileRunner, Sweep
from ..client import ServiceClient, ServiceError

#: Fallback claim long-poll horizon (seconds) per request.
DEFAULT_POLL_SECONDS = 5.0


def _measure_worker(
    target_payload: Dict[str, Any],
    spec_payload: Dict[str, Any],
    counts: List[int],
    seed: int,
) -> Dict[str, Any]:
    """Measure one lease's (target, layer) sweep.

    Runs without a store (the server owns persistence) and returns the
    sweep's columns (:meth:`Sweep.as_columns`: the constants once and
    five lists of plain numbers).  Determinism comes from the
    counter-based noise stream: the same (configuration, seed) yields
    the same measurement in any process.
    """

    target = Target.from_dict(target_payload)
    spec = ConvLayerSpec.from_dict(spec_payload)
    runner = ProfileRunner.for_target(target, seed=seed)
    return runner.measure_many(spec, counts).as_columns()


class FleetWorker:
    """A pull-based measurement worker bound to one service URL.

    Parameters
    ----------
    url:
        Base URL of the running service (or pass a ready
        ``client`` — used by tests to talk to an ephemeral port).
    name:
        Human-readable worker name shown in ``GET /v1/fleet``.
    poll:
        Seconds each claim request long-polls server-side before the
        worker re-polls.
    max_idle:
        Optional: exit once this many consecutive seconds pass without
        work (lets CI workers drain and terminate on their own).
    max_leases:
        Optional: exit after completing this many leases.
    on_event:
        Optional callable receiving progress strings (the CLI prints
        them).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when a claimed lease
        carries a ``trace`` context, the measurement runs inside a
        ``worker.measure`` span adopted under it, so worker spans stitch
        into the submitting job's trace.

    The server counts each worker's completed and failed leases
    (``GET /v1/fleet``); :attr:`completed` and :attr:`errors` are this
    worker's own tallies.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        name: Optional[str] = None,
        poll: float = DEFAULT_POLL_SECONDS,
        max_idle: Optional[float] = None,
        max_leases: Optional[int] = None,
        client: Optional[ServiceClient] = None,
        on_event: Optional[Callable[[str], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if client is None and url is None:
            raise ValueError("FleetWorker needs a service url or a client")
        if poll <= 0:
            raise ValueError(f"poll must be positive, got {poll}")
        self.client = client if client is not None else ServiceClient(url)
        self.name = name
        self.poll = poll
        self.max_idle = max_idle
        self.max_leases = max_leases
        self._emit = on_event if on_event is not None else (lambda message: None)
        self.tracer = tracer if tracer is not None else Tracer()
        self.worker_id: Optional[str] = None
        self.completed = 0
        self.errors = 0

    # ------------------------------------------------------------------
    def run(self, stop: Optional[threading.Event] = None) -> int:
        """Register, then claim/measure/complete until told to stop.

        Returns the number of leases completed.  Stops when ``stop`` is
        set, ``max_idle`` elapses without work or ``max_leases`` is
        reached; server-unreachable errors while polling end the loop
        (the CLI reports them), but a single failed lease does not.
        """

        registration = self.client.register_worker(self.name)
        self.worker_id = registration["worker"]
        ttl = float(registration["lease_ttl"])
        self._emit(
            f"registered as {self.worker_id} (lease ttl {ttl:g}s) "
            f"against {self.client.url}"
        )
        idle_since = time.monotonic()
        while stop is None or not stop.is_set():
            lease = self.client.claim_lease(self.worker_id, timeout=self.poll)
            if lease is None:
                if (
                    self.max_idle is not None
                    and time.monotonic() - idle_since >= self.max_idle
                ):
                    self._emit(f"idle for {self.max_idle:g}s, exiting")
                    break
                continue
            self._run_lease(lease, ttl)
            idle_since = time.monotonic()
            if self.max_leases is not None and self.completed >= self.max_leases:
                self._emit(f"completed {self.completed} lease(s), exiting")
                break
        return self.completed

    # ------------------------------------------------------------------
    def _run_lease(self, lease: Dict[str, Any], ttl: float) -> None:
        lease_id = lease["lease"]
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease_id, ttl, stop_heartbeat),
            name=f"lease-heartbeat-{lease_id}",
            daemon=True,
        )
        heartbeat.start()
        try:
            with self.tracer.adopt(SpanContext.parse(lease.get("trace"))):
                with self.tracer.span(
                    "worker.measure",
                    lease=lease_id,
                    job=lease.get("job"),
                    worker=self.worker_id,
                ):
                    payloads = self._measure(lease)
        except Exception:
            error = traceback.format_exc()
            stop_heartbeat.set()
            heartbeat.join()
            self.errors += 1
            self._finish(lease_id, error=error)
            self._emit(f"lease {lease_id} failed locally; reported the error")
            return
        stop_heartbeat.set()
        heartbeat.join()
        if self._finish(lease_id, measurements=payloads):
            self.completed += 1
            self._emit(
                f"lease {lease_id} completed "
                f"({lease['spec'].get('name', '?')} x{len(lease['counts'])} "
                f"on {lease['target'].get('library', '?')}@"
                f"{lease['target'].get('device', '?')})"
            )

    @staticmethod
    def _measure(lease: Dict[str, Any]) -> Any:
        """Run the lease's sweep through the shared measurement kernel.

        The lease wire format is one :meth:`Measurement.as_dict` row per
        configuration.
        """

        columns = _measure_worker(
            lease["target"], lease["spec"], lease["counts"], lease["seed"]
        )
        return [measurement.as_dict() for measurement in Sweep.from_columns(columns)]

    def _finish(
        self,
        lease_id: str,
        measurements: Optional[Any] = None,
        error: Optional[str] = None,
    ) -> bool:
        try:
            self.client.complete_lease(
                lease_id, self.worker_id, measurements=measurements, error=error
            )
            return True
        except ServiceError as exc:
            # Stale or revoked: the server re-queued this lease while we
            # were measuring.  Someone else owns it now; drop the result.
            self._emit(f"lease {lease_id} was not accepted: {exc}")
            return False

    def _heartbeat_loop(
        self, lease_id: str, ttl: float, stop: threading.Event
    ) -> None:
        interval = max(ttl / 4.0, 0.05)
        while not stop.wait(interval):
            try:
                self.client.heartbeat_lease(lease_id, self.worker_id)
            except ServiceError:
                # Lost the lease (expired/revoked) or lost the server;
                # stop beating — completion will be rejected cleanly.
                return


def run_worker(
    url: str,
    name: Optional[str] = None,
    poll: float = DEFAULT_POLL_SECONDS,
    max_idle: Optional[float] = None,
    max_leases: Optional[int] = None,
    on_event: Optional[Callable[[str], None]] = None,
    trace: Optional[str] = None,
) -> int:
    """Build and run a :class:`FleetWorker` (the ``worker`` CLI backend).

    ``trace`` names a JSONL file to append ``worker.measure`` spans to;
    the writer is flock-safe, so several workers (and the server) may
    share one file.
    """

    from ...obs.trace import TraceWriter

    tracer = Tracer(writer=TraceWriter(trace)) if trace else None
    return FleetWorker(
        url=url,
        name=name,
        poll=poll,
        max_idle=max_idle,
        max_leases=max_leases,
        on_event=on_event,
        tracer=tracer,
    ).run()


__all__ = ["DEFAULT_POLL_SECONDS", "FleetWorker", "run_worker"]
