"""``ServiceClient``: the ``http.client``-based Python client of the service API.

Built on nothing but the standard library, mirroring the server's
stdlib-only constraint.  Each calling thread keeps one HTTP/1.1
connection alive across requests; the NDJSON event stream opens its own
short-lived one::

    client = ServiceClient("http://127.0.0.1:8765")
    job = client.submit(plan, executor="process", jobs=4)
    for event in client.iter_events(job["id"]):
        print(event["event"], event.get("step", ""))
    final = client.wait(job["id"])

Job records come back as the plain dicts the server serves (see
:meth:`repro.service.jobs.Job.to_dict`), so results are immediately
JSON-dumpable.  HTTP error responses raise :class:`ServiceError`
carrying the status code and the server's ``error`` message.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..api.plan import Plan
from ..obs.trace import TRACE_HEADER, SpanContext


#: A reused connection failing with one of these got no response byte:
#: the server closed it while idle, so the request is safe to resend.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)


class ServiceError(RuntimeError):
    """An HTTP-level failure talking to the service."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ServiceClient:
    """A thin, dependency-free client for :class:`~repro.service.server.ReproServer`.

    ``timeout`` bounds every individual HTTP request (connect + read),
    not whole-job waits — those take their own ``timeout`` argument.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.url)
        self._netloc = parts.netloc
        self._prefix = parts.path
        # One kept-alive connection per calling thread: a fleet worker
        # calls one client from its main loop and its heartbeat thread.
        self._local = threading.local()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _exchange(
        self,
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        payload: Any,
        timeout: Optional[float],
        headers: Optional[Dict[str, str]],
    ) -> http.client.HTTPResponse:
        """Send one request; returns the response, or raises for HTTP >= 400."""

        body = None
        headers = {"Accept": "application/json", **(headers or {})}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection.timeout = timeout if timeout is not None else self.timeout
        if connection.sock is not None:
            connection.sock.settimeout(connection.timeout)
        connection.request(method, self._prefix + path, body, headers)
        response = connection.getresponse()
        if response.status >= 400:
            detail = response.read().decode("utf-8", errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (ValueError, AttributeError):
                pass
            raise ServiceError(
                f"{method} {path} failed with HTTP {response.status}: {detail}",
                status=response.status,
            )
        return response

    def _send(
        self,
        method: str,
        path: str,
        payload: Any = None,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """One request on this thread's kept-alive connection: (status, body)."""

        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = http.client.HTTPConnection(self._netloc)
        reused = connection.sock is not None
        try:
            try:
                response = self._exchange(connection, method, path, payload, timeout, headers)
            except _STALE_CONNECTION_ERRORS:
                # The server closed the idle connection before reading
                # this request: retry once on a fresh one.
                if not reused:
                    raise
                connection.close()
                response = self._exchange(connection, method, path, payload, timeout, headers)
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServiceError(f"cannot reach {self.url}: {error}") from error

    def _request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        return json.loads(self._send(method, path, payload, headers=headers)[1])

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def version(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/version")

    def submit(
        self,
        plan: Union[Plan, Dict[str, Any]],
        executor: Optional[str] = None,
        jobs: Optional[int] = None,
        seed: Optional[int] = None,
        trace: Union[SpanContext, str, None] = None,
    ) -> Dict[str, Any]:
        """Submit a plan; returns the queued job record (``202``).

        ``trace`` (a :class:`~repro.obs.trace.SpanContext` or a
        pre-rendered ``trace_id/span_id`` header value) is sent as the
        ``X-Repro-Trace`` header, so the server-side job's spans stitch
        under the caller's trace.
        """

        payload: Dict[str, Any] = {
            "plan": plan.to_dict() if isinstance(plan, Plan) else plan
        }
        if executor is not None:
            payload["executor"] = executor
        if jobs is not None:
            payload["jobs"] = jobs
        if seed is not None:
            payload["seed"] = seed
        headers = None
        if trace is not None:
            value = trace.to_header() if isinstance(trace, SpanContext) else trace
            headers = {TRACE_HEADER: value}
        return self._request("POST", "/v1/plans", payload, headers=headers)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def iter_events(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        keepalives: bool = False,
    ) -> Iterator[Dict[str, Any]]:
        """Stream a job's NDJSON events until its ``job-finished`` event.

        A finished job replays its full event log and the iterator ends
        immediately.  ``timeout`` bounds the *whole stream*; ``None``
        streams until the job finishes, waiting up to an hour between
        consecutive events (so a dead server cannot hang the client
        forever).  Timeouts raise :class:`ServiceError`.

        The server interleaves ``{"event": "keepalive"}`` lines while a
        job is idle; they are filtered out unless ``keepalives=True``
        (they carry no job progress, only connection liveness).
        """

        read_timeout = 3600.0 if timeout is None else timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        # The stream is read to EOF, so it gets its own short-lived
        # connection instead of this thread's kept-alive one.
        connection = http.client.HTTPConnection(self._netloc)
        try:
            with self._exchange(
                connection, "GET", f"/v1/jobs/{job_id}/events", None, read_timeout, None
            ) as response:
                for line in response:
                    if deadline is not None and time.monotonic() > deadline:
                        raise ServiceError(
                            f"timed out streaming events of job {job_id} after {timeout}s"
                        )
                    line = line.strip()
                    if not line:
                        continue
                    event = json.loads(line.decode("utf-8"))
                    if event.get("event") == "keepalive" and not keepalives:
                        continue
                    yield event
        except TimeoutError as error:
            raise ServiceError(
                f"no event from job {job_id} for {read_timeout}s"
            ) from error
        except (OSError, http.client.HTTPException) as error:
            raise ServiceError(f"cannot reach {self.url}: {error}") from error
        finally:
            connection.close()

    def wait(
        self, job_id: str, timeout: Optional[float] = None, poll: float = 0.1
    ) -> Dict[str, Any]:
        """Block until a job reaches a terminal status; returns its record."""

        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["status"] in ("succeeded", "failed", "cancelled"):
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} (still {job['status']}) "
                    f"after {timeout}s"
                )
            time.sleep(poll)

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """The server's full metrics snapshot (``GET /v1/metrics.json``)."""

        return self._request("GET", "/v1/metrics.json")

    def metrics_text(self) -> str:
        """The server's metrics in Prometheus text format (``GET /v1/metrics``)."""

        return self._send("GET", "/v1/metrics")[1].decode("utf-8")

    def store_stats(self) -> Dict[str, Any]:
        """On-disk statistics of the server's profile store (``GET /v1/store``).

        The server reads the store fresh from disk, so the figures are
        per shard (``shards``) and per target (``by_target``) and
        include appends from every worker process sharing the store.
        Raises :class:`ServiceError` with status 404 when the service
        runs without a profile store.
        """

        return self._request("GET", "/v1/store")

    def fleet_metrics(self) -> Dict[str, Any]:
        """The merged fleet snapshot (``GET /v1/metrics/fleet.json``).

        Every pushed worker snapshot — plus the server's own registry —
        merged under the ``worker`` label; see
        :mod:`repro.obs.rollup` for the merge semantics.
        """

        return self._request("GET", "/v1/metrics/fleet.json")

    def fleet_metrics_text(self) -> str:
        """The merged fleet snapshot as Prometheus text (``GET /v1/metrics/fleet``)."""

        return self._send("GET", "/v1/metrics/fleet")[1].decode("utf-8")

    def push_worker_metrics(
        self,
        worker: str,
        snapshot: Dict[str, Any],
        label: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Push a worker's registry snapshot into the server's rollup.

        ``label`` is the ``worker`` label value the rollup files the
        series under (defaults server-side to the worker id).
        """

        payload: Dict[str, Any] = {"snapshot": snapshot}
        if label is not None:
            payload["label"] = label
        return self._request("POST", f"/v1/workers/{worker}/metrics", payload)

    # ------------------------------------------------------------------
    # Fleet surface (used by repro.service.fleet.worker)
    # ------------------------------------------------------------------
    def fleet(self) -> Dict[str, Any]:
        """Lease counts, lifetime counters and known workers."""

        return self._request("GET", "/v1/fleet")

    def register_worker(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Join the fleet; returns ``{"worker": id, "lease_ttl": ttl}``."""

        payload = {"name": name} if name is not None else {}
        return self._request("POST", "/v1/workers/register", payload)

    def claim_lease(
        self, worker: str, timeout: float = 0.0
    ) -> Optional[Dict[str, Any]]:
        """Long-poll for one work lease; ``None`` when nothing is pending.

        The server answers 204 after its poll horizon elapses without
        work; the request timeout leaves generous headroom on top of the
        server-side ``timeout`` so slow networks do not surface spurious
        errors.
        """

        status, body = self._send(
            "POST",
            "/v1/leases/claim",
            {"worker": worker, "timeout": timeout},
            timeout=timeout + self.timeout,
        )
        return None if status == 204 else json.loads(body)

    def heartbeat_lease(self, lease_id: str, worker: str) -> Dict[str, Any]:
        """Extend a held lease's deadline by one TTL."""

        return self._request(
            "POST", f"/v1/leases/{lease_id}/heartbeat", {"worker": worker}
        )

    def complete_lease(
        self,
        lease_id: str,
        worker: str,
        measurements: Optional[List[Dict[str, Any]]] = None,
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Report a lease's measurements (or the error that broke it)."""

        payload: Dict[str, Any] = {"worker": worker}
        if measurements is not None:
            payload["measurements"] = measurements
        if error is not None:
            payload["error"] = error
        return self._request("POST", f"/v1/leases/{lease_id}/complete", payload)


__all__ = ["ServiceClient", "ServiceError"]
