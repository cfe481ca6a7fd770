"""``ServiceClient``: the ``http.client``-based Python client of the service API.

Built on nothing but the standard library, mirroring the server's
stdlib-only constraint.  Each calling thread keeps one HTTP/1.1
connection alive across requests, and its own kept-alive connections for
the chunked NDJSON event stream, so a ``cancel`` sent from inside an
:meth:`ServiceClient.iter_events` loop never waits on the stream::

    client = ServiceClient("http://127.0.0.1:8765")
    job = client.submit(plan, seed=1)
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
from .jobs import TERMINAL_STATUSES


#: A reused connection failing with one of these got no response byte:
#: the server closed it while idle, so the request is safe to resend.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError,
)

#: How long a stream stopped at ``job-finished`` may take to deliver its
#: terminating chunk (sent in the same write) before its connection is
#: closed rather than reused.
_DRAIN_SECONDS = 1.0


class _ThreadConnections(threading.local):
    """One calling thread's kept-alive connections."""

    def __init__(self) -> None:
        self.connection: Optional[http.client.HTTPConnection] = None
        #: Stream connections not streaming now, ready for the next one.
        self.streams: List[http.client.HTTPConnection] = []


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
        # Kept-alive connections per calling thread, so threads sharing
        # a client never interleave requests on one socket.
        self._local = _ThreadConnections()

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

    def _exchange_or_retry(
        self,
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        payload: Any,
        timeout: Optional[float],
        headers: Optional[Dict[str, str]],
    ) -> http.client.HTTPResponse:
        """:meth:`_exchange`, resent once if a reused connection was stale."""

        reused = connection.sock is not None
        try:
            return self._exchange(connection, method, path, payload, timeout, headers)
        except _STALE_CONNECTION_ERRORS:
            # The server closed the idle connection before reading
            # this request: retry once on a fresh one.
            if not reused:
                raise
            connection.close()
            return self._exchange(connection, method, path, payload, timeout, headers)

    def _send(
        self,
        method: str,
        path: str,
        payload: Any = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """One request on this thread's kept-alive connection: (status, body)."""

        connection = self._local.connection
        if connection is None:
            connection = self._local.connection = http.client.HTTPConnection(self._netloc)
        try:
            response = self._exchange_or_retry(connection, method, path, payload, None, headers)
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

        The stream runs on one of this thread's kept-alive stream
        connections.  It goes back to them when the stream was read to
        its end, or stopped at ``job-finished`` and drained at once;
        a stream abandoned earlier closes its connection.
        """

        read_timeout = 3600.0 if timeout is None else timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        idle = self._local.streams
        connection = idle.pop() if idle else http.client.HTTPConnection(self._netloc)
        reusable = finished = False
        try:
            response = self._exchange_or_retry(
                connection, "GET", f"/v1/jobs/{job_id}/events", None, read_timeout, None
            )
            # Chunk by chunk, not readline(): a connection lost mid-chunk
            # raises IncompleteRead here instead of reading as the end.
            pending = b""
            while True:
                chunk = response.read1()
                if not chunk:
                    break  # the terminating chunk
                *lines, pending = (pending + chunk).split(b"\n")
                for line in lines:
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
                    finished = event.get("event") == "job-finished"
                    yield event
            reusable = True
        except GeneratorExit:
            # The caller stopped early.  At job-finished the terminating
            # chunk came in the same write, so draining it is immediate.
            reusable = finished and _drained(connection, response)
            raise
        except TimeoutError as error:
            raise ServiceError(
                f"no event from job {job_id} for {read_timeout}s"
            ) from error
        except (OSError, http.client.HTTPException) as error:
            raise ServiceError(f"cannot reach {self.url}: {error}") from error
        finally:
            if reusable:
                idle.append(connection)
            else:
                connection.close()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until a job reaches a terminal status; returns its record.

        Follows the job's event stream to ``job-finished``, then fetches
        the record once.
        """

        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            for _ in self.iter_events(job_id, timeout=timeout):
                pass
        except ServiceError:
            if deadline is None or time.monotonic() < deadline:
                raise
        job = self.job(job_id)
        if job["status"] in TERMINAL_STATUSES:
            return job
        if deadline is not None and time.monotonic() >= deadline:
            raise ServiceError(
                f"timed out waiting for job {job_id} (still {job['status']}) "
                f"after {timeout}s"
            )
        raise ServiceError(
            f"the event stream of job {job_id} ended while it was still {job['status']}"
        )

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
        include appends from every process sharing the store.
        Raises :class:`ServiceError` with status 404 when the service
        runs without a profile store.
        """

        return self._request("GET", "/v1/store")


def _drained(
    connection: http.client.HTTPConnection, response: http.client.HTTPResponse
) -> bool:
    """Read the rest of a stream at once; True if it ended cleanly."""

    try:
        if connection.sock is not None:
            connection.sock.settimeout(_DRAIN_SECONDS)
        response.read()
    except (OSError, http.client.HTTPException):
        return False
    return response.isclosed()


__all__ = ["ServiceClient", "ServiceError"]
