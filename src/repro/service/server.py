"""Stdlib-only HTTP front end for the job queue.

:class:`ReproServer` wraps a ``ThreadingHTTPServer`` (no dependencies
beyond the standard library) around a :class:`~repro.service.queue.JobQueue`
and exposes the versioned API::

    POST /v1/plans                 submit a plan          -> 202 {job record}
    GET  /v1/jobs                  list jobs              -> 200 {"jobs": [...]}
    GET  /v1/jobs/{id}             one full job record    -> 200 {job record}
    GET  /v1/jobs/{id}/events      NDJSON event stream    -> 200 (one JSON/line)
    POST /v1/jobs/{id}/cancel      request cancellation   -> 200 {job record}
    GET  /v1/healthz               liveness + job counts  -> 200
    GET  /v1/version               build/wire versions    -> 200
    GET  /v1/store                 profile-store stats    -> 200
    GET  /v1/metrics               Prometheus text format -> 200
    GET  /v1/metrics.json          same snapshot, as JSON -> 200

``POST /v1/plans`` accepts either a bare serialized
:class:`~repro.api.plan.Plan` payload or an envelope
``{"plan": {...}, "seed": S}``; every job runs in this process.
Validation failures (:class:`~repro.api.plan.PlanError`, a bad seed,
any other envelope field) map to HTTP 400 with the error message in
the body; unknown job ids map to 404.  The event stream replays a
job's whole event log from the start and ends after the
``job-finished`` event — streaming a finished job terminates
immediately, which is what lets clients ``wait`` on replayed jobs.
While a watched job is idle the event stream emits a periodic
``{"event": "keepalive"}`` line so buffering proxies and client read
timeouts never starve a long watch; clients skip them
(:meth:`~repro.service.client.ServiceClient.iter_events` filters them
out by default).

The handler speaks HTTP/1.1, so one client connection serves request
after request: every reply but the event stream carries
``Content-Length``, and the NDJSON stream is sent with
``Transfer-Encoding: chunked`` on the same kept-alive connection.  Once
the job is terminal its last events and the terminating chunk go out in
one write, so a reader stopping at ``job-finished`` can drain the
stream at once and reuse the connection.  Error replies close the
connection, because a request body may be left unread.
A kept-alive connection idle for :data:`_IDLE_CONNECTION_SECONDS` is
closed by the server, and :meth:`ReproServer.close` shuts every open
connection down.  Nagle's algorithm is off on accepted sockets: with
headers and body in separate writes, a kept-alive reply otherwise
stalls on the client's delayed ACK (44 ms per request).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .. import __version__
from ..api.plan import PLAN_VERSION, PlanError
from ..profiling.store import STORE_VERSION
from ..obs.metrics import default_registry
from ..obs.trace import TRACE_HEADER
from .jobs import JOB_VERSION, JobStore, UnknownJobError
from .queue import JobQueue, QueueClosedError

#: How long one blocking poll of the event stream waits before checking
#: whether the client hung up / the server is closing.
_STREAM_POLL_SECONDS = 0.5

#: Seconds an idle event stream goes before a ``keepalive`` line is
#: written, so long watches survive buffering proxies and client read
#: timeouts (overridable per server via ``events_keepalive_seconds``).
DEFAULT_EVENTS_KEEPALIVE_SECONDS = 15.0

_PROMETHEUS_TEXT = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds a kept-alive connection may sit idle between requests before
#: the server closes it; clients reconnect transparently.
_IDLE_CONNECTION_SECONDS = 60.0

#: How often ``serve_forever`` checks for ``shutdown()``; ``close()``
#: waits up to one tick (``socketserver``'s default is 0.5 s).
_SERVE_POLL_SECONDS = 0.05

#: How long ``close()`` lets handlers end on their own (a running event
#: stream writes its terminating chunk) before it cuts their connections.
_CLOSE_SECONDS = 2.0


def _ndjson_line(event: Dict[str, Any]) -> bytes:
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")


def _chunk(data: bytes) -> bytes:
    """``data`` as one chunk of a ``Transfer-Encoding: chunked`` body."""

    return b"%x\r\n%s\r\n" % (len(data), data)


#: The zero-length chunk that ends a chunked body (no trailers).
_LAST_CHUNK = b"0\r\n\r\n"


class _ApiError(Exception):
    """Internal: an HTTP error response (status, message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _ServiceHTTPServer(ThreadingHTTPServer):
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        queue: Optional[JobQueue],
        verbose: bool,
        events_keepalive: float = DEFAULT_EVENTS_KEEPALIVE_SECONDS,
    ) -> None:
        super().__init__(address, _ServiceHandler)
        # Assigned right after the bind succeeds, before any request can
        # arrive (requests are only served once serve_forever runs).
        self.job_queue = queue
        self.verbose = verbose
        self.closing = False
        self.events_keepalive = events_keepalive
        # Open connections and their handler threads, so close() can end
        # kept-alive connections that would otherwise wait for a next
        # request (server_close() does not join daemon threads).
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-service-connection",
            daemon=True,
        )
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request: socket.socket) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """End every open connection and join its handler thread.

        Reads are shut down first: an idle kept-alive connection sees end
        of file and ends, while a running event stream (which checks
        ``closing`` and reads nothing) still sends its terminating chunk,
        so a watcher sees a complete stream rather than a connection cut
        mid-body.  A handler still running after :data:`_CLOSE_SECONDS`,
        say one writing to a client that stopped reading, has its
        connection shut down both ways.
        """

        with self._connections_lock:
            connections = dict(self._connections)
        for how in (socket.SHUT_RD, socket.SHUT_RDWR):
            deadline = time.monotonic() + _CLOSE_SECONDS
            for connection, thread in connections.items():
                if thread.is_alive():
                    try:
                        connection.shutdown(how)
                    except OSError:
                        pass
            for thread in connections.values():
                thread.join(timeout=max(0.0, deadline - time.monotonic()))


class _ServiceHandler(BaseHTTPRequestHandler):
    server: _ServiceHTTPServer  # narrowed for the route helpers
    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = _IDLE_CONNECTION_SECONDS

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_body(self, body: bytes, content_type: str, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # The request body may be unread: do not parse the next
            # request out of it.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        self._send_body(
            json.dumps(payload, sort_keys=True).encode("utf-8"), "application/json", status
        )

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _ApiError(400, f"request body is not valid JSON: {error}") from error

    @property
    def _store(self) -> JobStore:
        return self.server.job_queue.store

    def _job_or_404(self, job_id: str):
        try:
            return self._store.get(job_id)
        except UnknownJobError:
            raise _ApiError(404, f"unknown job id {job_id!r}") from None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        parts = [part for part in self.path.split("?", 1)[0].split("/") if part]
        try:
            if parts[:1] != ["v1"]:
                raise _ApiError(404, f"unknown path {self.path!r} (expected /v1/...)")
            rest = parts[1:]
            if method == "GET" and rest == ["healthz"]:
                return self._get_healthz()
            if method == "GET" and rest == ["version"]:
                return self._get_version()
            if method == "POST" and rest == ["plans"]:
                return self._post_plan()
            if method == "GET" and rest == ["jobs"]:
                return self._get_jobs()
            if method == "GET" and len(rest) == 2 and rest[0] == "jobs":
                return self._get_job(rest[1])
            if method == "GET" and len(rest) == 3 and rest[:1] == ["jobs"] and rest[2] == "events":
                return self._get_events(rest[1])
            if method == "POST" and len(rest) == 3 and rest[:1] == ["jobs"] and rest[2] == "cancel":
                return self._post_cancel(rest[1])
            if method == "GET" and rest == ["store"]:
                return self._get_store()
            if method == "GET" and rest == ["metrics"]:
                return self._get_metrics()
            if method == "GET" and rest == ["metrics.json"]:
                return self._get_metrics_json()
            raise _ApiError(404, f"no route for {method} {self.path!r}")
        except _ApiError as error:
            self._send_error_json(error.status, error.message)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover - client hangup
            pass

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _get_healthz(self) -> None:
        self._send_json({
            "status": "ok",
            "jobs": self._store.counts(),
            "profile_store": self.server.job_queue.profile_store,
        })

    def _get_version(self) -> None:
        self._send_json({
            "version": __version__,
            "plan_version": PLAN_VERSION,
            "job_version": JOB_VERSION,
            "store_version": STORE_VERSION,
        })

    def _post_plan(self) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise _ApiError(400, "submission body must be a JSON object")
        if "plan" in body:
            plan_payload = body["plan"]
            unknown = set(body) - {"plan", "seed"}
            if unknown:
                raise _ApiError(400, f"unknown submission fields: {sorted(unknown)}")
            seed = body.get("seed", 0)
        else:
            plan_payload, seed = body, 0
        try:
            job = self.server.job_queue.submit(
                plan_payload, seed=seed, trace=self.headers.get(TRACE_HEADER)
            )
        except (PlanError, ValueError) as error:
            raise _ApiError(400, str(error)) from error
        except QueueClosedError as error:
            raise _ApiError(503, str(error)) from error
        self._send_json(self._store.snapshot(job.id), status=202)

    def _get_store(self) -> None:
        from ..profiling.store import ProfileStore, ProfileStoreError

        path = self.server.job_queue.profile_store
        if path is None:
            raise _ApiError(404, "this service runs without a profile store")
        try:
            # A fresh read-only store object per request: file_stats()
            # reads straight from disk, so the figures include appends
            # from every process sharing the store, per shard.
            stats = ProfileStore(path).file_stats()
        except ProfileStoreError as error:
            raise _ApiError(500, str(error)) from error
        stats["path"] = path
        self._send_json(stats)

    def _get_metrics(self) -> None:
        self._send_body(
            default_registry().render_prometheus().encode("utf-8"), _PROMETHEUS_TEXT
        )

    def _get_metrics_json(self) -> None:
        self._send_json(default_registry().snapshot())

    def _get_jobs(self) -> None:
        self._send_json({"jobs": self._store.summaries()})

    def _get_job(self, job_id: str) -> None:
        self._job_or_404(job_id)
        self._send_json(self._store.snapshot(job_id))

    def _post_cancel(self, job_id: str) -> None:
        self._job_or_404(job_id)
        self.server.job_queue.cancel(job_id)
        self._send_json(self._store.snapshot(job_id))

    def _get_events(self, job_id: str) -> None:
        self._job_or_404(job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-cache")
        # HTTP/1.0 has no chunked encoding: such a reader reads to EOF.
        chunked = self.request_version != "HTTP/1.0"
        if chunked:
            self.send_header("Transfer-Encoding", "chunked")
        else:
            self.send_header("Connection", "close")
            self.close_connection = True
        frame = _chunk if chunked else bytes
        self.end_headers()
        index = 0
        last_write = time.monotonic()
        try:
            while True:
                events, done = self._store.wait_for_events(
                    job_id, index, timeout=_STREAM_POLL_SECONDS
                )
                index += len(events)
                body = b"".join(_ndjson_line(event) for event in events)
                if done or self.server.closing:
                    # The job's last events and the terminating chunk in
                    # one write: a reader that stops at job-finished
                    # drains the stream without waiting.
                    if chunked:
                        body = (_chunk(body) if body else b"") + _LAST_CHUNK
                    self.wfile.write(body)
                    if not done:
                        self.close_connection = True
                    return
                idle = time.monotonic() - last_write
                if not body and idle >= self.server.events_keepalive:
                    # Nothing happened for a while: emit a keepalive line
                    # so idle watches (figure steps can run for minutes)
                    # are never starved by proxies or read timeouts.
                    body = _ndjson_line(
                        {"event": "keepalive", "job": job_id, "time": time.time()}
                    )
                if body:
                    self.wfile.write(frame(body))
                    last_write = time.monotonic()
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover - client hangup
            self.close_connection = True


class ReproServer:
    """The long-lived plan execution service, ready to ``start()``.

    Composes a :class:`~repro.service.jobs.JobStore` (persisted next to
    the profile store when ``job_store`` is a path), a
    :class:`~repro.service.queue.JobQueue` and the HTTP layer.  Usable
    as a context manager; ``port=0`` binds an ephemeral port (see
    :attr:`url`), which is how the tests and the in-process example run.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        profile_store: Union[str, Path, None] = None,
        job_store: Union[JobStore, str, Path, None] = None,
        workers: int = 1,
        verbose: bool = False,
        events_keepalive_seconds: float = DEFAULT_EVENTS_KEEPALIVE_SECONDS,
        trace: Union[str, Path, None] = None,
    ) -> None:
        if job_store is None and profile_store is not None:
            # Persist jobs next to the profile store by default, so one
            # --profile-store flag yields a fully resumable service.
            profile_path = Path(profile_store)
            job_store = profile_path.with_name(profile_path.stem + "-jobs.jsonl")
        # Bind the socket before starting the queue: a failed bind must
        # not leave worker threads running (and re-queued jobs executing)
        # behind an object the caller never got to close().
        self._http = _ServiceHTTPServer(
            (host, port), None, verbose, events_keepalive=events_keepalive_seconds
        )
        try:
            store = job_store if isinstance(job_store, JobStore) else JobStore(job_store)
            self.queue = JobQueue(
                store=store,
                profile_store=profile_store,
                workers=workers,
                trace=trace,
            )
        except BaseException:
            self._http.server_close()
            raise
        self._http.job_queue = self.queue
        self._thread: Optional[threading.Thread] = None
        self._served = False
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def store(self) -> JobStore:
        return self.queue.store

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        host = self.host
        if ":" in host:  # IPv6 literal
            host = f"[{host}]"
        return f"http://{host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Serve requests on a daemon thread; returns ``self``."""

        if self._thread is None:
            self._served = True
            self._thread = threading.Thread(
                target=self._http.serve_forever,
                kwargs={"poll_interval": _SERVE_POLL_SECONDS},
                name="repro-service-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``serve`` CLI's main loop)."""

        self._served = True
        self._http.serve_forever(poll_interval=_SERVE_POLL_SECONDS)

    def close(self, drain: bool = True) -> None:
        """Stop the HTTP listener, drain the queue, join the workers."""

        if self._closed:
            return
        self._closed = True
        self._http.closing = True
        # Running event streams see ``closing`` now, not at their next poll.
        self.store.release_waiters()
        if self._served:
            # shutdown() would block forever if serve_forever never ran.
            self._http.shutdown()
        # End kept-alive connections now rather than at their idle timeout.
        self._http.close_connections()
        self._http.server_close()
        self.queue.close(drain=drain)
        self.store.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    profile_store: Union[str, Path, None] = None,
    workers: int = 1,
    verbose: bool = False,
    trace: Union[str, Path, None] = None,
) -> ReproServer:
    """Build and start a :class:`ReproServer` (the ``serve`` CLI backend)."""

    return ReproServer(
        host=host,
        port=port,
        profile_store=profile_store,
        workers=workers,
        verbose=verbose,
        trace=trace,
    ).start()


__all__ = ["DEFAULT_EVENTS_KEEPALIVE_SECONDS", "ReproServer", "serve"]
