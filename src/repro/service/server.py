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
    POST /v1/workers/register      join the worker fleet  -> 200 {worker, ttl}
    POST /v1/leases/claim          pull one work lease    -> 200 {lease} | 204
    POST /v1/leases/{id}/heartbeat keep a lease alive     -> 200
    POST /v1/leases/{id}/complete  post measurements back -> 200
    GET  /v1/fleet                 lease + worker status  -> 200
    GET  /v1/metrics               Prometheus text format -> 200
    GET  /v1/metrics.json          same snapshot, as JSON -> 200
    POST /v1/workers/{id}/metrics  push a worker snapshot -> 200
    GET  /v1/metrics/fleet         merged fleet rollup    -> 200
    GET  /v1/metrics/fleet.json    same rollup, as JSON   -> 200

``POST /v1/plans`` accepts either a bare serialized
:class:`~repro.api.plan.Plan` payload or an envelope
``{"plan": {...}, "executor": "...", "jobs": N, "seed": S}``.
Validation failures (:class:`~repro.api.plan.PlanError`, bad seed/jobs,
unknown executor) map to HTTP 400 with the error message in the body;
unknown job ids map to 404.  The event stream replays a job's whole
event log from the start and keeps the connection open until the
``job-finished`` event — streaming a finished job terminates
immediately, which is what lets clients ``wait`` on replayed jobs.

Fleet errors map the same way: an unknown lease id is 404, a stale
touch (the lease was re-queued away from the worker) is 409 and a
malformed payload is 400.  While a watched job is idle the event stream
emits a periodic ``{"event": "keepalive"}`` line so buffering proxies
and client read timeouts never starve a long watch; clients skip them
(:meth:`~repro.service.client.ServiceClient.iter_events` filters them
out by default).

The handler speaks HTTP/1.1: every reply but the event stream carries
``Content-Length``, so one client connection serves request after
request.  The NDJSON stream is sent with ``Connection: close`` and needs
no chunked encoding: readers consume lines until EOF.  Error replies
also close the connection, because a request body may be left unread.
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
from ..api.registry import UnknownPluginError
from ..profiling.store import STORE_VERSION
from .fleet.leases import (
    DEFAULT_LEASE_TTL,
    LeaseError,
    StaleLeaseError,
    UnknownLeaseError,
)
from ..obs.metrics import default_registry
from ..obs.rollup import RollupError, render_snapshot_prometheus
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

#: Upper bound on one lease-claim request's server-side long poll; the
#: worker simply re-polls, so a shorter wait only costs round trips.
_CLAIM_POLL_MAX_SECONDS = 30.0


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
        """Shut down every open connection and join its handler thread."""

        with self._connections_lock:
            connections = dict(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in connections.values():
            thread.join(timeout=5.0)


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
            if method == "GET" and rest == ["fleet"]:
                return self._get_fleet()
            if method == "GET" and rest == ["store"]:
                return self._get_store()
            if method == "GET" and rest == ["metrics"]:
                return self._get_metrics()
            if method == "GET" and rest == ["metrics.json"]:
                return self._get_metrics_json()
            if method == "GET" and rest == ["metrics", "fleet"]:
                return self._get_fleet_metrics(as_json=False)
            if method == "GET" and rest == ["metrics", "fleet.json"]:
                return self._get_fleet_metrics(as_json=True)
            if method == "POST" and rest == ["workers", "register"]:
                return self._post_worker_register()
            if method == "POST" and len(rest) == 3 and rest[0] == "workers" and rest[2] == "metrics":
                return self._post_worker_metrics(rest[1])
            if method == "POST" and rest == ["leases", "claim"]:
                return self._post_lease_claim()
            if method == "POST" and len(rest) == 3 and rest[:1] == ["leases"] and rest[2] == "heartbeat":
                return self._post_lease_heartbeat(rest[1])
            if method == "POST" and len(rest) == 3 and rest[:1] == ["leases"] and rest[2] == "complete":
                return self._post_lease_complete(rest[1])
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
        from ..api.executor import EXECUTORS

        self._send_json({
            "version": __version__,
            "plan_version": PLAN_VERSION,
            "job_version": JOB_VERSION,
            "store_version": STORE_VERSION,
            "executors": sorted(EXECUTORS.available()),
        })

    def _post_plan(self) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise _ApiError(400, "submission body must be a JSON object")
        if "plan" in body:
            plan_payload = body["plan"]
            options = {key: body[key] for key in ("executor", "jobs", "seed") if key in body}
            unknown = set(body) - {"plan", "executor", "jobs", "seed"}
            if unknown:
                raise _ApiError(400, f"unknown submission fields: {sorted(unknown)}")
        else:
            plan_payload, options = body, {}
        try:
            job = self.server.job_queue.submit(
                plan_payload,
                executor=options.get("executor"),
                jobs=options.get("jobs"),
                seed=options.get("seed", 0),
                trace=self.headers.get(TRACE_HEADER),
            )
        except (PlanError, ValueError) as error:
            raise _ApiError(400, str(error)) from error
        except UnknownPluginError as error:
            raise _ApiError(
                400, str(error.args[0] if error.args else error)
            ) from error
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

    def _get_fleet_metrics(self, as_json: bool) -> None:
        snapshot = self.server.job_queue.rollup.fleet_snapshot(
            local=default_registry().snapshot()
        )
        if as_json:
            return self._send_json(snapshot)
        self._send_body(render_snapshot_prometheus(snapshot).encode("utf-8"), _PROMETHEUS_TEXT)

    def _post_worker_metrics(self, worker_id: str) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise _ApiError(400, "metrics push body must be a JSON object")
        label = body.get("label")
        if label is not None and not isinstance(label, str):
            raise _ApiError(400, f"metrics push label must be a string, got {label!r}")
        try:
            self.server.job_queue.rollup.push(
                worker_id, body.get("snapshot"), label=label
            )
        except RollupError as error:
            raise _ApiError(400, str(error)) from error
        self._send_json({"worker": worker_id, "status": "accepted"})

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
        self.send_header("Connection", "close")  # read to EOF
        self.end_headers()
        index = 0
        last_write = time.monotonic()
        try:
            while True:
                events, done = self._store.wait_for_events(
                    job_id, index, timeout=_STREAM_POLL_SECONDS
                )
                for event in events:
                    self.wfile.write((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
                index += len(events)
                if events:
                    self.wfile.flush()
                    last_write = time.monotonic()
                if done and not events:
                    return  # terminal and fully replayed
                if self.server.closing:
                    return
                if time.monotonic() - last_write >= self.server.events_keepalive:
                    # Nothing happened for a while: emit a keepalive line
                    # so idle watches (figure steps can run for minutes)
                    # are never starved by proxies or read timeouts.
                    line = json.dumps(
                        {"event": "keepalive", "job": job_id, "time": time.time()},
                        sort_keys=True,
                    )
                    self.wfile.write((line + "\n").encode("utf-8"))
                    self.wfile.flush()
                    last_write = time.monotonic()
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover - client hangup
            return

    # ------------------------------------------------------------------
    # Fleet handlers (see repro.service.fleet)
    # ------------------------------------------------------------------
    @property
    def _leases(self):
        return self.server.job_queue.lease_manager

    def _send_no_content(self) -> None:
        self.send_response(204)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _get_fleet(self) -> None:
        self._send_json(self._leases.status())

    def _post_worker_register(self) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise _ApiError(400, "registration body must be a JSON object")
        name = body.get("name")
        if name is not None and not isinstance(name, str):
            raise _ApiError(400, f"worker name must be a string, got {name!r}")
        self._send_json(self._leases.register_worker(name))

    def _post_lease_claim(self) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise _ApiError(400, "claim body must be a JSON object")
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker:
            raise _ApiError(400, f"claim needs a 'worker' id string, got {worker!r}")
        timeout = body.get("timeout", 0.0)
        if not isinstance(timeout, (int, float)) or isinstance(timeout, bool) or timeout < 0:
            raise _ApiError(400, f"timeout must be a non-negative number, got {timeout!r}")
        # Long poll in short slices so a closing server releases the
        # connection promptly instead of holding workers for the full
        # client-requested horizon.
        deadline = time.monotonic() + min(float(timeout), _CLAIM_POLL_MAX_SECONDS)
        while True:
            remaining = deadline - time.monotonic()
            lease = self._leases.claim(worker, timeout=max(0.0, min(1.0, remaining)))
            if lease is not None:
                return self._send_json(lease)
            if remaining <= 0 or self.server.closing:
                return self._send_no_content()

    @staticmethod
    def _worker_field(body: dict) -> str:
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker:
            raise _ApiError(400, f"request needs a 'worker' id string, got {worker!r}")
        return worker

    def _post_lease_heartbeat(self, lease_id: str) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise _ApiError(400, "heartbeat body must be a JSON object")
        try:
            self._send_json(self._leases.heartbeat(lease_id, self._worker_field(body)))
        except UnknownLeaseError as error:
            raise _ApiError(404, str(error.args[0] if error.args else error)) from error
        except StaleLeaseError as error:
            raise _ApiError(409, str(error)) from error
        except LeaseError as error:
            raise _ApiError(400, str(error)) from error

    def _post_lease_complete(self, lease_id: str) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise _ApiError(400, "completion body must be a JSON object")
        try:
            self._send_json(
                self._leases.complete(
                    lease_id,
                    self._worker_field(body),
                    measurements=body.get("measurements"),
                    error=body.get("error"),
                )
            )
        except UnknownLeaseError as error:
            raise _ApiError(404, str(error.args[0] if error.args else error)) from error
        except StaleLeaseError as error:
            raise _ApiError(409, str(error)) from error
        except LeaseError as error:
            raise _ApiError(400, str(error)) from error


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
        executor: str = "serial",
        jobs: Optional[int] = None,
        workers: int = 1,
        verbose: bool = False,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        events_keepalive_seconds: float = DEFAULT_EVENTS_KEEPALIVE_SECONDS,
        trace: Union[str, Path, None] = None,
        autoscale: Optional[Tuple[int, int]] = None,
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
                executor=executor,
                jobs=jobs,
                workers=workers,
                lease_ttl=lease_ttl,
                trace=trace,
            )
        except BaseException:
            self._http.server_close()
            raise
        self._http.job_queue = self.queue
        self._thread: Optional[threading.Thread] = None
        self._served = False
        self._closed = False
        # The autoscaler connects its in-process workers to this
        # server's own URL (the socket is already bound), sharing the
        # queue's trace writer so worker spans land in the same file.
        self.autoscaler = None
        if autoscale is not None:
            from .fleet.autoscale import Autoscaler

            low, high = autoscale
            self.autoscaler = Autoscaler(
                url=self.url,
                manager=self.queue.lease_manager,
                min_workers=low,
                max_workers=high,
                trace_writer=self.queue.trace_writer,
            )

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
                name="repro-service-http",
                daemon=True,
            )
            self._thread.start()
            if self.autoscaler is not None:
                self.autoscaler.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``serve`` CLI's main loop)."""

        self._served = True
        if self.autoscaler is not None:
            self.autoscaler.start()
        self._http.serve_forever()

    def close(self, drain: bool = True) -> None:
        """Stop the HTTP listener, drain the queue, join the workers."""

        if self._closed:
            return
        self._closed = True
        if self.autoscaler is not None:
            # Workers first: they talk HTTP to this very server, so
            # requests must keep being served while they finish their
            # leases and push their final metrics.  In the CLI path the
            # main-thread accept loop has already exited (Ctrl-C broke
            # out of serve_forever), so run it on a helper thread for
            # the duration of the drain; shutdown() below stops it.
            if self._served and self._thread is None:
                self._thread = threading.Thread(
                    target=self._http.serve_forever,
                    name="repro-service-drain",
                    daemon=True,
                )
                self._thread.start()
            self.autoscaler.stop()
        self._http.closing = True
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
    executor: str = "serial",
    jobs: Optional[int] = None,
    workers: int = 1,
    verbose: bool = False,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    trace: Union[str, Path, None] = None,
    autoscale: Optional[Tuple[int, int]] = None,
) -> ReproServer:
    """Build and start a :class:`ReproServer` (the ``serve`` CLI backend)."""

    return ReproServer(
        host=host,
        port=port,
        profile_store=profile_store,
        executor=executor,
        jobs=jobs,
        workers=workers,
        verbose=verbose,
        lease_ttl=lease_ttl,
        trace=trace,
        autoscale=autoscale,
    ).start()


__all__ = ["DEFAULT_EVENTS_KEEPALIVE_SECONDS", "ReproServer", "serve"]
