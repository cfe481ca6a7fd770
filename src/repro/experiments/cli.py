"""Command-line entry point: regenerate paper figures and tables.

Usage::

    python -m repro.experiments list
    python -m repro.experiments targets
    python -m repro.experiments fig14
    python -m repro.experiments table1 table5 --json out.json
    python -m repro.experiments all
    python -m repro.experiments run-plan plan.json --profile-store profiles
    python -m repro.experiments run-plan plan.json --trace trace.jsonl
    python -m repro.experiments serve --port 8765 --profile-store profiles
    python -m repro.experiments submit plan.json --url http://127.0.0.1:8765 --watch
    python -m repro.experiments worker --url http://127.0.0.1:8765
    python -m repro.experiments serve --executor remote
    python -m repro.experiments metrics --url http://127.0.0.1:8765
    python -m repro.experiments metrics --grep 'repro_lease'
    python -m repro.experiments trace ls --file trace.jsonl
    python -m repro.experiments trace show TRACE_ID --file trace.jsonl
    python -m repro.experiments store stats profiles
    python -m repro.experiments store compact profiles
    python -m repro.experiments lint src tests --format json
    python -m repro.experiments lint --list-checks

Each invocation builds its own :class:`repro.api.Session` and passes it
to every experiment generator (``session=``), so a multi-experiment
invocation profiles each layer configuration once and nothing leaks
between runs through process-global state.  ``run-plan`` executes a
serialized :class:`repro.api.Plan` in this process (``serial``, steps
scheduled over the plan's dependency graph); unknown experiment ids
and executors exit with status 2 and list the valid identifiers
instead of dumping a traceback.  ``serve`` boots the
long-lived :mod:`repro.service` HTTP front end, ``submit`` ships a
plan file to it and ``worker`` joins its measurement fleet — a
pull-based agent claiming work leases over HTTP, which is what jobs
submitted with ``--executor remote`` run on.  ``store`` maintains a
profile store, and ``lint`` runs the repo's AST invariant
checkers (:mod:`repro.devtools.lint`) over source trees.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable, List

from ..api.target import TargetError, Target
from ..gpusim.device import DEVICES
from ..libraries.base import LIBRARIES
from .base import ExperimentResult
from .registry import UnknownExperimentError, available_experiments, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures and tables on the simulated targets.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro-experiments {__version__}"
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=(
            "experiment identifiers (e.g. fig14 table1), 'all', 'list', "
            "'targets', 'run-plan PLAN.json [...]', 'serve', "
            "'submit PLAN.json', 'worker', 'metrics', "
            "'trace {ls|show TRACE_ID}', "
            "'store {compact|stats|init} PATH', or 'lint [PATHS]'"
        ),
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=(
            "write results as JSON to PATH ('-' or no value: stdout; "
            "metrics/trace: emit the JSON form instead of text)"
        ),
    )
    parser.add_argument(
        "--profile-store",
        metavar="PATH",
        help=(
            "persist layer measurements to a profile store directory "
            "(created if missing) and reuse them across invocations (a "
            "repeated experiment re-simulates nothing); a single-file "
            "store is imported once with 'store compact PATH'"
        ),
    )
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        help="also write a paper-vs-measured markdown report",
    )
    parser.add_argument(
        "--executor",
        default=None,
        metavar="NAME",
        help=(
            "executor backend: serial or remote "
            "(run-plan/serve default: serial; submit defaults to the "
            "server's configured executor; remote needs a serving "
            "service with workers attached)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="SEED",
        help=(
            "run-plan/submit measurement-noise stream seed "
            "(default: 0, the shared stream)"
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="HOST",
        help="serve: interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        metavar="PORT",
        help="serve: TCP port to bind, 0 for an ephemeral port (default: 8765)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="serve: job worker threads (default: 1)",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        metavar="URL",
        help="submit/worker: service base URL (default: http://127.0.0.1:8765)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="submit: stream the job's events and wait for its result",
    )
    parser.add_argument(
        "--grep",
        default=None,
        metavar="PATTERN",
        help=(
            "metrics: keep only metric families/series whose name or "
            "labels match this regular expression"
        ),
    )
    parser.add_argument(
        "--file",
        default=None,
        metavar="PATH",
        help="trace: the span JSONL file written via --trace",
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help=(
            "trace show: a saved metrics snapshot (from 'metrics --json') "
            "to cross-reference histogram exemplars pointing at the trace"
        ),
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "serve: heartbeat deadline for fleet work leases; a worker "
            "silent this long loses its lease (default: 30)"
        ),
    )
    parser.add_argument(
        "--name",
        default=None,
        metavar="NAME",
        help="worker: human-readable worker name shown in GET /v1/fleet",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="worker: seconds each claim request long-polls (default: 5)",
    )
    parser.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="worker: exit after this many consecutive idle seconds",
    )
    parser.add_argument(
        "--max-leases",
        type=int,
        default=None,
        metavar="N",
        help="worker: exit after completing this many leases",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "run-plan/serve/worker: append span records (one JSON object "
            "per line) to this flock-safe trace file; tracing is inert — "
            "traced runs are bitwise identical to untraced ones"
        ),
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="CODES",
        help=(
            "lint: run only these checker codes (comma-separated or "
            "repeated, e.g. --select RL001,RL002)"
        ),
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="CODES",
        help="lint: skip these checker codes (comma-separated or repeated)",
    )
    parser.add_argument(
        "--format",
        default=None,
        choices=("text", "json"),
        help="lint: report format (default: text)",
    )
    parser.add_argument(
        "--list-checks",
        action="store_true",
        help="lint: list the registered checkers and exit",
    )
    return parser


def _expand(requested: Iterable[str]) -> List[str]:
    expanded: List[str] = []
    for item in requested:
        if item.lower() == "all":
            expanded.extend(available_experiments())
        else:
            expanded.append(item.lower())
    return expanded


def print_targets() -> None:
    """List every registered device x library pair and its compatibility."""

    for device in DEVICES.available():
        for library in LIBRARIES.available():
            try:
                target = Target(device, library)
            except TargetError:
                print(f"{device:<12} {library:<12} incompatible (api mismatch)")
            else:
                print(f"{device:<12} {library:<12} ok ({target.device_spec.api})")


def run_many(experiment_ids: Iterable[str], session=None) -> List[ExperimentResult]:
    """Run several experiments (against one shared session) and return results."""

    return [
        run_experiment(experiment_id, session=session)
        for experiment_id in experiment_ids
    ]


# ----------------------------------------------------------------------
# run-plan subcommand
# ----------------------------------------------------------------------
def _describe_step_result(result: Any) -> str:
    """A terse, human-readable digest of one step's result."""

    from ..service.results import describe_step_result

    return describe_step_result(result)


def _step_result_payload(result: Any) -> Any:
    """A JSON-serializable projection of one step's result."""

    from ..service.results import step_result_payload

    return step_result_payload(result)


def _print_simulation_summary(session) -> None:
    """The one-line accounting contract the CI smoke jobs grep for."""

    print(
        f"simulated {session.simulation_count()} configuration(s) in-process"
        + (f"; store: {session.store.stats()}" if session.store else "")
    )


def run_plan_command(plan_paths: List[str], args: argparse.Namespace) -> int:
    """Execute serialized plans under the requested executor backend."""

    from ..api.executor import ExecutionError
    from ..api.plan import Plan, PlanError
    from ..api.registry import UnknownPluginError
    from ..api.session import Session
    from ..obs.trace import TraceWriter, Tracer

    if not plan_paths:
        print("run-plan needs at least one plan file", file=sys.stderr)
        return 2

    executor = args.executor or "serial"
    # A writer-less tracer is a no-op: span bookkeeping runs either way
    # (it is inert by contract), records hit disk only with --trace.
    tracer = Tracer(writer=TraceWriter(args.trace) if args.trace else None)
    payloads = []
    for plan_path in plan_paths:
        path = Path(plan_path)
        if not path.exists():
            print(f"plan file not found: {path}", file=sys.stderr)
            return 2
        try:
            plan = Plan.from_json(path.read_text(encoding="utf-8"))
        except (PlanError, ValueError) as error:
            print(f"invalid plan {path}: {error}", file=sys.stderr)
            return 2
        try:
            session = Session(
                store=args.profile_store or None, seed=args.seed, tracer=tracer
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        try:
            with tracer.span("run-plan", plan=str(path), executor=executor):
                results = session.execute(plan, executor=executor)
        except UnknownPluginError as error:
            print(str(error.args[0] if error.args else error), file=sys.stderr)
            return 2
        except ExecutionError as error:
            # e.g. --executor remote outside a serving service: the
            # executor explains how to wire up a fleet instead of
            # dumping a traceback.
            print(str(error), file=sys.stderr)
            return 2
        print("=" * 72)
        print(f"plan {path} ({len(plan)} step(s), executor={executor})")
        for step in plan:
            print("-" * 72)
            print(f"[{step.id}] {step.kind}")
            print(_describe_step_result(results[step.id]))
        print("-" * 72)
        _print_simulation_summary(session)
        payloads.append({
            "plan": str(path),
            "executor": executor,
            "steps": {
                step.id: {"kind": step.kind, "result": _step_result_payload(results[step.id])}
                for step in plan
            },
        })

    if args.trace:
        print(f"wrote {tracer.writer.written} span(s) to {args.trace}")
    if args.json:
        _emit_json(payloads, args.json)
    return 0


# ----------------------------------------------------------------------
# serve / submit subcommands (the repro.service front end)
# ----------------------------------------------------------------------
def serve_command(args: argparse.Namespace) -> int:
    """Boot the long-lived plan execution service and block until Ctrl-C."""

    from .. import __version__
    from ..api.registry import UnknownPluginError
    from ..service.fleet.leases import DEFAULT_LEASE_TTL, LeaseError
    from ..service.server import ReproServer

    try:
        server = ReproServer(
            host=args.host,
            port=args.port,
            profile_store=args.profile_store or None,
            executor=args.executor or "serial",
            workers=args.workers,
            verbose=True,
            lease_ttl=args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL,
            trace=args.trace or None,
        )
    except (OSError, ValueError, UnknownPluginError, LeaseError) as error:
        detail = error.args[0] if error.args else error
        print(f"cannot start service: {detail}", file=sys.stderr)
        return 2
    print(f"repro-service {__version__} listening on {server.url}", flush=True)
    print(
        f"profile store: {server.queue.profile_store or '(none, in-memory only)'}; "
        f"default executor: {args.executor or 'serial'}; workers: {args.workers}; "
        f"lease ttl: {server.queue.lease_manager.lease_ttl:g}s",
        flush=True,
    )
    if args.trace:
        print(f"tracing job spans to {args.trace}", flush=True)
    _install_interrupt_handlers()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down: draining queued jobs...", flush=True)
    finally:
        server.close()
    return 0


def _install_interrupt_handlers() -> None:
    """Make ``kill -INT``/``kill -TERM`` interrupt the serving loop.

    Backgrounded children of non-interactive shells (``serve ... &`` in
    a CI script) inherit SIGINT as *ignored*, and Python honours the
    inherited disposition — ``kill -INT`` would be a silent no-op and
    the shutdown steps would time out.  Re-installing the handler here
    restores Ctrl-C semantics regardless of how we were launched.
    """

    import signal

    def _interrupt(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGINT, _interrupt)
        signal.signal(signal.SIGTERM, _interrupt)
    except (ValueError, OSError):  # not the main thread (tests) / exotic platform
        pass


def submit_command(plan_paths: List[str], args: argparse.Namespace) -> int:
    """Ship a plan file to a running service (optionally watching it run)."""

    from ..api.plan import Plan, PlanError
    from ..service.client import ServiceClient, ServiceError

    if len(plan_paths) != 1:
        print("submit needs exactly one plan file", file=sys.stderr)
        return 2
    path = Path(plan_paths[0])
    if not path.exists():
        print(f"plan file not found: {path}", file=sys.stderr)
        return 2
    try:
        plan = Plan.from_json(path.read_text(encoding="utf-8"))
    except (PlanError, ValueError) as error:
        print(f"invalid plan {path}: {error}", file=sys.stderr)
        return 2

    client = ServiceClient(args.url)
    try:
        job = client.submit(plan, executor=args.executor, seed=args.seed)
        print(f"submitted {path} as {job['id']} ({job['status']}) to {args.url}")
        if not args.watch:
            return 0
        for event in client.iter_events(job["id"]):
            step = f" {event['step']}" if "step" in event else ""
            status = f" {event['status']}" if "status" in event else ""
            print(f"[{job['id']}] {event['event']}{step}{status}", flush=True)
        final = client.job(job["id"])
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 2
    simulations = final.get("simulations")
    print(
        f"job {final['id']} {final['status']}; "
        f"simulated {0 if simulations is None else simulations} configuration(s)"
    )
    # Per-step wall timings, straight from the job record the workers
    # stamped while running (duration_ms is measured server-side).
    for record in final.get("steps") or []:
        duration_ms = record.get("duration_ms")
        timing = (
            f"{duration_ms:.1f} ms"
            if isinstance(duration_ms, (int, float))
            else "not run"
        )
        print(f"  step {record['id']} [{record['kind']}] {record['status']}: {timing}")
    if final["status"] == "failed" and final.get("error"):
        print(final["error"], file=sys.stderr)
    return 0 if final["status"] == "succeeded" else 1


def worker_command(args: argparse.Namespace) -> int:
    """Join a running service's measurement fleet and pull work leases."""

    from ..service.client import ServiceError
    from ..service.fleet.worker import run_worker

    _install_interrupt_handlers()
    try:
        completed = run_worker(
            args.url,
            name=args.name,
            poll=args.poll,
            max_idle=args.max_idle,
            max_leases=args.max_leases,
            on_event=lambda message: print(message, flush=True),
            trace=args.trace or None,
        )
    except KeyboardInterrupt:
        print("worker interrupted; letting any held lease expire", flush=True)
        return 0
    except (ServiceError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"worker done: {completed} lease(s) completed", flush=True)
    return 0


def metrics_command(args: argparse.Namespace) -> int:
    """Scrape a running service's metrics (Prometheus text format).

    The plain verb is a raw passthrough of ``GET /v1/metrics`` (CI
    diffs it byte-for-byte against curl).  ``--grep`` filters
    families/series through :func:`repro.obs.metrics.filter_snapshot`;
    ``--json`` emits the snapshot's JSON wire form (to stdout, or to a
    path).
    """

    import re

    from ..obs.metrics import filter_snapshot, render_snapshot_prometheus
    from ..service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.grep is None and args.json is None:
            # Raw text passthrough: must stay byte-identical to curl.
            text = client.metrics_text()
            print(text, end="" if text.endswith("\n") else "\n")
            return 0
        snapshot = client.metrics()
    except ServiceError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.grep is not None:
        try:
            snapshot = filter_snapshot(snapshot, args.grep)
        except re.error as error:
            print(f"bad --grep pattern: {error}", file=sys.stderr)
            return 2
    if args.json is not None:
        return _emit_json(snapshot, args.json)
    text = render_snapshot_prometheus(snapshot)
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _emit_json(payload: Any, target: str) -> int:
    """Write ``payload`` as JSON to a path, or stdout for ``-``."""

    text = json.dumps(payload, indent=2, sort_keys=True)
    if target == "-":
        print(text)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {target}")
    return 0


def trace_command(rest: List[str], args: argparse.Namespace) -> int:
    """Inspect a span trace file: ``trace ls`` / ``trace show TRACE_ID``.

    ``trace ls --file X`` summarizes every trace in the JSONL (newest
    first); ``trace show TRACE_ID --file X`` stitches that trace's spans
    — across every process that shared the file — into an indented
    timing tree, optionally cross-referencing a saved metrics snapshot
    (``--metrics-json``) for histogram exemplars pointing at the trace.
    """

    from ..obs.traceview import (
        TraceViewError,
        list_traces,
        load_spans,
        render_trace,
    )

    if not rest or rest[0] not in ("ls", "show"):
        print("usage: repro-experiments trace {ls|show TRACE_ID} --file PATH",
              file=sys.stderr)
        return 2
    if args.file is None:
        print("trace needs --file PATH (the JSONL written via --trace)",
              file=sys.stderr)
        return 2
    try:
        spans = load_spans(args.file)
    except TraceViewError as error:
        print(str(error), file=sys.stderr)
        return 2

    if rest[0] == "ls":
        if len(rest) != 1:
            print("usage: repro-experiments trace ls --file PATH", file=sys.stderr)
            return 2
        summaries = list_traces(spans)
        if args.json is not None:
            return _emit_json(summaries, args.json)
        if not summaries:
            print(f"no spans in {args.file}")
            return 0
        print(f"{'TRACE':<34} {'SPANS':>5} {'ERRORS':>6} {'DURATION':>10}  ROOT")
        for row in summaries:
            print(
                f"{row['trace']:<34} {row['spans']:>5} {row['errors']:>6} "
                f"{row['duration_ms']:>8.1f}ms  {row['root']}"
            )
        return 0

    if len(rest) != 2:
        print("usage: repro-experiments trace show TRACE_ID --file PATH",
              file=sys.stderr)
        return 2
    snapshot = None
    if args.metrics_json is not None:
        path = Path(args.metrics_json)
        if not path.exists():
            print(f"metrics snapshot not found: {path}", file=sys.stderr)
            return 2
        try:
            snapshot = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as error:
            print(f"invalid metrics snapshot {path}: {error}", file=sys.stderr)
            return 2
    try:
        rendered = render_trace(spans, rest[1], snapshot=snapshot)
    except TraceViewError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0


def store_command(rest: List[str]) -> int:
    """Profile-store maintenance: ``store {compact|stats|init} PATH``.

    ``compact`` on a single-file store (the format before store
    directories) imports it into a store directory at the same path.
    """

    from ..profiling.store import ProfileStore, ProfileStoreError, import_flat_store

    if len(rest) != 2 or rest[0] not in ("compact", "stats", "init"):
        print("usage: repro-experiments store {compact|stats|init} PATH", file=sys.stderr)
        return 2
    action, path_text = rest
    path = Path(path_text)

    if action == "init":
        try:
            ProfileStore(path)
        except ProfileStoreError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(f"initialized profile store {path}")
        return 0

    if not path.exists():
        print(f"profile store not found: {path}", file=sys.stderr)
        return 2
    imported = action == "compact" and path.is_file()
    if imported:
        size, dropped = path.stat().st_size, import_flat_store(path)
        print(f"imported {path} into a profile store directory")
    try:
        store = ProfileStore(path)
    except ProfileStoreError as error:
        print(str(error), file=sys.stderr)
        return 2

    if action == "stats":
        stats = store.file_stats()
        print(f"profile store {path}")
        print(f"  size:         {stats['bytes']} bytes in {stats['lines']} line(s)")
        print(f"  entries:      {stats['entries']} distinct configuration(s)")
        print(f"  measurements: {stats['measurements']} recorded (duplicates included)")
        print(f"  compactable:  {stats['superseded']} superseded or unreadable entr(y/ies)")
        for target in sorted(stats["by_target"]):
            per_target = stats["by_target"][target]
            print(
                f"  target {target}: {per_target['entries']} entr(y/ies), "
                f"{per_target['measurements']} measurement(s)"
            )
        for shard in sorted(stats["shards"]):
            per_shard = stats["shards"][shard]
            print(
                f"  shard {shard}: {per_shard['entries']} entr(y/ies), "
                f"{per_shard['measurements']} measurement(s), "
                f"{per_shard['bytes']} bytes"
            )
        return 0

    if not imported:
        size, dropped = store.file_stats()["bytes"], store.compact()
    after = store.file_stats()
    print(
        f"compacted {path}: dropped {dropped} duplicate/unreadable entr(y/ies), "
        f"{size} -> {after['bytes']} bytes, "
        f"{after['entries']} configuration(s) in {after['lines']} line(s)"
    )
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    first = args.experiments[0].lower()
    if first == "run-plan":
        return run_plan_command(args.experiments[1:], args)
    if first == "serve":
        return serve_command(args)
    if first == "submit":
        return submit_command(args.experiments[1:], args)
    if first == "worker":
        return worker_command(args)
    if first == "metrics":
        return metrics_command(args)
    if first == "trace":
        return trace_command(args.experiments[1:], args)
    if first == "store":
        return store_command(args.experiments[1:])
    if first == "lint":
        from ..devtools.lint.cli import lint_command

        return lint_command(args.experiments[1:], args)

    if len(args.experiments) == 1 and args.experiments[0].lower() == "list":
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0

    if len(args.experiments) == 1 and args.experiments[0].lower() == "targets":
        print_targets()
        return 0

    # One session per invocation: experiments share its caches (a layer
    # configuration profiled by one figure is a cache hit for the next)
    # and nothing leaks into later programmatic calls through the
    # process-global convenience session.
    from ..api.session import Session

    try:
        session = Session(max_cache_entries=None, store=args.profile_store or None)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    experiment_ids = _expand(args.experiments)
    results = []
    for experiment_id in experiment_ids:
        try:
            result = run_experiment(experiment_id, session=session)
        except UnknownExperimentError as error:
            # The registry error already lists every valid identifier.
            print(str(error.args[0] if error.args else error), file=sys.stderr)
            return 2
        results.append(result)
        print("=" * 72)
        print(result.text)
        print("-" * 72)
        print(result.summary())
        print()

    _print_simulation_summary(session)

    if args.markdown:
        from .report import write_markdown_report

        write_markdown_report(results, args.markdown)
        print(f"wrote {args.markdown}")

    if args.json:
        payload = [
            {
                "experiment_id": result.experiment_id,
                "title": result.title,
                "description": result.description,
                "measured": result.measured,
                "paper": result.paper,
                "data": result.data,
            }
            for result in results
        ]
        _emit_json(payload, args.json)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
