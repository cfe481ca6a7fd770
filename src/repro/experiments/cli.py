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
    python -m repro.experiments metrics --url http://127.0.0.1:8765
    python -m repro.experiments metrics --grep 'repro_jobs'
    python -m repro.experiments trace ls --file trace.jsonl
    python -m repro.experiments trace show TRACE_ID --file trace.jsonl
    python -m repro.experiments store stats profiles
    python -m repro.experiments store compact profiles
    python -m repro.experiments lint src tests --format json
    python -m repro.experiments lint --list-checks

Every verb has its own parser and accepts exactly the flags its handler
reads (``VERB --help`` lists them); any other flag exits with status 2.
A first argument that is not a verb starts a list of experiment ids.

Each invocation builds its own :class:`repro.api.Session` and passes it
to every experiment generator (``session=``), so a multi-experiment
invocation profiles each layer configuration once and nothing leaks
between runs through process-global state.  ``run-plan`` executes a
serialized :class:`repro.api.Plan` in this process, step by step in
plan order; unknown experiment ids exit with status 2 and list the
valid identifiers instead of dumping a traceback, and a closed output
pipe (``list | head -2``) exits with status 1 without one.  ``serve``
boots the long-lived :mod:`repro.service` HTTP front end, whose job
queue runs every submitted plan in its own process the way ``run-plan``
does, and ``submit`` ships a plan file to it.  ``store`` maintains a
profile store, and ``lint`` runs the repo's AST invariant
checkers (:mod:`repro.devtools.lint`) over source trees.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from ..api.target import TargetError, Target
from ..gpusim.device import DEVICES
from ..libraries.base import LIBRARIES
from .base import ExperimentResult
from .registry import UnknownExperimentError, available_experiments, run_experiment

_PROG = "repro-experiments"

#: Flags read by more than one verb, defined once.
_SHARED_FLAGS: Dict[str, Dict[str, Any]] = {
    "--json": dict(
        nargs="?", const="-", metavar="PATH",
        help="emit JSON, to PATH or ('-' or no value) to stdout",
    ),
    "--profile-store": dict(
        metavar="PATH",
        help=(
            "profile store directory (created if missing): measurements are "
            "read from it before simulating and recorded to it after; a "
            "single-file store is imported once with 'store compact PATH'"
        ),
    ),
    "--seed": dict(
        type=int, default=0,
        help="measurement-noise stream seed (default: 0, the shared stream)",
    ),
    "--trace": dict(
        metavar="PATH",
        help=(
            "append span records (one JSON object per line) to this "
            "flock-safe file; traced runs are bitwise identical to untraced ones"
        ),
    ),
    "--url": dict(
        default="http://127.0.0.1:8765",
        help="service base URL (default: %(default)s)",
    ),
}


def _flags(parser: argparse.ArgumentParser, *names: str) -> argparse.ArgumentParser:
    for name in names:
        parser.add_argument(name, **_SHARED_FLAGS[name])
    return parser


def _build_parsers() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The experiment-id parser and one parser per verb."""

    from .. import __version__

    verbs: Dict[str, argparse.ArgumentParser] = {}

    def verb(name: str, handler, description: str, *shared: str) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(prog=f"{_PROG} {name}", description=description)
        parser.set_defaults(handler=handler)
        verbs[name] = _flags(parser, *shared)
        return parser

    experiments = _flags(argparse.ArgumentParser(
        prog=_PROG,
        description="Regenerate the paper's figures and tables on the simulated targets.",
        epilog=(
            "verbs: list, targets, run-plan, serve, submit, metrics, "
            "trace, store, lint ('VERB --help' lists each verb's flags)"
        ),
    ), "--json", "--profile-store")
    experiments.set_defaults(handler=experiments_command)
    experiments.add_argument(
        "experiments", nargs="+", metavar="EXPERIMENT",
        help="experiment identifiers (e.g. fig14 table1) or 'all'",
    )
    experiments.add_argument(
        "--markdown", metavar="PATH", help="also write a paper-vs-measured markdown report"
    )
    experiments.add_argument("--version", action="version", version=f"{_PROG} {__version__}")

    verb("list", list_command, "Print every experiment identifier.")
    verb("targets", targets_command, "List every device x library pair and its compatibility.")

    run_plan = verb(
        "run-plan", run_plan_command,
        "Execute serialized plans in this process.",
        "--profile-store", "--seed", "--trace", "--json",
    )
    run_plan.add_argument("plans", nargs="+", metavar="PLAN")

    serve = verb(
        "serve", serve_command, "Boot the plan execution service and block until Ctrl-C.",
        "--profile-store", "--trace",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: %(default)s)"
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="TCP port to bind, 0 for an ephemeral port (default: %(default)s)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="job worker threads (default: %(default)s)"
    )

    submit = verb(
        "submit", submit_command, "Ship a plan file to a running service.", "--url", "--seed"
    )
    submit.add_argument("plan", metavar="PLAN")
    submit.add_argument(
        "--watch", action="store_true", help="stream the job's events and wait for its result"
    )

    metrics = verb(
        "metrics", metrics_command, "Scrape a running service's metrics.", "--url", "--json"
    )
    metrics.add_argument(
        "--grep", metavar="PATTERN",
        help="keep only families/series whose name or labels match this regular expression",
    )

    trace = verb("trace", trace_command, "Inspect a span trace file written via --trace.")
    actions = trace.add_subparsers(dest="action", required=True)
    file_flag = dict(required=True, metavar="PATH", help="the span JSONL file")
    trace_ls = _flags(
        actions.add_parser("ls", help="summarize every trace, newest first"), "--json"
    )
    trace_ls.add_argument("--file", **file_flag)
    trace_show = actions.add_parser("show", help="render one trace as a timing tree")
    trace_show.add_argument("trace_id", metavar="TRACE_ID")
    trace_show.add_argument("--file", **file_flag)
    trace_show.add_argument(
        "--metrics-json", metavar="PATH",
        help="a saved 'metrics --json' snapshot, for exemplars pointing at the trace",
    )

    store = verb("store", store_command, "Profile-store maintenance.")
    store.add_argument("action", choices=("compact", "stats", "init"))
    store.add_argument("path", metavar="PATH", type=Path)

    lint = verb("lint", lint_command, "Run the AST invariant checkers.")
    lint.add_argument(
        "paths", nargs="*", metavar="PATH", help="files or directories (default: src tests)"
    )
    lint.add_argument(
        "--select", action="append", metavar="CODES",
        help="run only these checker codes (comma-separated or repeated)",
    )
    lint.add_argument(
        "--ignore", action="append", metavar="CODES",
        help="skip these checker codes (comma-separated or repeated)",
    )
    lint.add_argument("--format", default="text", choices=("text", "json"))
    lint.add_argument(
        "--list-checks", action="store_true", help="list the registered checkers and exit"
    )
    return experiments, verbs


def _expand(requested: Iterable[str]) -> List[str]:
    expanded: List[str] = []
    for item in requested:
        if item.lower() == "all":
            expanded.extend(available_experiments())
        else:
            expanded.append(item.lower())
    return expanded


def run_many(experiment_ids: Iterable[str], session=None) -> List[ExperimentResult]:
    """Run several experiments (against one shared session) and return results."""

    return [
        run_experiment(experiment_id, session=session)
        for experiment_id in experiment_ids
    ]


def _print_simulation_summary(session) -> None:
    """The one-line accounting contract the CI smoke jobs grep for."""

    print(
        f"simulated {session.simulation_count()} configuration(s) in-process"
        + (f"; store: {session.store.stats()}" if session.store else "")
    )


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


def _load_plan(path: Path):
    """The plan at ``path``, or ``None`` after printing why it is unusable."""

    from ..api.plan import Plan, PlanError

    if not path.exists():
        print(f"plan file not found: {path}", file=sys.stderr)
        return None
    try:
        return Plan.from_json(path.read_text(encoding="utf-8"))
    except (PlanError, ValueError) as error:
        print(f"invalid plan {path}: {error}", file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# Verb handlers: each takes its parser's namespace, returns the exit code
# ----------------------------------------------------------------------
def experiments_command(args: argparse.Namespace) -> int:
    """Run experiment generators against one session and print their reports."""

    # One session per invocation: experiments share its runners (a layer
    # configuration measured by one figure is a memo hit for the next)
    # and nothing leaks into later programmatic calls through the
    # process-global convenience session.
    from ..api.session import Session

    try:
        session = Session(store=args.profile_store or None)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        results = run_many(_expand(args.experiments), session=session)
    except UnknownExperimentError as error:
        # The registry error already lists every valid identifier.
        print(str(error.args[0] if error.args else error), file=sys.stderr)
        return 2
    for result in results:
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
        _emit_json([
            {
                "experiment_id": result.experiment_id,
                "title": result.title,
                "description": result.description,
                "measured": result.measured,
                "paper": result.paper,
                "data": result.data,
            }
            for result in results
        ], args.json)
    return 0


def list_command(args: argparse.Namespace) -> int:
    for experiment_id in available_experiments():
        print(experiment_id)
    return 0


def targets_command(args: argparse.Namespace) -> int:
    for device in DEVICES.available():
        for library in LIBRARIES.available():
            try:
                target = Target(device, library)
            except TargetError:
                print(f"{device:<12} {library:<12} incompatible (api mismatch)")
            else:
                print(f"{device:<12} {library:<12} ok ({target.device_spec.api})")
    return 0


def run_plan_command(args: argparse.Namespace) -> int:
    """Execute serialized plans in this process."""

    from ..api.session import Session
    from ..obs.trace import TraceWriter, Tracer
    from ..service.results import describe_step_result, step_result_payload

    # A writer-less tracer is a no-op: span bookkeeping runs either way
    # (it is inert by contract), records hit disk only with --trace.
    tracer = Tracer(writer=TraceWriter(args.trace) if args.trace else None)
    payloads = []
    for path in map(Path, args.plans):
        plan = _load_plan(path)
        if plan is None:
            return 2
        try:
            session = Session(
                store=args.profile_store or None, seed=args.seed, tracer=tracer
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        with tracer.span("run-plan", plan=str(path)):
            results = session.execute(plan)
        print("=" * 72)
        print(f"plan {path} ({len(plan)} step(s))")
        for step in plan:
            print("-" * 72)
            print(f"[{step.id}] {step.kind}")
            print(describe_step_result(results[step.id]))
        print("-" * 72)
        _print_simulation_summary(session)
        payloads.append({
            "plan": str(path),
            "steps": {
                step.id: {"kind": step.kind, "result": step_result_payload(results[step.id])}
                for step in plan
            },
        })

    if args.trace:
        print(f"wrote {tracer.writer.written} span(s) to {args.trace}")
    if args.json:
        _emit_json(payloads, args.json)
    return 0


# ----------------------------------------------------------------------
# serve / submit / metrics (the repro.service front end)
# ----------------------------------------------------------------------
def serve_command(args: argparse.Namespace) -> int:
    """Boot the long-lived plan execution service and block until Ctrl-C."""

    from .. import __version__
    from ..service.server import ReproServer

    try:
        server = ReproServer(
            host=args.host,
            port=args.port,
            profile_store=args.profile_store or None,
            workers=args.workers,
            verbose=True,
            trace=args.trace or None,
        )
    except (OSError, ValueError) as error:
        detail = error.args[0] if error.args else error
        print(f"cannot start service: {detail}", file=sys.stderr)
        return 2
    print(f"repro-service {__version__} listening on {server.url}", flush=True)
    print(
        f"profile store: {server.queue.profile_store or '(none, in-memory only)'}; "
        f"workers: {args.workers}",
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


def submit_command(args: argparse.Namespace) -> int:
    """Ship a plan file to a running service (optionally watching it run)."""

    from ..service.client import ServiceClient, ServiceError

    path = Path(args.plan)
    plan = _load_plan(path)
    if plan is None:
        return 2

    client = ServiceClient(args.url)
    try:
        job = client.submit(plan, seed=args.seed)
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


# ----------------------------------------------------------------------
# trace / store / lint
# ----------------------------------------------------------------------
def trace_command(args: argparse.Namespace) -> int:
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

    try:
        spans = load_spans(args.file)
    except TraceViewError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.action == "ls":
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
        rendered = render_trace(spans, args.trace_id, snapshot=snapshot)
    except TraceViewError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0


def store_command(args: argparse.Namespace) -> int:
    """Profile-store maintenance: ``store {compact|stats|init} PATH``.

    ``compact`` on a single-file store (the format before store
    directories) imports it into a store directory at the same path.
    """

    from ..profiling.store import ProfileStore, ProfileStoreError, import_flat_store

    action, path = args.action, args.path
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


def lint_command(args: argparse.Namespace) -> int:
    """Hand the parsed ``lint`` flags to :mod:`repro.devtools.lint` (imported on use)."""

    from ..devtools.lint.cli import lint_command as run_lint_command

    return run_lint_command(args)


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    experiments, verbs = _build_parsers()
    verb = verbs.get(argv[0].lower()) if argv else None
    args = verb.parse_args(argv[1:]) if verb else experiments.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``... | head``).  As the SIGPIPE note in
        # the ``signal`` module docs advises: point stdout at devnull so
        # the interpreter's final flush cannot fail again, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
