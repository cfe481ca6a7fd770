"""Outside-in span recording around the public entry points of each layer.

The benchmark's traced run installs a :class:`Recorder` that replaces a
few public functions and methods *where their callers look them up*
(``repro.profiling.runner.simulate_batch``, not ``repro.gpusim``'s
copy) with timing wrappers.  Every call becomes one span — name, start,
end, parent span, job id — kept in memory and written out only when the
run ends.  Counts (calls, configurations, kernels, bytes) are taken at
the same boundaries.  Nothing in ``src/`` is modified; uninstalling
restores the original attributes.

A layer's *self time* is the sum of its spans' durations minus the time
their direct child spans cover.  Spans nest per thread, so the service
worker thread and the client thread keep separate stacks.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: One recorded span: (name, start, end, parent index or -1, job id).
Span = Tuple[str, float, float, int, Optional[str]]

#: Counter callback: (counts, args, kwargs, result) -> None.
CountFn = Callable[[Counter, tuple, dict, Any], None]


class Recorder:
    """In-memory spans and counts for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Distinct staircase tables seen by ``analyze_table``.
        self.tables: set = set()

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def job(self) -> Optional[str]:
        return getattr(self._local, "job", None)

    @job.setter
    def job(self, value: Optional[str]) -> None:
        self._local.job = value

    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Call ``fn`` inside a span named ``name``; return its result."""

        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, self.job))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            _, _, _, parent, job = self.spans[index]
            self.spans[index] = (name, start, end, parent, job)

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; undone by :meth:`uninstall`."""

        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Union[str, Callable[[tuple], str]],
        count: Optional[CountFn] = None,
    ) -> None:
        """Record every call of ``owner.attr`` as a span named ``name``.

        ``name`` may be a function of the call's positional arguments.
        """

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_name = name if isinstance(name, str) else name(args)
                result = self.span(span_name, original, args, kwargs)
                if count is not None:
                    with self._lock:
                        count(self.counts, args, kwargs, result)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""

        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name, in seconds."""

        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line (called after timing ends)."""

        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")


def install_layer_wrappers(recorder: Recorder) -> None:
    """Wrap every layer's public entry points (see README.md for the list)."""

    from repro.api import session as session_mod
    from repro.core import design, perf_aware, staircase
    from repro.experiments import cli
    from repro.libraries.base import ConvolutionLibrary
    from repro.profiling import runner as runner_mod
    from repro.profiling.store import ProfileStore
    from repro.service.jobs import JobStore

    def count_execute(counts, args, kwargs, result):
        counts["api.steps"] += len(args[1])

    def count_plan(counts, args, kwargs, result):
        counts["libraries.plan_calls"] += 1
        counts["libraries.kernels"] += len(result.kernels)

    def count_simulate(counts, args, kwargs, result):
        counts["gpusim.simulate_calls"] += 1
        counts["gpusim.configs"] += len(result)

    def count_measure(counts, args, kwargs, result):
        counts["runner.measure_calls"] += 1

    def count_noise(counts, args, kwargs, result):
        counts["runner.simulations"] += int(result.shape[0])

    def count_lookup(counts, args, kwargs, result):
        found, missing = result
        counts["store.lookup_calls"] += 1
        counts["store.requested"] += len(found) + len(missing)
        counts["store.served"] += len(found)

    def count_record(counts, args, kwargs, result):
        counts["store.record_calls"] += 1

    def count_analyze(counts, args, kwargs, result):
        table = args[0]
        counts["staircase.analyze_calls"] += 1
        recorder.tables.add((table.layer_name,) + tuple(map(tuple, table.as_series())))

    recorder.wrap(session_mod.Session, "execute", "api.execute", count_execute)
    recorder.wrap(ConvolutionLibrary, "plan_with_channels", "libraries.plan", count_plan)
    recorder.wrap(runner_mod, "simulate_batch", "gpusim.simulate", count_simulate)
    recorder.wrap(runner_mod.ProfileRunner, "measure_many", "runner.measure", count_measure)
    recorder.wrap(runner_mod, "noise_matrix", "runner.noise", count_noise)
    recorder.wrap(ProfileStore, "lookup", "store.lookup", count_lookup)
    recorder.wrap(ProfileStore, "record", "store.record", count_record)
    for module in (session_mod, perf_aware, design, staircase):
        recorder.wrap(module, "analyze_table", "staircase.analyze", count_analyze)
    recorder.wrap(perf_aware.PerformanceAwarePruner, "snap_to_step", "perf_aware.snap")

    recorder.wrap(cli, "run_experiment", lambda args: f"experiments.{args[0]}")

    # Attribute the service worker thread's spans to the job it runs:
    # the queue claims a job through mark_running and ends it through
    # finish, both on the worker thread.
    def tag_job(original):
        def mark_running(store, job_id, *args, **kwargs):
            recorder.job = job_id
            return original(store, job_id, *args, **kwargs)

        return mark_running

    def untag_job(original):
        def finish(store, job_id, *args, **kwargs):
            try:
                return original(store, job_id, *args, **kwargs)
            finally:
                recorder.job = None

        return finish

    recorder.patch(JobStore, "mark_running", tag_job)
    recorder.patch(JobStore, "finish", untag_job)
