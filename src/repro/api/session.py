"""The ``Session``: shared runners and the high-level pruning entry point.

A :class:`Session` owns one memoising
:class:`~repro.profiling.runner.ProfileRunner` per
:class:`~repro.api.target.Target`.  The runner's measurement memo is
the only cache: a layer profile (latency table plus staircase
analysis) is rebuilt from it on every call, so the same layer profiled
twice simulates once.  :meth:`Session.simulation_count` shows it.

``Session`` is also the front door for pruning jobs: feed it a
serializable :class:`~repro.api.pipeline.PruningRequest` and get a
:class:`~repro.api.pipeline.PruningReport` back, byte-for-byte
reproducing what a :class:`~repro.core.perf_aware.PerformanceAwarePruner`
computes for the same parameters.

Execution is plan-based: ``sweep``/``prune``/``compare``/
``profile_network`` each build a one-step
:class:`~repro.api.plan.Plan` and hand it to :meth:`Session.execute`,
which runs the steps in plan order; the service's job queue runs each
step of a job through it too.  The counter-based measurement noise
stream makes the results bitwise identical however the steps are
grouped.  With a profile store attached, completed measurements
checkpoint to disk and re-executing a plan simulates nothing.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.criteria import CRITERIA
from ..core.perf_aware import LayerProfile, PerformanceAwarePruner
# analyze_table is not called here; perfbench's tracer wraps it by name
# in this module.
from ..core.staircase import StaircaseAnalysis, analyze_table  # noqa: F401
from ..models.graph import Network
from ..models.layers import ConvLayerSpec
from ..models.zoo import shared_network
from ..obs.metrics import default_registry
from ..obs.trace import Tracer
from ..profiling.latency_table import LatencyTable, sweep_counts
from ..profiling.noise import check_seed
from ..profiling.runner import ProfileRunner
from ..profiling.store import ProfileStore
from .pipeline import ComparisonReport, PruningReport, PruningRequest
from .plan import Plan, Step
from .registry import UnknownPluginError
from .target import Target, TargetLike

_STEPS_TOTAL = default_registry().counter(
    "repro_executor_steps_total",
    "Plan steps executed, by step kind.",
    labelnames=("kind",),
)

class UnknownExecutorError(UnknownPluginError):
    """Raised when :meth:`Session.execute` is asked for an executor other than ``serial``."""


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed."""


#: Anything :class:`Session` accepts as a profile store.
StoreLike = Union[ProfileStore, str, Path, None]


_TargetKey = Tuple[str, str, int]

#: ``Session(max_cache_entries=)``'s default: the keyword was not passed.
_UNSET: Any = object()


@dataclass(frozen=True)
class SweepTable:
    """Tidy result of :meth:`Session.sweep`: one row per measured point.

    ``rows`` is a flat, plotting/serialization-ready list of dicts with
    the columns ``target``, ``device``, ``library``, ``layer``,
    ``out_channels`` and ``median_time_ms`` — the figure-comparison
    shape (same layers, several targets side by side).  ``profiles``
    keeps the full :class:`LayerProfile` (latency table + staircase
    analysis) per (target, layer) for the analyses that need more than
    the raw series.
    """

    targets: Tuple[Target, ...]
    layer_names: Tuple[str, ...]
    rows: Tuple[Dict[str, Any], ...]
    profiles: Dict[Tuple[Target, str], LayerProfile] = field(hash=False)

    def __len__(self) -> int:
        return len(self.rows)

    def profile(self, target: TargetLike, layer_name: str) -> LayerProfile:
        """The profile of one layer on one target."""

        return self.profiles[(Target.of(target), layer_name)]

    def for_target(self, target: TargetLike) -> List[Dict[str, Any]]:
        """The rows belonging to one target, in layer/channel order."""

        label = Target.of(target).label
        return [row for row in self.rows if row["target"] == label]

    def series(self, target: TargetLike, layer_name: str) -> Tuple[List[int], List[float]]:
        """(channel counts, median times) of one layer on one target."""

        return self.profile(target, layer_name).table.as_series()

    def format(self) -> str:
        """Render the per-target baseline comparison as fixed-width text."""

        width = max(12, max((len(name) for name in self.layer_names), default=0) + 1)
        label_width = max(len(target.label) for target in self.targets) + 1
        lines = [
            " " * label_width
            + "".join(f"{name:>{width}}" for name in self.layer_names)
        ]
        for target in self.targets:
            cells = "".join(
                f"{self.profiles[(target, name)].original_time_ms:>{width}.3f}"
                for name in self.layer_names
            )
            lines.append(f"{target.label:<{label_width}}" + cells)
        return "\n".join(lines)


class Session:
    """Shared per-target runners plus the request/report pruning pipeline.

    Sessions are thread-safe: the runner map is guarded by an internal
    lock and each runner serializes its own measurements, so several
    threads may execute plans against one session and simulate each
    configuration once.

    Parameters
    ----------
    store:
        Optional persistent profile store — a
        :class:`~repro.profiling.store.ProfileStore` or the path of its
        directory (created if missing; a single-file store is imported
        once with ``repro-experiments store compact PATH``).
        Measurements are read from the store before touching the
        simulator and written back after fresh sweeps, so repeated
        processes (e.g. CLI invocations with ``--profile-store``) reuse
        each other's profiles.
    seed:
        Measurement-noise stream seed, ``0`` by default (the historical
        stream).  Two sessions built with the same seed reproduce
        bitwise-identical measurements without sharing a store; a
        different seed forks an independent deterministic stream.  The
        seed is plumbed into every runner's splitmix64 noise stream and
        keys store records, so differently-seeded sessions never serve
        each other's perturbations.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` that plan execution
        opens one ``executor.step`` span per step against.  Defaults to
        a writerless tracer (no recording, near-zero cost).  Tracing is
        inert: traced and untraced executions are bitwise identical.
    max_cache_entries:
        Deprecated and ignored: the session keeps no profile cache of
        its own.  Passing it warns; the keyword goes in a later major
        version.
    """

    def __init__(
        self,
        store: StoreLike = None,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        *,
        max_cache_entries: Optional[int] = _UNSET,
    ) -> None:
        if max_cache_entries is not _UNSET:
            warnings.warn(
                "Session(max_cache_entries=) has no effect: the runners' "
                "measurement memo is the only cache",
                DeprecationWarning,
                stacklevel=2,
            )
        self.seed = check_seed(seed)
        self.tracer = tracer if tracer is not None else Tracer()
        self._store = self._coerce_store(store)
        self._runners: Dict[_TargetKey, ProfileRunner] = {}
        # Guards the runner map: plans may run on concurrent threads
        # against one session.  Simulation never happens under it.
        self._lock = threading.RLock()

    @staticmethod
    def _coerce_store(store: StoreLike) -> Optional[ProfileStore]:
        if store is None or isinstance(store, ProfileStore):
            return store
        return ProfileStore(store)

    # ------------------------------------------------------------------
    # Runners and the store
    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[ProfileStore]:
        """The persistent profile store backing this session, if any."""

        # repro-lint: ignore[RL001] -- atomic reference read; ProfileStore is
        # internally flock/lock-safe and rebinding happens only in set_store.
        return self._store

    def set_store(self, store: StoreLike) -> None:
        """Attach (or detach) a persistent profile store.

        Existing per-target runners are rewired so measurements made
        from now on read from and write to the new store.
        """

        with self._lock:
            self._store = self._coerce_store(store)
            for runner in self._runners.values():
                runner.store = self._store

    def simulation_count(self) -> int:
        """Configurations actually simulated by this session's runners.

        Runner-memo and profile-store hits do not count; a fully
        store-served session reports zero.
        """

        with self._lock:
            return sum(runner.simulations for runner in self._runners.values())

    @staticmethod
    def _target_key(target: Target) -> _TargetKey:
        return (target.device, target.library, target.runs)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def runner(self, target: TargetLike) -> ProfileRunner:
        """The session's shared (memoising) runner for a target."""

        target = Target.of(target)
        key = self._target_key(target)
        with self._lock:
            if key not in self._runners:
                self._runners[key] = ProfileRunner.for_target(
                    target, store=self._store, seed=self.seed
                )
            return self._runners[key]

    def network(self, model: str) -> Network:
        """The model-zoo network of that name, built once per process.

        Every session shares it: nothing mutates a network (pruning
        returns a copy).
        """

        return shared_network(model)

    def pruner(
        self, target: TargetLike, criterion: str = "sequential"
    ) -> PerformanceAwarePruner:
        """A fresh :class:`PerformanceAwarePruner` on this session's runner."""

        target = Target.of(target)
        return PerformanceAwarePruner(
            target, criterion=CRITERIA.create(criterion), runner=self.runner(target)
        )

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile_layer(
        self,
        target: TargetLike,
        spec: ConvLayerSpec,
        layer_index: int = -1,
        channel_counts: Optional[Iterable[int]] = None,
        sweep_step: int = 1,
    ) -> LayerProfile:
        """Latency table + staircase analysis of one layer on one target.

        Built from the target's runner, whose memo makes a repeated
        profile simulate nothing.
        """

        counts = sweep_counts(spec.out_channels, channel_counts, sweep_step)
        return LayerProfile.build(self.runner(target), spec, counts, layer_index)

    def latency_table(
        self,
        target: TargetLike,
        spec: ConvLayerSpec,
        channel_counts: Optional[Iterable[int]] = None,
        sweep_step: int = 1,
    ) -> LatencyTable:
        """Latency-vs-channels table of a layer on a target."""

        return self.profile_layer(
            target, spec, channel_counts=channel_counts, sweep_step=sweep_step
        ).table

    def staircase(
        self,
        target: TargetLike,
        spec: ConvLayerSpec,
        channel_counts: Optional[Iterable[int]] = None,
        sweep_step: int = 1,
    ) -> StaircaseAnalysis:
        """Staircase analysis of a layer on a target."""

        return self.profile_layer(
            target, spec, channel_counts=channel_counts, sweep_step=sweep_step
        ).analysis

    def profile_network(
        self,
        target: TargetLike,
        model: Union[str, Network],
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
    ) -> Dict[int, LayerProfile]:
        """Profile every (selected) convolutional layer of a network.

        Model names route through a one-step plan and :meth:`execute`;
        a pre-built :class:`Network` object (not expressible in a
        serializable plan) is profiled directly.
        """

        if not isinstance(model, str):
            return self._profile_network_impl(target, model, layer_indices, sweep_step)
        plan = Plan()
        step = plan.profile(
            Target.of(target), model, layer_indices=layer_indices, sweep_step=sweep_step
        )
        return self.execute(plan)[step.id]

    def _profile_network_impl(
        self,
        target: TargetLike,
        model: Union[str, Network],
        layer_indices: Optional[Sequence[int]],
        sweep_step: int,
    ) -> Dict[int, LayerProfile]:
        network = self.network(model) if isinstance(model, str) else model
        indices = (
            list(layer_indices) if layer_indices is not None else network.conv_layer_indices
        )
        return {
            index: self.profile_layer(
                target,
                network.conv_layer(index).spec,
                layer_index=index,
                sweep_step=sweep_step,
            )
            for index in indices
        }

    def sweep(
        self,
        targets: Union[TargetLike, Iterable[TargetLike]],
        layers: Union[ConvLayerSpec, Iterable[ConvLayerSpec]],
        channel_counts: Optional[Iterable[int]] = None,
        sweep_step: int = 1,
    ) -> SweepTable:
        """Fan one layer set across several targets (the figure-comparison scenario).

        Every (target, layer) pair is profiled — through the batched,
        memoising runner and the profile store, so repeats simulate
        nothing — and the result comes back as a tidy :class:`SweepTable`:
        one row per measured (target, layer, channel count) point, plus
        the full per-pair profiles for staircase analysis.  The sweep is
        expressed as a one-step :class:`Plan` and run by :meth:`execute`.
        """

        plan = Plan()
        step = plan.sweep(
            targets, layers, channel_counts=channel_counts, sweep_step=sweep_step
        )
        return self.execute(plan)[step.id]

    def _sweep_impl(
        self,
        resolved: List[Target],
        specs: List[ConvLayerSpec],
        channel_counts: Optional[Iterable[int]],
        sweep_step: int,
    ) -> SweepTable:
        counts = list(channel_counts) if channel_counts is not None else None

        rows: List[Dict[str, Any]] = []
        profiles: Dict[Tuple[Target, str], LayerProfile] = {}
        for target in resolved:
            for spec in specs:
                profile = self.profile_layer(
                    target, spec, channel_counts=counts, sweep_step=sweep_step
                )
                profiles[(target, spec.name)] = profile
                measured_counts, times = profile.table.as_series()
                rows.extend(
                    {
                        "target": target.label,
                        "device": target.device,
                        "library": target.library,
                        "layer": spec.name,
                        "out_channels": count,
                        "median_time_ms": time_ms,
                    }
                    for count, time_ms in zip(measured_counts, times)
                )
        return SweepTable(
            targets=tuple(resolved),
            layer_names=tuple(dict.fromkeys(spec.name for spec in specs)),
            rows=tuple(rows),
            profiles=profiles,
        )

    # ------------------------------------------------------------------
    # The request/report pipeline
    # ------------------------------------------------------------------
    def prune(self, request: PruningRequest) -> PruningReport:
        """Execute one pruning job and report the outcome.

        Matches the :class:`PerformanceAwarePruner` output for
        the same (model, device, library, strategy, parameters).  The
        job travels as a one-step :class:`Plan` through :meth:`execute`.
        """

        plan = Plan()
        step = plan.prune(request)
        return self.execute(plan)[step.id]

    def _prune_impl(self, request: PruningRequest) -> PruningReport:
        pruner = self.pruner(request.target, criterion=request.criterion)
        network = self.network(request.model)
        indices = list(request.layer_indices) if request.layer_indices is not None else None
        if request.strategy == "performance-aware":
            outcome = pruner.prune_performance_aware_fraction(
                network, request.fraction, indices, sweep_step=request.sweep_step
            )
        elif request.strategy == "uninstructed":
            outcome = pruner.prune_uninstructed(network, request.fraction, indices)
        elif request.strategy == "latency-budget":
            outcome = pruner.prune_for_latency(
                network, request.latency_budget_ms, indices, sweep_step=request.sweep_step
            )
        else:  # pragma: no cover - PruningRequest validates strategies
            raise ValueError(f"unknown strategy {request.strategy!r}")
        return PruningReport.from_outcome(request, outcome)

    def compare(
        self,
        request: PruningRequest,
        strategies: Sequence[str] = ("performance-aware", "uninstructed"),
    ) -> ComparisonReport:
        """Run the same job under several strategies, head to head."""

        if not strategies:
            raise ValueError("strategies must not be empty")
        plan = Plan()
        step = plan.compare(request, strategies=strategies)
        return self.execute(plan)[step.id]

    def _compare_impl(
        self, request: PruningRequest, strategies: Sequence[str]
    ) -> ComparisonReport:
        reports = {
            strategy: self._prune_impl(request.with_strategy(strategy))
            for strategy in strategies
        }
        return ComparisonReport(request=request, reports=reports)

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------
    def execute(self, plan: Plan, executor: str = "serial") -> Dict[str, Any]:
        """Run a :class:`Plan`'s steps in plan order; return ``{step id: result}``.

        Plan order is a dependency order: :meth:`Plan.add` accepts only
        dependencies on steps already added.  ``executor`` must be
        ``"serial"``, the only executor; any other value raises
        :class:`UnknownExecutorError`.  With a profile store attached,
        measurements are checkpointed, so re-executing the same plan
        simulates nothing.
        """

        if executor != "serial":
            raise UnknownExecutorError(
                f"unknown executor {executor!r}; the only executor is 'serial'"
            )
        return {step.id: self._run_step(step) for step in plan}

    def _run_step(self, step: Step) -> Any:
        """Run one validated step inside an ``executor.step`` span, counting it.

        The span and counter are observability only, so traced and
        untraced executions stay bitwise identical.  A ``figure`` step
        hands this session to the experiment generator (every generator
        accepts ``session=``), so its measurements use this session's
        seed, store and runners and touch no process-global state.
        """

        _STEPS_TOTAL.inc(kind=step.kind)
        params = step.params
        with self.tracer.span("executor.step", step=step.id, kind=step.kind):
            if step.kind == "sweep":
                return self._sweep_impl(
                    [Target.of(entry) for entry in params["targets"]],
                    [ConvLayerSpec.from_dict(entry) for entry in params["layers"]],
                    params.get("channel_counts"),
                    params["sweep_step"],
                )
            if step.kind == "profile":
                indices = params.get("layer_indices")
                return self._profile_network_impl(
                    Target.of(params["target"]),
                    params["model"],
                    list(indices) if indices is not None else None,
                    params["sweep_step"],
                )
            if step.kind == "prune":
                return self._prune_impl(PruningRequest.from_dict(params["request"]))
            if step.kind == "compare":
                return self._compare_impl(
                    PruningRequest.from_dict(params["request"]), params["strategies"]
                )
            if step.kind == "figure":
                from ..experiments.registry import run_experiment

                options = dict(params.get("options", {}))
                return run_experiment(params["experiment"], session=self, **options)
        raise ExecutionError(f"no handler for step kind {step.kind!r}")  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Session runners={len(self._runners)} seed={self.seed}>"


__all__ = [
    "ExecutionError",
    "Session",
    "SweepTable",
    "UnknownExecutorError",
]
