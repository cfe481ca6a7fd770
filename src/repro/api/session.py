"""The ``Session``: cross-call caching and the high-level pruning entry point.

Every sweep in the experiment suite used to re-profile layers from
scratch — twenty figures times dozens of (layer, channel count)
configurations.  A :class:`Session` owns one
:class:`~repro.profiling.runner.ProfileRunner` per
:class:`~repro.api.target.Target` plus an LRU cache of latency tables
and staircase analyses keyed by ``(target, layer spec, sweep)``, so the
same layer profiled twice costs one measurement pass and one dictionary
lookup.  Cache effectiveness is observable through
:attr:`Session.cache_stats` (``hits``/``misses``/``evictions``).

``Session`` is also the front door for pruning jobs: feed it a
serializable :class:`~repro.api.pipeline.PruningRequest` and get a
:class:`~repro.api.pipeline.PruningReport` back, byte-for-byte
reproducing what the legacy :class:`~repro.core.perf_aware.PerformanceAwarePruner`
would compute for the same parameters.

Execution is plan-based: ``sweep``/``prune``/``compare``/
``profile_network`` each build a one-step
:class:`~repro.api.plan.Plan` and hand it to :meth:`Session.execute`,
which routes it through a pluggable
:class:`~repro.api.executor.EXECUTORS` backend (``serial``, ``process``
or ``remote``).  All backends share the counter-based measurement
noise stream, so results are bitwise identical regardless of backend;
with a profile store attached, completed measurements checkpoint to
disk and re-executing a plan simulates nothing.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.accuracy_model import AccuracyModel
from ..core.criteria import CRITERIA, ImportanceCriterion
from ..core.perf_aware import LayerProfile, PerformanceAwarePruner
from ..core.staircase import StaircaseAnalysis, analyze_table
from ..models.graph import Network
from ..models.layers import ConvLayerSpec
from ..models.zoo import MODELS
from ..obs.metrics import default_registry
from ..obs.trace import Tracer
from ..profiling.latency_table import LatencyTable, build_latency_table, sweep_counts
from ..profiling.runner import ProfileRunner
from ..profiling.store import ProfileStore
from .pipeline import ComparisonReport, PruningReport, PruningRequest
from .plan import Plan
from .target import Target, TargetLike, coerce_targets

_CACHE_HITS = default_registry().counter(
    "repro_session_cache_hits_total", "Session profile-cache hits."
)
_CACHE_MISSES = default_registry().counter(
    "repro_session_cache_misses_total", "Session profile-cache misses."
)
_CACHE_EVICTIONS = default_registry().counter(
    "repro_session_cache_evictions_total", "Session profile-cache LRU evictions."
)

#: Default bound on cached layer profiles.  Profiling the full model zoo
#: on the paper's four targets needs well under a thousand entries, so
#: the default keeps every realistic workload fully cached while
#: guaranteeing that a long-lived service cannot grow without limit.
DEFAULT_MAX_CACHE_ENTRIES = 1024

#: Anything :class:`Session` accepts as a profile store.
StoreLike = Union[ProfileStore, str, Path, None]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of a :class:`Session` profile cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0


@functools.lru_cache(maxsize=None)
def _zoo_network(builder: Callable[[], Network]) -> Network:
    """One network per registered zoo builder, shared process-wide.

    Keyed on the builder object rather than the name, so a name
    re-registered with a new builder is built afresh.
    """

    return builder()


_TargetKey = Tuple[str, str, int]
_ProfileKey = Tuple[_TargetKey, ConvLayerSpec, Tuple[int, ...]]


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
        """The cached profile of one layer on one target."""

        return self.profiles[(Target.of(target), layer_name)]

    def for_target(self, target: TargetLike) -> List[Dict[str, Any]]:
        """The rows belonging to one target, in layer/channel order."""

        label = Target.of(target).label
        return [row for row in self.rows if row["target"] == label]

    def series(self, target: TargetLike, layer_name: str) -> Tuple[List[int], List[float]]:
        """(channel counts, median times) of one layer on one target."""

        return self.profile(target, layer_name).table.as_series()

    def baseline_times_ms(self) -> Dict[str, Dict[str, float]]:
        """Unpruned latency per target label and layer (the comparison table)."""

        return {
            target.label: {
                name: self.profiles[(target, name)].original_time_ms
                for name in self.layer_names
            }
            for target in self.targets
        }

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
    """Shared profiling cache plus the request/report pruning pipeline.

    Sessions are thread-safe: the profile/runner/pruner caches
    are guarded by an internal lock (simulation never happens under it),
    so the process executor can run a wavefront's independent steps on
    concurrent threads against one session and the service's job queue
    can run figure steps from several workers in parallel.

    Parameters
    ----------
    max_cache_entries:
        Upper bound on cached layer profiles, ``1024``
        (:data:`DEFAULT_MAX_CACHE_ENTRIES`) by default.  When the bound
        is exceeded the least recently used profile is evicted (and
        counted in :attr:`CacheStats.evictions`); recently used profiles
        are refreshed on every hit.  Pass ``None`` to opt in to an
        unbounded cache explicitly.
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
    executor:
        Default :data:`~repro.api.executor.EXECUTORS` backend name (or
        instance) used by :meth:`execute` and by the plan-routed
        ``sweep``/``prune``/``compare``/``profile_network`` methods.
        ``"serial"`` runs steps in order; ``"process"`` fans the
        measurements out to worker processes with bitwise-identical
        results.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` the executors open
        per-step/per-wave spans against.  Defaults to a writerless
        tracer (no recording, near-zero cost).  Tracing is inert:
        traced and untraced executions are bitwise identical.
    """

    def __init__(
        self,
        max_cache_entries: Optional[int] = DEFAULT_MAX_CACHE_ENTRIES,
        store: StoreLike = None,
        seed: int = 0,
        executor: Union[str, Any] = "serial",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError(
                f"max_cache_entries must be None or >= 1, got {max_cache_entries}"
            )
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.max_cache_entries = max_cache_entries
        self.seed = seed
        self.default_executor = executor
        self.tracer = tracer if tracer is not None else Tracer()
        self._store = self._coerce_store(store)
        self._profiles: "OrderedDict[_ProfileKey, LayerProfile]" = OrderedDict()
        self._runners: Dict[_TargetKey, ProfileRunner] = {}
        self._pruners: Dict[Tuple[_TargetKey, str], PerformanceAwarePruner] = {}
        self._stats = CacheStats()
        # Guards the caches above: the process executor runs a
        # wavefront's steps on concurrent threads against one session.
        # Expensive work (simulation) never happens under this lock.
        self._lock = threading.RLock()

    @staticmethod
    def _coerce_store(store: StoreLike) -> Optional[ProfileStore]:
        if store is None or isinstance(store, ProfileStore):
            return store
        return ProfileStore(store)

    # ------------------------------------------------------------------
    # Cache bookkeeping
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        """Live hit/miss/eviction counters of the profile cache."""

        # repro-lint: ignore[RL001] -- hands out the CacheStats object itself
        # (one attribute load, atomic under the GIL); counters keep mutating
        # under the lock after the reference escapes, by design.
        return self._stats

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

        Cache and profile-store hits do not count; a fully store-served
        session reports zero.
        """

        with self._lock:
            return sum(runner.simulations for runner in self._runners.values())

    def cache_size(self) -> int:
        with self._lock:
            return len(self._profiles)

    def clear_cache(self) -> None:
        """Drop cached profiles, runners and pruners; reset the counters."""

        with self._lock:
            self._profiles.clear()
            self._runners.clear()
            self._pruners.clear()
            self._stats.reset()

    @staticmethod
    def _target_key(target: Target) -> _TargetKey:
        return (target.device, target.library, target.runs)

    @staticmethod
    def _as_target_list(targets: Union[TargetLike, Iterable[TargetLike]]) -> List[Target]:
        """Accept one target-like value or an iterable of them."""

        return coerce_targets(targets)

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

        return _zoo_network(MODELS.get(model))

    def pruner(
        self,
        target: TargetLike,
        criterion: Union[str, ImportanceCriterion] = "sequential",
        accuracy_model: Optional[AccuracyModel] = None,
    ) -> PerformanceAwarePruner:
        """A :class:`PerformanceAwarePruner` wired to this session's cache.

        Pruners are memoised per (target, criterion name) so repeated
        requests reuse their layer profiles; passing an explicit
        ``accuracy_model`` or criterion *instance* builds a fresh,
        uncached pruner (it may carry request-specific state).
        """

        target = Target.of(target)
        shared_runner = self.runner(target)
        if accuracy_model is not None or not isinstance(criterion, str):
            criterion_obj = (
                CRITERIA.create(criterion) if isinstance(criterion, str) else criterion
            )
            return PerformanceAwarePruner(
                target, criterion=criterion_obj,
                accuracy_model=accuracy_model, runner=shared_runner,
            )
        key = (self._target_key(target), CRITERIA.canonical(criterion))
        with self._lock:
            if key not in self._pruners:
                self._pruners[key] = PerformanceAwarePruner(
                    target, criterion=CRITERIA.create(criterion), runner=shared_runner
                )
            return self._pruners[key]

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

        The result is cached on ``(target, layer spec, sweep)``;
        profiling the same layer twice for the same target is one miss
        followed by hits.
        """

        target = Target.of(target)
        counts = sweep_counts(spec.out_channels, channel_counts, sweep_step)
        key: _ProfileKey = (self._target_key(target), spec, counts)
        with self._lock:
            cached = self._profiles.get(key)
            if cached is not None:
                self._stats.hits += 1
                _CACHE_HITS.inc()
                self._profiles.move_to_end(key)
                return cached
            self._stats.misses += 1
            _CACHE_MISSES.inc()

        # Built outside the lock: two threads racing the same key both
        # reach the runner, whose own lock serializes the measurement —
        # the loser is a pure runner-cache hit, and both build identical
        # profiles (counter-based noise), so last-write-wins is safe.
        table = build_latency_table(self.runner(target), spec, counts)
        profile = LayerProfile(
            layer_index=layer_index,
            spec=spec,
            table=table,
            analysis=analyze_table(table),
        )
        with self._lock:
            existing = self._profiles.get(key)
            if existing is not None:
                return existing
            self._profiles[key] = profile
            if (
                self.max_cache_entries is not None
                and len(self._profiles) > self.max_cache_entries
            ):
                self._profiles.popitem(last=False)
                self._stats.evictions += 1
                _CACHE_EVICTIONS.inc()
        return profile

    def latency_table(
        self,
        target: TargetLike,
        spec: ConvLayerSpec,
        channel_counts: Optional[Iterable[int]] = None,
        sweep_step: int = 1,
    ) -> LatencyTable:
        """Cached latency-vs-channels table of a layer on a target."""

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
        """Cached staircase analysis of a layer on a target."""

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

        Model names route through a one-step plan and the session's
        executor; a pre-built :class:`Network` object (not expressible
        in a serializable plan) is profiled directly.
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

        Every (target, layer) pair is profiled — through the profile
        cache, the batched runner and the profile store, so repeats are
        free — and the result comes back as a tidy :class:`SweepTable`:
        one row per measured (target, layer, channel count) point, plus
        the full per-pair profiles for staircase analysis.  The sweep is
        expressed as a one-step :class:`Plan` and routed through the
        session's executor backend.
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

        Matches the legacy :class:`PerformanceAwarePruner` output for
        the same (model, device, library, strategy, parameters).  The
        job travels as a one-step :class:`Plan` through the session's
        executor backend.
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
    def execute(
        self,
        plan: Plan,
        executor: Union[str, Any, None] = None,
        jobs: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Execute a :class:`Plan` and return ``{step id: result}``.

        ``executor`` picks the :data:`~repro.api.executor.EXECUTORS`
        backend (``"serial"``, ``"process"`` or an instance); the session default applies when omitted.  ``jobs``
        bounds the worker count of parallel backends.  Results are
        bitwise identical across backends for the same seed; with a
        profile store attached, measurements are checkpointed so
        re-executing the same plan simulates nothing.
        """

        from .executor import resolve_executor

        backend = resolve_executor(
            executor if executor is not None else self.default_executor, jobs=jobs
        )
        return backend.execute(self, plan)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self._stats
        return (
            f"<Session profiles={len(self._profiles)} runners={len(self._runners)} "
            f"hits={stats.hits} misses={stats.misses} evictions={stats.evictions}>"
        )


__all__ = ["DEFAULT_MAX_CACHE_ENTRIES", "CacheStats", "Session", "SweepTable"]
