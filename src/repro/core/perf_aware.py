"""Performance-aware channel pruning.

This module implements the paper's proposal (Sections II-B and V): put
the target device and library *inside* the pruning loop.  Instead of
assuming that removing channels always reduces latency, the optimiser

1. profiles each layer's latency across channel counts on the target
   (device, library) pair,
2. analyses the staircase to find the *optimal* channel counts — the
   right edge of every latency plateau,
3. restricts pruning decisions to those counts, and
4. trades latency against an accuracy signal when compressing a whole
   network (the greedy latency-per-accuracy loop of ref. [19]).

It also provides the *uninstructed* baseline — pruning by a uniform
fraction with no knowledge of the target — whose potential slowdowns
(up to 2x in the paper, Figure 1) motivate the whole approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..models.graph import Network
from ..models.layers import ConvLayerSpec
from ..profiling.latency_table import LatencyTable, build_latency_table, sweep_counts, sweep_grid
from ..profiling.runner import ProfileRunner
from .accuracy_model import AccuracyModel, default_accuracy_model
from .criteria import ImportanceCriterion, SequentialCriterion
from .pruner import uniform_keep
from .staircase import StaircaseAnalysis, analyze_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.target import Target


class OptimizationError(ValueError):
    """Raised when an optimisation target cannot be met."""


@dataclass
class LayerProfile:
    """Latency table and staircase analysis of one layer on one target."""

    layer_index: int
    spec: ConvLayerSpec
    table: LatencyTable
    analysis: StaircaseAnalysis

    @classmethod
    def build(
        cls,
        runner: ProfileRunner,
        spec: ConvLayerSpec,
        counts: Iterable[int],
        layer_index: int = -1,
    ) -> "LayerProfile":
        """Measure ``spec`` at ``counts`` through ``runner`` and analyse the table.

        Only the runner memoises: a profile is rebuilt on every call,
        and a repeated one simulates nothing.
        """

        table = build_latency_table(runner, spec, counts)
        return cls(
            layer_index=layer_index, spec=spec, table=table, analysis=analyze_table(table)
        )

    @property
    def original_time_ms(self) -> float:
        return self.table.time_ms(self.spec.out_channels)

    @property
    def optimal_channel_counts(self) -> List[int]:
        """Channel counts on the right edge of each plateau (ascending)."""

        return self.levels.tolist()

    @cached_property
    def levels(self) -> np.ndarray:
        """:attr:`optimal_channel_counts` as an array; the last is the layer's size."""

        return np.array(self.analysis.pruning_levels(self.spec.out_channels))

    @cached_property
    def level_times_ms(self) -> np.ndarray:
        """The latency at each of :attr:`levels`."""

        return self.table.times_ms(self.levels)

    def time_at(self, channels: int) -> float:
        return self.table.time_ms(channels)


@dataclass(frozen=True)
class PruningOutcome:
    """Result of compressing a network for a target.

    ``channels`` maps each pruned conv layer index to its kept channel
    count; ``ChannelPruner(criterion).plan_network(network, channels)``
    decides which channels those are.
    """

    channels: Dict[int, int]
    latency_ms: float
    baseline_latency_ms: float
    predicted_accuracy: float
    baseline_accuracy: float

    @property
    def speedup(self) -> float:
        return self.baseline_latency_ms / self.latency_ms

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.predicted_accuracy


@dataclass(frozen=True)
class StrategyComparison:
    """Performance-aware vs uninstructed pruning at matched compression."""

    performance_aware: PruningOutcome
    uninstructed: PruningOutcome

    @property
    def latency_advantage(self) -> float:
        """How much faster the performance-aware network is (>1 is a win)."""

        return self.uninstructed.latency_ms / self.performance_aware.latency_ms


class PerformanceAwarePruner:
    """Profile-in-the-loop channel pruning for one :class:`repro.api.Target`::

        PerformanceAwarePruner(Target("hikey-970", "acl-gemm", runs=5))

    ``runner`` lets a :class:`repro.api.Session` share one memoising
    :class:`ProfileRunner` across pruners and experiments; the default is
    a fresh ``ProfileRunner.for_target(target)``.
    """

    def __init__(
        self,
        target: "Target",
        criterion: Optional[ImportanceCriterion] = None,
        accuracy_model: Optional[AccuracyModel] = None,
        *,
        runner: Optional[ProfileRunner] = None,
    ) -> None:
        from ..api.target import Target  # local import: api sits above core

        if not isinstance(target, Target):
            raise TypeError(f"PerformanceAwarePruner takes a Target, got {target!r}")
        self.target = target
        self.criterion = criterion or SequentialCriterion()
        self.accuracy_model = accuracy_model
        self.runner = runner or ProfileRunner.for_target(target)

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile_layer(
        self,
        spec: ConvLayerSpec,
        layer_index: int = -1,
        channel_counts: Optional[Iterable[int]] = None,
        sweep_step: int = 1,
    ) -> LayerProfile:
        """Measure a layer across channel counts and analyse its staircase.

        The counts are ``channel_counts``, or the grid of ``sweep_step``.
        """

        if channel_counts is not None:
            channel_counts = tuple(channel_counts)
            if not channel_counts:
                raise OptimizationError(
                    f"{spec.name}: cannot profile an empty channel sweep"
                )
        counts = sweep_counts(spec.out_channels, channel_counts, sweep_step)
        return LayerProfile.build(self.runner, spec, counts, layer_index)

    def profile_network(
        self,
        network: Network,
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
    ) -> Dict[int, LayerProfile]:
        """Profile every (selected) convolutional layer of a network."""

        indices = list(layer_indices) if layer_indices is not None else network.conv_layer_indices
        return {
            index: self.profile_layer(
                network.conv_layer(index).spec, layer_index=index, sweep_step=sweep_step
            )
            for index in indices
        }

    # ------------------------------------------------------------------
    # Single-layer selection
    # ------------------------------------------------------------------
    def snap_to_step(self, spec: ConvLayerSpec, target_channels: int, sweep_step: int = 1) -> int:
        """Adjust a desired channel count to the nearest step-optimal count.

        Returns the largest step-optimal channel count that is not slower
        than the requested target — i.e. slide right along the plateau
        the target sits on (more channels for the same latency), never
        onto a slower plateau.

        Only the sweep grid's counts at or above the target are measured:
        a right edge depends on the times at its own count and the next,
        so the edges this rule can pick all come from that suffix.  The
        grid stays ``1..C`` by ``sweep_step``; the suffix filters it, and
        never restarts it at the target.
        """

        if not 1 <= target_channels <= spec.out_channels:
            raise OptimizationError(
                f"{spec.name}: target {target_channels} outside [1, {spec.out_channels}]"
            )
        grid = sweep_grid(spec.out_channels, sweep_step)
        suffix = grid[np.searchsorted(grid, target_channels):]
        profile = LayerProfile.build(self.runner, spec, suffix)
        # A coarse sweep may not include the naive target itself; then
        # measure it directly (the runner memoises).
        if suffix[0] == target_channels:
            target_time = profile.table.sweep.median[0]
        else:
            target_time = self.runner.measure(spec, target_channels).median_time_ms
        levels = profile.levels
        fits = (levels >= target_channels) & (profile.level_times_ms <= target_time * 1.001)
        candidates = levels[fits]
        return int(candidates[-1]) if candidates.size else target_channels

    # ------------------------------------------------------------------
    # Whole-network compression
    # ------------------------------------------------------------------
    def network_latency_ms(
        self,
        network: Network,
        channels: Optional[Mapping[int, int]] = None,
        layer_indices: Optional[Sequence[int]] = None,
    ) -> float:
        """Sum of measured convolutional layer latencies for a configuration."""

        channels = dict(channels or {})
        indices = list(layer_indices) if layer_indices is not None else network.conv_layer_indices
        total = 0.0
        for index in indices:
            spec = network.conv_layer(index).spec
            count = channels.get(index, spec.out_channels)
            total += self.runner.measure(spec, count).median_time_ms
        return total

    def prune_for_latency(
        self,
        network: Network,
        latency_budget_ms: float,
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
    ) -> PruningOutcome:
        """Compress a network to meet a latency budget, preserving accuracy.

        Greedy loop: all layers start unpruned; at every step the layer
        whose next step-optimal channel count buys the most latency per
        unit of predicted accuracy loss is pruned, until the summed layer
        latency fits the budget.
        """

        accuracy_model = self.accuracy_model or default_accuracy_model(network)
        indices = list(layer_indices) if layer_indices is not None else network.conv_layer_indices
        profiles = self.profile_network(network, indices, sweep_step=sweep_step)

        channels: Dict[int, int] = {
            index: profiles[index].spec.out_channels for index in indices
        }
        # Every layer sits on one of its levels, so its time is tracked
        # here rather than looked up per move.
        times = {index: profiles[index].original_time_ms for index in indices}
        baseline_latency = sum(times.values())
        current_latency = baseline_latency
        baseline_accuracy = accuracy_model.predict(network)

        while current_latency > latency_budget_ms:
            best_move: Optional[Tuple[float, int, int, float]] = None
            current_accuracy = accuracy_model.predict(network, channels)
            for index in indices:
                levels, level_times = profiles[index].levels, profiles[index].level_times_ms
                # The next step down must actually be faster: with parallel
                # staircases the adjacent plateau can be slower, in which
                # case we skip over it to the next genuinely faster one.
                faster = np.flatnonzero((levels < channels[index]) & (level_times < times[index]))
                if not faster.size:
                    continue
                candidate, candidate_time = int(levels[faster[-1]]), float(level_times[faster[-1]])
                latency_gain = times[index] - candidate_time
                trial = dict(channels)
                trial[index] = candidate
                accuracy_loss = current_accuracy - accuracy_model.predict(network, trial)
                score = latency_gain / max(accuracy_loss, 1e-9)
                if best_move is None or score > best_move[0]:
                    best_move = (score, index, candidate, candidate_time)
            if best_move is None:
                raise OptimizationError(
                    f"cannot reach {latency_budget_ms:.2f} ms: the fully pruned "
                    f"network still needs {current_latency:.2f} ms"
                )
            _, index, candidate, candidate_time = best_move
            current_latency -= times[index] - candidate_time
            channels[index], times[index] = candidate, candidate_time

        return PruningOutcome(
            channels=dict(channels),
            latency_ms=current_latency,
            baseline_latency_ms=baseline_latency,
            predicted_accuracy=accuracy_model.predict(network, channels),
            baseline_accuracy=baseline_accuracy,
        )

    def prune_uninstructed(
        self,
        network: Network,
        fraction: float,
        layer_indices: Optional[Sequence[int]] = None,
    ) -> PruningOutcome:
        """The baseline: uniform pruning with no device/library knowledge."""

        channels = uniform_keep(network, fraction, layer_indices)
        return self._outcome(network, channels)

    def prune_performance_aware_fraction(
        self,
        network: Network,
        fraction: float,
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
    ) -> PruningOutcome:
        """Prune roughly ``fraction`` of each layer, snapped to step-optimal counts.

        The per-layer target is the same as the uninstructed baseline's;
        the difference is that each target is slid to the right edge of
        its latency plateau, so the pruned network never pays for
        channels it does not get and never lands just past a step.
        """

        channels = {
            index: self.snap_to_step(network.conv_layer(index).spec, target, sweep_step)
            for index, target in uniform_keep(network, fraction, layer_indices).items()
        }
        return self._outcome(network, channels)

    def _outcome(self, network: Network, channels: Dict[int, int]) -> PruningOutcome:
        """The outcome of pruning each layer of ``channels`` to its count.

        Both latencies sum the layers in ``channels`` order, each layer's
        pruned and full time read in one :meth:`ProfileRunner.measure_many`
        call, so they equal :meth:`network_latency_ms` of the same layers.
        """

        accuracy_model = self.accuracy_model or default_accuracy_model(network)
        latency = baseline = 0.0
        for index, count in channels.items():
            spec = network.conv_layer(index).spec
            pruned, full = self.runner.measure_many(spec, [count, spec.out_channels]).median
            latency += pruned
            baseline += full
        return PruningOutcome(
            channels=channels,
            latency_ms=float(latency),
            baseline_latency_ms=float(baseline),
            predicted_accuracy=accuracy_model.predict(network, channels),
            baseline_accuracy=accuracy_model.predict(network),
        )

    def compare_with_uninstructed(
        self,
        network: Network,
        fraction: float,
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
    ) -> StrategyComparison:
        """Head-to-head comparison at a matched compression fraction."""

        aware = self.prune_performance_aware_fraction(
            network, fraction, layer_indices, sweep_step=sweep_step
        )
        naive = self.prune_uninstructed(network, fraction, layer_indices)
        return StrategyComparison(performance_aware=aware, uninstructed=naive)
