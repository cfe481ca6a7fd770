"""Latency tables: the profiled latency-vs-channels curves.

A :class:`LatencyTable` holds the measured latency of one layer for
every channel count of interest — the data behind the paper's staircase
figures and the input to the performance-aware pruning optimiser (which
needs to know, for every candidate pruning level, what the layer would
cost on the target).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..models.layers import ConvLayerSpec
from .runner import ProfileRunner, Sweep, count_array, distinct_counts


class LatencyTableError(ValueError):
    """Raised when a latency table is queried or built without measurements."""


@dataclass(frozen=True)
class LatencyTable:
    """Latency of a single layer as a function of its channel count.

    Wraps one :class:`~repro.profiling.runner.Sweep` whose counts are
    distinct, ascending and positive; the latency at a count is its
    median time.
    """

    sweep: Sweep

    def __post_init__(self) -> None:
        counts = self.sweep.counts
        if counts.size and (counts[0] < 1 or (counts[1:] <= counts[:-1]).any()):
            raise ValueError(
                f"{self.layer_name}: a latency table needs distinct ascending "
                f"channel counts >= 1"
            )

    @property
    def layer_name(self) -> str:
        return self.sweep.layer_name

    @property
    def device_name(self) -> str:
        return self.sweep.device_name

    @property
    def library_name(self) -> str:
        return self.sweep.library_name

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sweep)

    def __contains__(self, out_channels: int) -> bool:
        return bool((self.sweep.counts == out_channels).any())

    def _require_entries(self) -> None:
        if not len(self.sweep):
            raise LatencyTableError(
                f"latency table for layer {self.layer_name!r} "
                f"({self.library_name} on {self.device_name}) has no measurements"
            )

    @property
    def channel_counts(self) -> List[int]:
        """Measured channel counts, ascending."""

        self._require_entries()
        return self.sweep.counts.tolist()

    @property
    def max_channels(self) -> int:
        self._require_entries()
        return int(self.sweep.counts[-1])

    def time_ms(self, out_channels: int) -> float:
        """Latency of the layer at an exact measured channel count."""

        return float(self.times_ms([out_channels])[0])

    def times_ms(self, channel_counts: Iterable[int]) -> np.ndarray:
        """Latencies at exact measured channel counts, as one array."""

        found, missing = self.sweep.select(count_array(channel_counts))
        if missing.size:
            raise KeyError(f"{self.layer_name}: no measurement for {missing[0]} channels")
        return found.median

    def as_series(self) -> Tuple[List[int], List[float]]:
        """(channel counts, times) as parallel ascending lists of Python numbers."""

        return self.sweep.counts.tolist(), self.sweep.median.tolist()

    # ------------------------------------------------------------------
    def speedup(self, out_channels: int, baseline_channels: Optional[int] = None) -> float:
        """Speedup of a pruned configuration relative to a baseline.

        Values below 1.0 are the slowdowns the paper warns about.
        """

        baseline = self.max_channels if baseline_channels is None else baseline_channels
        return self.time_ms(baseline) / self.time_ms(out_channels)

    def best_channels_within(self, budget_ms: float) -> Optional[int]:
        """Largest measured channel count not exceeding a latency budget.

        This is the paper's "right side of a performance step" selection:
        for a given execution-time budget, keep as many channels (hence
        as much accuracy potential) as possible.
        """

        fitting = self.sweep.counts[self.sweep.median <= budget_ms]
        return int(fitting[-1]) if fitting.size else None


def sweep_counts(
    out_channels: int,
    channel_counts: Optional[Iterable[int]] = None,
    step: int = 1,
    start: int = 1,
) -> Tuple[int, ...]:
    """The channel counts every sweep measures, distinct and ascending:
    ``channel_counts``, or ``start..out_channels`` by ``step``, and
    always ``out_channels``.  A count outside ``1..out_channels`` is a
    :class:`ValueError`: the layer cannot have it."""

    if step < 1:
        raise ValueError(f"sweep step must be >= 1, got {step}")
    counts = range(start, out_channels + 1, step) if channel_counts is None else channel_counts
    result = tuple(sorted({*map(int, counts), out_channels}))
    if result[0] < 1 or result[-1] > out_channels:
        raise ValueError(
            f"channel counts must lie in 1..{out_channels}, got {result[0]}..{result[-1]}"
        )
    return result


def build_latency_table(
    runner: ProfileRunner,
    layer: ConvLayerSpec,
    channel_counts: Optional[Iterable[int]] = None,
) -> LatencyTable:
    """Measure a layer across channel counts and collect a latency table.

    ``runner`` may also be a :class:`repro.api.Target`, in which case a
    fresh (uncached) :class:`ProfileRunner` is built for it; pass a
    :class:`repro.api.Session`-owned runner to share measurements.
    """

    if not isinstance(runner, ProfileRunner):
        runner = ProfileRunner.for_target(runner)
    counts = (
        distinct_counts(channel_counts)
        if channel_counts is not None
        else np.arange(1, layer.out_channels + 1)
    )
    if not counts.size:
        raise LatencyTableError(
            f"cannot build a latency table for layer {layer.name!r} "
            f"from an empty channel sweep"
        )
    return LatencyTable(runner.measure_many(layer, counts))


def prune_distances(original_channels: int, distances: Iterable[int]) -> List[int]:
    """Channel counts after pruning at the paper's "distances".

    The heatmap figures prune ``d`` channels for d in {1, 3, 7, 15, 31,
    63, 127}; distances that would leave no channels are clamped to one
    channel (the paper reports the last feasible value for shallow
    layers).
    """

    counts = []
    for distance in distances:
        if distance < 0:
            raise ValueError(f"prune distance must be non-negative, got {distance}")
        counts.append(max(1, original_channels - distance))
    return counts
