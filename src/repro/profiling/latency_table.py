"""Latency tables: the profiled latency-vs-channels curves.

A :class:`LatencyTable` holds the measured latency of one layer for
every channel count of interest — the data behind the paper's staircase
figures and the input to the performance-aware pruning optimiser (which
needs to know, for every candidate pruning level, what the layer would
cost on the target).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..models.layers import ConvLayerSpec
from .runner import Measurement, ProfileRunner


class LatencyTableError(ValueError):
    """Raised when a latency table is queried or built without measurements."""


@dataclass
class LatencyTable:
    """Latency of a single layer as a function of its channel count."""

    layer_name: str
    device_name: str
    library_name: str
    entries: Dict[int, float] = field(default_factory=dict)

    def add(self, out_channels: int, time_ms: float) -> None:
        if out_channels < 1:
            raise ValueError(f"out_channels must be >= 1, got {out_channels}")
        if time_ms <= 0:
            raise ValueError(f"time_ms must be positive, got {time_ms}")
        self.entries[out_channels] = time_ms

    def add_measurement(self, measurement: Measurement) -> None:
        self.add(measurement.out_channels, measurement.median_time_ms)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, out_channels: int) -> bool:
        return out_channels in self.entries

    def _require_entries(self) -> None:
        if not self.entries:
            raise LatencyTableError(
                f"latency table for layer {self.layer_name!r} "
                f"({self.library_name} on {self.device_name}) has no measurements"
            )

    @property
    def channel_counts(self) -> List[int]:
        """Measured channel counts, ascending."""

        self._require_entries()
        return sorted(self.entries)

    @property
    def max_channels(self) -> int:
        self._require_entries()
        return max(self.entries)

    def time_ms(self, out_channels: int) -> float:
        """Latency of the layer at an exact measured channel count."""

        if out_channels not in self.entries:
            raise KeyError(
                f"{self.layer_name}: no measurement for {out_channels} channels"
            )
        return self.entries[out_channels]

    def as_series(self) -> Tuple[List[int], List[float]]:
        """(channel counts, times) as parallel ascending lists."""

        counts = self.channel_counts
        return counts, [self.entries[count] for count in counts]

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

        candidates = [
            count for count, time in self.entries.items() if time <= budget_ms
        ]
        return max(candidates) if candidates else None


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
        list(channel_counts)
        if channel_counts is not None
        else list(range(1, layer.out_channels + 1))
    )
    if not counts:
        raise LatencyTableError(
            f"cannot build a latency table for layer {layer.name!r} "
            f"from an empty channel sweep"
        )
    table = LatencyTable(
        layer_name=layer.name,
        device_name=runner.device.name,
        library_name=runner.library.name,
    )
    # Measurements are already checked (counts >= 1, times > 0), so they
    # go in without add()'s per-entry checks.
    table.entries.update(
        (measurement.out_channels, measurement.median_time_ms)
        for measurement in runner.measure_many(layer, counts)
    )
    return table


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
