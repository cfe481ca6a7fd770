"""Latency-vs-channels curves: the data behind the paper's line figures.

Figures 2-5, 7, 12, 14, 15 and 20 plot the inference time of one layer
against its (pruned) channel count.  This module produces those series
from a :class:`~repro.profiling.runner.ProfileRunner`, along with the
derived annotations the paper calls out (step ratios, the largest gap
between nearby channel counts, the spread between schedule classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..models.layers import ConvLayerSpec
from ..profiling.latency_table import LatencyTable, build_latency_table, sweep_counts
from ..profiling.runner import ProfileRunner


@dataclass(frozen=True)
class LatencyCurve:
    """One latency-vs-channels series with metadata."""

    layer_label: str
    device_name: str
    library_name: str
    channel_counts: Tuple[int, ...]
    times_ms: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.channel_counts) != len(self.times_ms):
            raise ValueError("channel_counts and times_ms must have equal length")
        if len(self.channel_counts) < 2:
            raise ValueError("a latency curve needs at least two points")

    # ------------------------------------------------------------------
    def time_at(self, channels: int) -> float:
        try:
            index = self.channel_counts.index(channels)
        except ValueError as error:
            raise KeyError(f"no measurement at {channels} channels") from error
        return self.times_ms[index]

    @property
    def min_time_ms(self) -> float:
        return min(self.times_ms)

    @property
    def max_time_ms(self) -> float:
        return max(self.times_ms)

    @property
    def spread(self) -> float:
        """Ratio between the slowest and fastest point of the curve."""

        return self.max_time_ms / self.min_time_ms

    def largest_adjacent_gap(self) -> Tuple[int, int, float]:
        """The neighbouring channel counts with the largest latency ratio.

        Returns ``(channels_fast, channels_slow, ratio)`` — e.g. the
        paper's Figure 15 reports 2024 vs 2036 channels at 2.57x.
        """

        best: Tuple[int, int, float] = (self.channel_counts[0], self.channel_counts[1], 1.0)
        for index in range(1, len(self.channel_counts)):
            low, high = self.times_ms[index - 1], self.times_ms[index]
            slow_first = low >= high
            ratio = (low / high) if slow_first else (high / low)
            if ratio > best[2]:
                if slow_first:
                    best = (self.channel_counts[index], self.channel_counts[index - 1], ratio)
                else:
                    best = (self.channel_counts[index - 1], self.channel_counts[index], ratio)
        return best

    def as_rows(self) -> List[Tuple[int, float]]:
        return list(zip(self.channel_counts, self.times_ms))

    def format(self, max_rows: int = 24) -> str:
        """Render the curve as a two-column text table (subsampled)."""

        rows = self.as_rows()
        stride = max(1, len(rows) // max_rows)
        sampled = rows[::stride]
        if rows[-1] not in sampled:
            sampled.append(rows[-1])
        lines = [
            f"{self.layer_label} — {self.library_name} on {self.device_name}",
            f"{'channels':>10} {'time (ms)':>12}",
        ]
        lines.extend(f"{channels:>10} {time:>12.3f}" for channels, time in sampled)
        return "\n".join(lines)


def latency_curve(
    runner: ProfileRunner,
    spec: ConvLayerSpec,
    layer_label: str,
    channel_counts: Optional[Sequence[int]] = None,
    min_channels: int = 1,
    step: int = 1,
) -> LatencyCurve:
    """Measure a layer across a channel sweep and package it as a curve."""

    counts = sweep_counts(spec.out_channels, channel_counts, step, start=min_channels)
    table = build_latency_table(runner, spec, counts)
    ordered, times = table.as_series()
    return LatencyCurve(
        layer_label=layer_label,
        device_name=runner.device.name,
        library_name=runner.library.name,
        channel_counts=tuple(ordered),
        times_ms=tuple(times),
    )


def curve_from_table(table: LatencyTable, layer_label: str) -> LatencyCurve:
    """Build a curve directly from an existing latency table."""

    counts, times = table.as_series()
    return LatencyCurve(
        layer_label=layer_label,
        device_name=table.device_name,
        library_name=table.library_name,
        channel_counts=tuple(counts),
        times_ms=tuple(times),
    )
