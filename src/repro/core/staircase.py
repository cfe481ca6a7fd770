"""Staircase analysis of latency-vs-channels curves.

The central empirical observation of the paper is that layer latency as
a function of the channel count is a *staircase* (Figures 2-5, 7, 12,
14, 15, 20): flat plateaus separated by abrupt steps, sometimes split
into two parallel staircases or several alternating levels.  This module
detects the structure of such curves and extracts the quantities the
performance-aware pruning proposal needs:

* the **steps** (channel counts where latency changes abruptly);
* the **plateaus** between steps;
* the **optimal points** — the right-most channel count of each plateau
  ("the most number of channels for an inference time", Section IV-A.1),
  which are the only channel counts worth considering when pruning;
* summary statistics (number of levels, maximum step ratio) used to
  compare libraries and devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..profiling.latency_table import LatencyTable

#: Relative latency change between neighbouring channel counts that
#: counts as a step (plateaus are flat to within measurement noise).
DEFAULT_STEP_THRESHOLD = 0.08


@dataclass(frozen=True)
class Step:
    """One abrupt latency change between adjacent channel counts."""

    channels_before: int
    channels_after: int
    time_before_ms: float
    time_after_ms: float

    @property
    def ratio(self) -> float:
        """How much slower the higher-channel side is (>= 1 for upward steps)."""

        return self.time_after_ms / self.time_before_ms

    @property
    def is_upward(self) -> bool:
        """True when adding channels increases latency (the usual case)."""

        return self.time_after_ms > self.time_before_ms


@dataclass(frozen=True)
class Plateau:
    """A maximal run of channel counts with (near-)constant latency."""

    min_channels: int
    max_channels: int
    mean_time_ms: float

    @property
    def width(self) -> int:
        return self.max_channels - self.min_channels + 1


@dataclass(frozen=True, eq=False)
class StaircaseAnalysis:
    """Full analysis of one latency-vs-channels curve.

    Stores arrays: the curve (ascending ``counts``, median ``times_ms``),
    the ``breaks`` where a new plateau starts (see :func:`_analyze`) and
    the ``threshold`` that found them; the plateau right edges and pruning
    levels are read from these.  ``steps``, ``plateaus`` and
    ``level_times_ms`` are built from the stored breaks on first access.
    """

    layer_name: str
    counts: np.ndarray
    times_ms: np.ndarray
    breaks: np.ndarray
    threshold: float

    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StaircaseAnalysis):
            return NotImplemented
        arrays = ("counts", "times_ms", "breaks")
        return (self.layer_name, self.threshold) == (other.layer_name, other.threshold) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in arrays
        )

    @cached_property
    def steps(self) -> Tuple[Step, ...]:
        counts, times = self.counts.tolist(), self.times_ms.tolist()
        return tuple(Step(counts[i - 1], counts[i], times[i - 1], times[i]) for i in self.breaks)

    @cached_property
    def plateaus(self) -> Tuple[Plateau, ...]:
        counts, times = self.counts.tolist(), self.times_ms.tolist()
        bounds = [0, *self.breaks.tolist(), len(counts)] if counts else []
        return tuple(
            Plateau(counts[start], counts[end - 1], sum(times[start:end]) / (end - start))
            for start, end in zip(bounds, bounds[1:])
        )

    @cached_property
    def level_times_ms(self) -> Tuple[float, ...]:
        return tuple(cluster_levels([plateau.mean_time_ms for plateau in self.plateaus]))

    @cached_property
    def right_edges(self) -> np.ndarray:
        """Channel count on the right edge of each plateau, ascending."""

        return np.append(self.counts[self.breaks - 1], self.counts[-1:])

    @property
    def optimal_channel_counts(self) -> List[int]:
        return self.right_edges.tolist()

    @property
    def level_count(self) -> int:
        """Number of distinct latency levels (1 = linear/flat, 2+ = staircase)."""

        return len(self.level_times_ms)

    @property
    def max_step_ratio(self) -> float:
        """Largest relative latency change across a single step."""

        if not self.steps:
            return 1.0
        return max(max(step.ratio, 1.0 / step.ratio) for step in self.steps)

    def pruning_levels(self, max_channels: int) -> List[int]:
        """Plateau right edges at or below ``max_channels``, plus that count.

        Every other channel count wastes either latency (same time, fewer
        channels) or accuracy potential (more time for no extra channels).
        """

        edges = self.right_edges[self.right_edges <= max_channels].tolist()
        return edges if edges and edges[-1] == max_channels else [*edges, max_channels]

    def has_downward_steps(self) -> bool:
        """True when *adding* channels can reduce latency (parallel staircases)."""

        return any(not step.is_upward for step in self.steps)


def _analyze(layer_name: str, counts, times_ms, threshold: float) -> StaircaseAnalysis:
    """The analysis of a curve, whose breaks are the indices ``i >= 1``
    where latency changes by more than ``threshold`` relative to entry
    ``i - 1``."""

    times = np.asarray(times_ms, dtype=np.float64)
    if times.size > 1 and times.min() <= 0:
        raise ValueError("latencies must be positive")
    breaks = np.flatnonzero(np.abs(np.diff(times)) / times[:-1] > threshold) + 1
    return StaircaseAnalysis(layer_name, np.asarray(counts), times, breaks, threshold)


def detect_steps(
    channel_counts: Sequence[int],
    times_ms: Sequence[float],
    threshold: float = DEFAULT_STEP_THRESHOLD,
) -> List[Step]:
    """Find abrupt latency changes between adjacent channel counts."""

    if len(channel_counts) != len(times_ms):
        raise ValueError("channel_counts and times_ms must have the same length")
    return list(_analyze("", channel_counts, times_ms, threshold).steps)


def detect_plateaus(
    channel_counts: Sequence[int],
    times_ms: Sequence[float],
    threshold: float = DEFAULT_STEP_THRESHOLD,
) -> List[Plateau]:
    """Group adjacent channel counts whose latency is flat within threshold."""

    return list(_analyze("", channel_counts, times_ms, threshold).plateaus)


def cluster_levels(
    times_ms: Sequence[float], relative_tolerance: float = 0.12
) -> List[float]:
    """Cluster latencies into distinct levels (for the "parallel staircase" check).

    Returns the representative (mean) time of each level, ascending.  One
    pass over the sorted times: each joins the first level whose mean is
    within tolerance (or opens a new one), and a level's mean is
    recomputed only when it grows.
    """

    levels: List[List[float]] = []
    centres: List[float] = []
    # Levels a later time may still join, in creation order.  A level whose
    # mean a time already exceeds by more than the tolerance is out of
    # reach for good: later times are larger and its mean cannot move.
    reachable: List[int] = []
    for time in sorted(times_ms):
        match = None
        kept = []
        for index in reachable:
            centre = centres[index]
            if match is None:
                if abs(time - centre) / centre <= relative_tolerance:
                    match = index
                elif time > centre:
                    continue
            kept.append(index)
        if match is None:
            match = len(levels)
            levels.append([])
            centres.append(time)
            kept.append(match)
        reachable = kept
        level = levels[match]
        level.append(time)
        centres[match] = sum(level) / len(level)
    return centres


def analyze_table(
    table: LatencyTable, threshold: float = DEFAULT_STEP_THRESHOLD
) -> StaircaseAnalysis:
    """Run the full staircase analysis on a latency table."""

    return _analyze(table.layer_name, table.sweep.counts, table.sweep.median, threshold)


def optimal_pruning_levels(
    table: LatencyTable,
    threshold: float = DEFAULT_STEP_THRESHOLD,
    max_channels: Optional[int] = None,
) -> List[int]:
    """Channel counts worth considering when pruning this layer.

    These are the right edges of the latency plateaus at or below
    ``max_channels`` (default: the layer's original size); see
    :meth:`StaircaseAnalysis.pruning_levels`.
    """

    upper = table.max_channels if max_channels is None else max_channels
    return analyze_table(table, threshold).pruning_levels(upper)
