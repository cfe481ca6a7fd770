"""Speedup/slowdown matrices: the data behind the paper's heatmap figures.

Figures 1, 6, 8-11, 13, 16, 17 and 19 all share one structure: for every
profiled layer of a network (columns) and every pruning distance (rows:
prune 1, 3, 7, 15, 31, 63, 127 channels), report either the *speedup*
achieved by the best channel count at that distance or the *maximum
slowdown* risked.  This module computes those matrices from latency
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..models.graph import ConvLayerRef
from ..profiling.runner import ProfileRunner

#: The pruning distances used by the paper's heatmaps.
PAPER_PRUNE_DISTANCES: Tuple[int, ...] = (1, 3, 7, 15, 31, 63, 127)
#: Figure 1 uses a reduced set of distances.
FIGURE1_PRUNE_DISTANCES: Tuple[int, ...] = (1, 7, 15, 31, 63)
#: Figure 19 (TVM) stops at a pruning distance of 31.
TVM_PRUNE_DISTANCES: Tuple[int, ...] = (1, 3, 7, 15, 31)


@dataclass
class SpeedupMatrix:
    """Speedups (or slowdowns) per layer and pruning distance."""

    network_name: str
    device_name: str
    library_name: str
    metric: str
    prune_distances: List[int]
    layer_labels: List[str]
    values: Dict[Tuple[int, str], float] = field(default_factory=dict)

    def set(self, distance: int, layer_label: str, value: float) -> None:
        self.values[(distance, layer_label)] = value

    def get(self, distance: int, layer_label: str) -> float:
        return self.values[(distance, layer_label)]

    def row(self, distance: int) -> List[float]:
        """Values for one pruning distance across all layers."""

        return [self.values[(distance, label)] for label in self.layer_labels]

    def column(self, layer_label: str) -> List[float]:
        """Values for one layer across all pruning distances."""

        return [self.values[(distance, layer_label)] for distance in self.prune_distances]

    @property
    def max_value(self) -> float:
        return max(self.values.values())

    @property
    def min_value(self) -> float:
        return min(self.values.values())

    def format(self, precision: int = 1) -> str:
        """Render the matrix as fixed-width text (layers as columns)."""

        label_width = max(12, max(len(label) for label in self.layer_labels) + 1)
        header = " " * 12 + "".join(f"{label:>{label_width}}" for label in self.layer_labels)
        lines = [
            f"{self.metric} — {self.network_name} / {self.library_name} on {self.device_name}",
            header,
        ]
        for distance in self.prune_distances:
            cells = "".join(
                f"{self.values[(distance, label)]:>{label_width}.{precision}f}"
                for label in self.layer_labels
            )
            lines.append(f"Prune={distance:<5}" + cells)
        return "\n".join(lines)


def _distance_values(
    runner: ProfileRunner, ref: ConvLayerRef, distances: Sequence[int], metric: str
) -> List[float]:
    """``metric`` at each pruning distance, from one sweep of the widest window.

    The window of distance ``d`` is every count from ``d`` channels
    below the layer's size (at least 1) up to one below it.
    ``"speedup"`` is the unpruned latency over the window's fastest;
    ``"slowdown"`` is the window's slowest over the unpruned latency.
    """

    out = ref.spec.out_channels
    lowest = max(1, out - max(distances))
    times = runner.measure_many(ref.spec, range(lowest, out + 1)).median
    values = []
    for distance in distances:
        window = times[max(1, out - distance) - lowest:-1]
        values.append(float(
            times[-1] / window.min() if metric == "speedup" else window.max() / times[-1]
        ))
    return values


def best_speedup_at_distance(
    runner: ProfileRunner, ref: ConvLayerRef, distance: int
) -> float:
    """Best speedup achievable by pruning up to ``distance`` channels.

    The paper's speedup heatmaps report, for each pruning distance, the
    maximum speedup over all pruning levels from 1 to ``distance``
    channels (which is why the rows are monotonically non-decreasing);
    values below 1.0 mean every configuration within the distance is
    slower than the unpruned layer.
    """

    return _distance_values(runner, ref, [distance], "speedup")[0]


def worst_slowdown_at_distance(
    runner: ProfileRunner, ref: ConvLayerRef, distance: int
) -> float:
    """Maximum slowdown risked when pruning up to ``distance`` channels.

    Figure 1 reports this as "maximum slowdown [x times]": the worst
    latency among all pruning levels from 1 to ``distance`` channels,
    relative to the unpruned layer.
    """

    return _distance_values(runner, ref, [distance], "slowdown")[0]


def speedup_matrix(
    runner: ProfileRunner,
    refs: Sequence[ConvLayerRef],
    prune_distances: Sequence[int] = PAPER_PRUNE_DISTANCES,
    metric: str = "speedup",
    network_name: Optional[str] = None,
) -> SpeedupMatrix:
    """Compute a heatmap matrix over layers and pruning distances.

    ``metric`` is either ``"speedup"`` (Figures 6, 8-11, 13, 16, 17, 19)
    or ``"slowdown"`` (Figure 1).
    """

    if metric not in ("speedup", "slowdown"):
        raise ValueError(f"metric must be 'speedup' or 'slowdown', got {metric!r}")
    if not refs:
        raise ValueError("refs must not be empty")
    matrix = SpeedupMatrix(
        network_name=network_name or refs[0].network,
        device_name=runner.device.name,
        library_name=runner.library.name,
        metric=("Speedup [x times]" if metric == "speedup" else "Maximum slowdown [x times]"),
        prune_distances=list(prune_distances),
        layer_labels=[ref.label for ref in refs],
    )
    for ref in refs:
        values = _distance_values(runner, ref, prune_distances, metric)
        for distance, value in zip(prune_distances, values):
            matrix.set(distance, ref.label, value)
    return matrix
