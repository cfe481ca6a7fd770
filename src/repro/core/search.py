"""Search utilities over pruning configurations.

Section V of the paper argues that profiling collapses the pruning
search space to the configurations "with superior speedup", which can
then be tested for accuracy.  This module provides that machinery:
enumerating candidate configurations from step-optimal channel counts,
evaluating their (latency, accuracy) trade-off, and extracting the
Pareto frontier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..models.graph import Network
from .accuracy_model import AccuracyModel, default_accuracy_model
from .perf_aware import PerformanceAwarePruner


@dataclass(frozen=True)
class Candidate:
    """One pruning configuration with its predicted cost and quality."""

    channels: Dict[int, int]
    latency_ms: float
    predicted_accuracy: float

    def dominates(self, other: "Candidate") -> bool:
        """True when this candidate is at least as good on both axes and
        strictly better on one."""

        no_worse = (
            self.latency_ms <= other.latency_ms
            and self.predicted_accuracy >= other.predicted_accuracy
        )
        strictly_better = (
            self.latency_ms < other.latency_ms
            or self.predicted_accuracy > other.predicted_accuracy
        )
        return no_worse and strictly_better


def pareto_frontier(candidates: Iterable[Candidate]) -> List[Candidate]:
    """Non-dominated candidates, sorted by ascending latency."""

    pool = list(candidates)
    frontier = [
        candidate
        for candidate in pool
        if not any(other.dominates(candidate) for other in pool if other is not candidate)
    ]
    return sorted(frontier, key=lambda candidate: (candidate.latency_ms, -candidate.predicted_accuracy))


@dataclass
class PruningSearch:
    """Enumerate and evaluate step-optimal pruning configurations."""

    pruner: PerformanceAwarePruner
    network: Network
    layer_indices: Sequence[int]
    accuracy_model: Optional[AccuracyModel] = None
    max_levels_per_layer: int = 4

    def __post_init__(self) -> None:
        if not self.layer_indices:
            raise ValueError("layer_indices must not be empty")
        if self.max_levels_per_layer < 1:
            raise ValueError("max_levels_per_layer must be >= 1")
        self._accuracy = self.accuracy_model or default_accuracy_model(self.network)
        # Built once: every candidate reads the same layer profiles.
        self._profile_of = self.pruner.profile_network(self.network, self.layer_indices)

    # ------------------------------------------------------------------
    def layer_options(self, index: int) -> List[int]:
        """Step-optimal channel counts of a layer, largest first, truncated."""

        return self._profile_of[index].levels[::-1][: self.max_levels_per_layer].tolist()

    def evaluate(self, channels: Mapping[int, int]) -> Candidate:
        """Latency and predicted accuracy of one configuration."""

        latency = 0.0
        for index in self.layer_indices:
            profile = self._profile_of[index]
            count = channels.get(index, profile.spec.out_channels)
            latency += profile.time_at(count)
        accuracy = self._accuracy.predict(self.network, channels)
        return Candidate(
            channels=dict(channels), latency_ms=latency, predicted_accuracy=accuracy
        )

    # ------------------------------------------------------------------
    def exhaustive(self) -> List[Candidate]:
        """Evaluate the cross-product of per-layer step-optimal options.

        Intended for small layer subsets (the option count grows as
        ``max_levels_per_layer ** len(layer_indices)``).
        """

        per_layer: List[List[Tuple[int, int]]] = [
            [(index, count) for count in self.layer_options(index)]
            for index in self.layer_indices
        ]
        combinations = 1
        for options in per_layer:
            combinations *= len(options)
        if combinations > 100_000:
            raise ValueError(
                f"exhaustive search over {combinations} configurations is too large; "
                "reduce max_levels_per_layer or the number of layers"
            )
        candidates = []
        for assignment in itertools.product(*per_layer):
            channels = dict(assignment)
            candidates.append(self.evaluate(channels))
        return candidates

    def frontier(self) -> List[Candidate]:
        """Pareto frontier of the exhaustive candidate set."""

        return pareto_frontier(self.exhaustive())
