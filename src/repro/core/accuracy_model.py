"""Parametric accuracy-retention proxy.

The paper deliberately ignores accuracy when profiling latency
("we perform channel pruning without considering the accuracy impact,
but our channel pruning approach has the same effect on inference time
as when done with accuracy conditions"), and points to a companion work
[19] for the joint latency/accuracy optimisation it proposes in Section
V.  Reproducing that proposal requires *some* accuracy signal; since no
training data or frameworks are available in this environment, we use a
documented parametric proxy.

The proxy models the well-established empirical behaviour of channel
pruning with fine-tuning: accuracy is nearly flat for mild pruning and
degrades super-linearly as a layer approaches zero channels, with layers
weighted by their share of the network's parameters (heavily
over-parameterised layers tolerate more pruning).  The functional form —
a per-layer concave retention curve combined multiplicatively — is a
substitution for retraining, not a claim about any specific dataset; see
DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..models.graph import Network


@dataclass(frozen=True)
class AccuracyModel:
    """Accuracy proxy for a pruned network.

    ``baseline_accuracy`` is the unpruned top-1 accuracy.  ``sensitivity``
    scales how quickly accuracy degrades with pruning; ``exponent``
    controls the curvature (values > 1 make mild pruning nearly free,
    matching the pruning literature's retention curves).
    """

    baseline_accuracy: float = 0.76
    sensitivity: float = 0.35
    exponent: float = 2.0
    minimum_accuracy: float = 0.001

    def __post_init__(self) -> None:
        if not 0.0 < self.baseline_accuracy <= 1.0:
            raise ValueError(f"baseline_accuracy must be in (0, 1], got {self.baseline_accuracy}")
        # Finite parameters keep a full-size layer's factor exactly 1.0
        # (nan * 0 is nan), which predict() relies on to skip it.
        if not (math.isfinite(self.sensitivity) and self.sensitivity >= 0):
            raise ValueError(f"sensitivity must be finite and non-negative, got {self.sensitivity}")
        if not (math.isfinite(self.exponent) and self.exponent >= 1.0):
            raise ValueError(f"exponent must be finite and >= 1, got {self.exponent}")

    # ------------------------------------------------------------------
    def layer_retention(self, kept_fraction: float) -> float:
        """Accuracy retention factor of one layer kept at a fraction of its size."""

        if not 0.0 < kept_fraction <= 1.0:
            raise ValueError(f"kept_fraction must be in (0, 1], got {kept_fraction}")
        pruned_fraction = 1.0 - kept_fraction
        penalty = self.sensitivity * (pruned_fraction ** self.exponent)
        return max(0.0, 1.0 - penalty)

    def predict(
        self,
        network: Network,
        channels: Optional[Mapping[int, int]] = None,
    ) -> float:
        """Predicted accuracy of a network with the given channel counts.

        ``channels`` maps conv layer index -> remaining channels; layers
        not mentioned keep their original size.  Per-layer penalties are
        weighted by each layer's share of the convolution parameters, so
        pruning a huge layer costs more than pruning a tiny one.
        """

        positions = network.conv_indices
        if not positions:
            return self.baseline_accuracy
        channels = channels or {}
        # A layer kept at full size contributes a factor of exactly 1.0,
        # so only the pruned layers are multiplied, in index order.
        pruned = sorted(index for index in channels if index in positions)
        if not pruned:
            return max(self.minimum_accuracy, self.baseline_accuracy)
        layers = network.layers
        total_params = sum(layers[position].parameter_count for position in positions.values())
        retention = 1.0
        for index in pruned:
            spec = layers[positions[index]]
            kept = channels[index]
            if not 1 <= kept <= spec.out_channels:
                raise ValueError(
                    f"layer {network.layer_label(index)}: invalid channel count {kept} "
                    f"(original {spec.out_channels})"
                )
            weight = spec.parameter_count / total_params
            layer_retention = self.layer_retention(kept / spec.out_channels)
            retention *= 1.0 - weight * (1.0 - layer_retention)
        return max(self.minimum_accuracy, self.baseline_accuracy * retention)

    def accuracy_drop(
        self, network: Network, channels: Optional[Mapping[int, int]] = None
    ) -> float:
        """Absolute accuracy drop of a pruned configuration vs the baseline."""

        return self.baseline_accuracy - self.predict(network, channels)


#: Baseline ImageNet-style top-1 accuracies used by the examples.
DEFAULT_BASELINES: Dict[str, float] = {
    "ResNet": 0.7615,
    "VGG": 0.7159,
    "AlexNet": 0.5652,
}


def default_accuracy_model(network: Network) -> AccuracyModel:
    """Accuracy model with the conventional baseline for a zoo network."""

    baseline = DEFAULT_BASELINES.get(network.name, 0.70)
    return AccuracyModel(baseline_accuracy=baseline)
