"""Channel pruning engine.

Implements the pruning transformation the paper describes in Section
II-B: removing output channels (filters) from a convolutional layer and
re-indexing the remaining channels contiguously, producing a *compact
dense* layer that runs on the ordinary dense convolution routines.  The
engine works both at the specification level (producing new
:class:`~repro.models.layers.ConvLayerSpec`/:class:`~repro.models.graph.Network`
objects for latency analysis) and at the weight level (producing pruned
weight tensors for functional validation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..models.graph import Network
from ..models.layers import ConvLayerSpec
from ..nn.tensor import conv_bias, conv_weights
from .criteria import ImportanceCriterion, SequentialCriterion


class PruningError(ValueError):
    """Raised for invalid pruning requests."""


@dataclass(frozen=True)
class LayerPruning:
    """The pruning decision for one convolutional layer."""

    layer_index: int
    layer_name: str
    original_channels: int
    kept_channels: List[int]

    def __post_init__(self) -> None:
        if not self.kept_channels:
            raise PruningError(f"{self.layer_name}: cannot prune every channel")
        if len(set(self.kept_channels)) != len(self.kept_channels):
            raise PruningError(f"{self.layer_name}: duplicate kept channel indices")
        if any(not 0 <= c < self.original_channels for c in self.kept_channels):
            raise PruningError(f"{self.layer_name}: kept channel index out of range")
        if sorted(self.kept_channels) != list(self.kept_channels):
            raise PruningError(f"{self.layer_name}: kept channels must be sorted")

    @property
    def remaining_channels(self) -> int:
        return len(self.kept_channels)

    @property
    def pruned_channels(self) -> int:
        return self.original_channels - self.remaining_channels


@dataclass(frozen=True)
class PruningPlan:
    """Per-layer pruning decisions for a whole network."""

    network_name: str
    layers: Dict[int, LayerPruning] = field(default_factory=dict)

    def channels_after(self) -> Dict[int, int]:
        """Conv layer index -> remaining channel count."""

        return {index: pruning.remaining_channels for index, pruning in self.layers.items()}

    def describe(self) -> str:
        lines = [f"Pruning plan for {self.network_name}:"]
        for index in sorted(self.layers):
            pruning = self.layers[index]
            lines.append(
                f"  L{index}: {pruning.original_channels} -> "
                f"{pruning.remaining_channels} channels"
            )
        return "\n".join(lines)


def uniform_keep(
    network: Network, fraction: float, layer_indices: Optional[Sequence[int]] = None
) -> Dict[int, int]:
    """Conv layer index -> channels kept after pruning ``fraction`` of each
    (selected) layer, at least one."""

    if not 0.0 <= fraction < 1.0:
        raise PruningError(f"fraction must be in [0, 1), got {fraction}")
    indices = layer_indices if layer_indices is not None else network.conv_layer_indices
    return {
        index: max(1, round(network.conv_layer(index).spec.out_channels * (1.0 - fraction)))
        for index in indices
    }


class ChannelPruner:
    """Prune channels of layers and networks using an importance criterion."""

    def __init__(self, criterion: Optional[ImportanceCriterion] = None) -> None:
        self.criterion = criterion or SequentialCriterion()

    # ------------------------------------------------------------------
    # Spec-level pruning
    # ------------------------------------------------------------------
    def prune_layer_spec(self, spec: ConvLayerSpec, keep: int) -> ConvLayerSpec:
        """New layer spec with ``keep`` output channels."""

        if not 1 <= keep <= spec.out_channels:
            raise PruningError(
                f"cannot keep {keep} channels of {spec.name} ({spec.out_channels} channels)"
            )
        return spec.with_out_channels(keep)

    def plan_layer(self, network: Network, layer_index: int, keep: int) -> LayerPruning:
        """Decide which channels of one layer to keep."""

        ref = network.conv_layer(layer_index)
        kept = self.criterion.keep_channels(ref.spec, keep)
        return LayerPruning(
            layer_index=layer_index,
            layer_name=ref.spec.name,
            original_channels=ref.spec.out_channels,
            kept_channels=kept,
        )

    def plan_network(self, network: Network, keep_per_layer: Mapping[int, int]) -> PruningPlan:
        """Build a pruning plan from a per-layer keep-count mapping."""

        layers = {
            index: self.plan_layer(network, index, keep)
            for index, keep in keep_per_layer.items()
        }
        return PruningPlan(network_name=network.name, layers=layers)

    def apply_plan(self, network: Network, plan: PruningPlan, propagate: bool = True) -> Network:
        """Produce the pruned network graph described by a plan."""

        return network.with_layer_channels(plan.channels_after(), propagate=propagate)

    def prune_uniform(
        self, network: Network, fraction: float, layer_indices: Optional[List[int]] = None
    ) -> PruningPlan:
        """Prune the same fraction of channels from every (selected) layer.

        This is the "uninstructed" baseline: a target compression ratio
        applied uniformly, with no knowledge of the device or library.
        """

        return self.plan_network(network, uniform_keep(network, fraction, layer_indices))

    # ------------------------------------------------------------------
    # Weight-level pruning (functional validation)
    # ------------------------------------------------------------------
    def prune_weights(
        self,
        spec: ConvLayerSpec,
        keep: int,
        weights: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Pruned weight and bias tensors of a layer.

        Returns a dict with ``weight`` of shape ``(keep, in_c, k, k)``
        and ``bias`` of shape ``(keep,)``; rows appear in their original
        relative order (the paper's contiguous re-indexing).
        """

        if weights is None:
            weights = conv_weights(spec)
        if bias is None:
            bias = conv_bias(spec)
        kept = self.criterion.keep_channels(spec, keep, weights)
        return {"weight": weights[kept], "bias": bias[kept], "kept_channels": np.array(kept)}
