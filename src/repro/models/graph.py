"""Network graph representation used by the pruning engine.

The paper profiles each convolutional layer in isolation, but the
pruning *proposal* (Section V) operates on whole networks: the selected
channel count of layer ``i`` changes the input channel count of the
layer(s) that consume its output.  ``Network`` captures exactly the
structure needed for that: an ordered sequence of layer specs plus, for
every convolutional layer, the index of the convolutional layer feeding
it (if any).

Residual networks are handled conservatively: a convolution at the start
of a residual block consumes the block input, which is itself the output
of the previous block's final (or projection) convolution.  For the
single-layer latency study this detail is irrelevant — only the layer's
own shape matters — so the zoo builders keep the consumer map simple and
sequential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .layers import ConvLayerSpec, LayerSpec


class NetworkError(ValueError):
    """Raised for structurally invalid networks or invalid pruning requests."""


@dataclass(frozen=True)
class ConvLayerRef:
    """A reference to a convolutional layer inside a network.

    ``index`` is the paper's layer index (e.g. ``ResNet.L16`` has index
    16); ``position`` is the position of the layer in the network's
    ordered layer list.
    """

    network: str
    index: int
    position: int
    spec: ConvLayerSpec

    @property
    def label(self) -> str:
        return f"{self.network}.L{self.index}"


@dataclass
class Network:
    """An ordered collection of layer specs with pruning support."""

    name: str
    layers: List[LayerSpec] = field(default_factory=list)
    input_shape: Tuple[int, int, int] = (3, 224, 224)
    conv_indices: Dict[int, int] = field(default_factory=dict)
    consumers: Dict[int, List[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise NetworkError("network name must be non-empty")
        seen = set()
        for position in self.conv_indices.values():
            if position in seen:
                raise NetworkError("duplicate conv position in conv_indices")
            seen.add(position)
            if not isinstance(self.layers[position], ConvLayerSpec):
                raise NetworkError(
                    f"conv_indices points at non-convolution layer at position {position}"
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    @property
    def conv_layer_indices(self) -> List[int]:
        """Paper-style indices of the convolutional layers, sorted."""

        return sorted(self.conv_indices)

    def conv_layers(self) -> List[ConvLayerRef]:
        """All convolutional layers as references, in index order."""

        refs = []
        for index in self.conv_layer_indices:
            position = self.conv_indices[index]
            spec = self.layers[position]
            assert isinstance(spec, ConvLayerSpec)
            refs.append(ConvLayerRef(self.name, index, position, spec))
        return refs

    def conv_layer(self, index: int) -> ConvLayerRef:
        """Return the convolutional layer with the given paper index."""

        if index not in self.conv_indices:
            raise NetworkError(
                f"{self.name} has no convolutional layer with index {index}; "
                f"available: {self.conv_layer_indices}"
            )
        position = self.conv_indices[index]
        spec = self.layers[position]
        assert isinstance(spec, ConvLayerSpec)
        return ConvLayerRef(self.name, index, position, spec)

    def layer_label(self, index: int) -> str:
        return f"{self.name}.L{index}"

    # ------------------------------------------------------------------
    # Aggregate work metrics
    # ------------------------------------------------------------------
    @property
    def total_conv_parameters(self) -> int:
        return sum(ref.spec.parameter_count for ref in self.conv_layers())

    def channel_counts(self) -> Dict[int, int]:
        """Mapping of conv layer index -> current output channel count."""

        return {ref.index: ref.spec.out_channels for ref in self.conv_layers()}

    # ------------------------------------------------------------------
    # Pruning transformations
    # ------------------------------------------------------------------
    def with_layer_channels(
        self,
        channels: Mapping[int, int],
        propagate: bool = True,
    ) -> "Network":
        """Return a new network with modified output channel counts.

        ``channels`` maps conv layer index -> new ``out_channels``.  When
        ``propagate`` is true, consumer convolutions have their
        ``in_channels`` updated to match, which is what happens when a
        whole network is compressed; when false, only the named layers
        change (the paper's single-layer latency experiments).
        """

        new_layers = list(self.layers)
        for index, new_count in channels.items():
            ref = self.conv_layer(index)
            if new_count < 1:
                raise NetworkError(
                    f"layer {self.layer_label(index)} cannot have {new_count} channels"
                )
            if new_count > ref.spec.out_channels:
                raise NetworkError(
                    f"layer {self.layer_label(index)} has {ref.spec.out_channels} "
                    f"channels; cannot grow to {new_count} by pruning"
                )
            # Re-read from new_layers: an earlier iteration may already have
            # updated this layer's in_channels via consumer propagation.
            current = new_layers[ref.position]
            assert isinstance(current, ConvLayerSpec)
            new_layers[ref.position] = current.with_out_channels(new_count)
            if propagate:
                for consumer_position in self.consumers.get(ref.position, []):
                    consumer = new_layers[consumer_position]
                    if isinstance(consumer, ConvLayerSpec):
                        new_layers[consumer_position] = consumer.with_in_channels(new_count)

        return Network(
            name=self.name,
            layers=new_layers,
            input_shape=self.input_shape,
            conv_indices=dict(self.conv_indices),
            consumers={k: list(v) for k, v in self.consumers.items()},
        )

    def prune_layer(self, index: int, n_pruned: int, propagate: bool = True) -> "Network":
        """Return a new network with ``n_pruned`` channels removed from one layer."""

        ref = self.conv_layer(index)
        remaining = ref.spec.out_channels - n_pruned
        if remaining < 1:
            raise NetworkError(
                f"pruning {n_pruned} channels from {self.layer_label(index)} "
                f"({ref.spec.out_channels} channels) would leave none"
            )
        return self.with_layer_channels({index: remaining}, propagate=propagate)

    # ------------------------------------------------------------------
    # Shape propagation (sanity check used by tests)
    # ------------------------------------------------------------------
    def infer_shapes(self) -> List[Tuple[int, int, int]]:
        """Propagate the input shape through all layers, returning outputs."""

        shapes = []
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
            shapes.append(shape)
        return shapes


def sequential_consumers(layers: Sequence[LayerSpec]) -> Dict[int, List[int]]:
    """Build a consumer map assuming each conv feeds the next conv in order."""

    conv_positions = [
        position for position, layer in enumerate(layers) if isinstance(layer, ConvLayerSpec)
    ]
    consumers: Dict[int, List[int]] = {}
    for current, nxt in zip(conv_positions, conv_positions[1:]):
        consumers[current] = [nxt]
    return consumers


def build_sequential_network(
    name: str,
    layers: Iterable[LayerSpec],
    input_shape: Tuple[int, int, int],
    conv_index_map: Optional[Dict[int, int]] = None,
) -> Network:
    """Construct a :class:`Network` from an ordered layer list.

    ``conv_index_map`` maps the paper's layer index to the position in the
    layer list; when omitted, convolutions are indexed by their position.
    """

    layer_list = list(layers)
    if conv_index_map is None:
        conv_index_map = {
            position: position
            for position, layer in enumerate(layer_list)
            if isinstance(layer, ConvLayerSpec)
        }
    return Network(
        name=name,
        layers=layer_list,
        input_shape=input_shape,
        conv_indices=dict(conv_index_map),
        consumers=sequential_consumers(layer_list),
    )
