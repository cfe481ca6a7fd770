"""ResNet-50 model definition.

The paper indexes ResNet-50's convolutional layers 0..52 in forward
order and profiles the 23 layers with *unique shapes*:

``{0, 1, 2, 3, 5, 11, 12, 13, 14, 15, 16, 24, 25, 26, 27, 28, 29,
   43, 44, 45, 46, 47, 48}``

With the standard bottleneck construction (stem, then stages of
[3, 4, 6, 3] bottleneck blocks with a projection/downsample convolution
in each stage's first block) these indices land on exactly the layers
referenced in the paper's figures:

* layer 14 — the conv3 stage projection, a 1x1 convolution with **512**
  filters on a 56x56 input with stride 2 (Figures 5, 7, 12, 20);
* layer 16 — a 3x3 convolution with **128** filters on a 28x28 input
  (Figures 4, 14 and Tables I-IV);
* layer 45 — a 1x1 expansion convolution with **2048** filters
  (Figure 15).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .graph import Network, build_sequential_network
from .layers import (
    ActivationLayerSpec,
    BatchNormLayerSpec,
    ConvLayerSpec,
    FullyConnectedLayerSpec,
    LayerSpec,
    PoolLayerSpec,
    same_padding,
)

#: Number of bottleneck blocks in each of the four stages of ResNet-50.
STAGE_BLOCKS: Tuple[int, int, int, int] = (3, 4, 6, 3)

#: Bottleneck "width" (the 1x1/3x3 filter count) of each stage.
STAGE_WIDTHS: Tuple[int, int, int, int] = (64, 128, 256, 512)

#: Expansion factor of the bottleneck's final 1x1 convolution.
EXPANSION = 4

#: The 23 convolutional layer indices with unique shapes, as profiled in
#: the paper's figures (ResNet.L0 .. ResNet.L48).
PROFILED_LAYER_INDICES: Tuple[int, ...] = (
    0, 1, 2, 3, 5, 11, 12, 13, 14, 15, 16,
    24, 25, 26, 27, 28, 29, 43, 44, 45, 46, 47, 48,
)


def _conv(
    name: str,
    in_channels: int,
    out_channels: int,
    kernel_size: int,
    stride: int,
    input_hw: int,
) -> ConvLayerSpec:
    return ConvLayerSpec(
        name=name,
        in_channels=in_channels,
        out_channels=out_channels,
        kernel_size=kernel_size,
        stride=stride,
        padding=same_padding(kernel_size),
        input_hw=input_hw,
        bias=False,
    )


def _bottleneck_layers(
    stage: int,
    block: int,
    in_channels: int,
    width: int,
    input_hw: int,
    conv_counter: List[int],
) -> Tuple[List[LayerSpec], Dict[int, int], int, int]:
    """Build one bottleneck block.

    Returns the layer list, a conv-index -> relative-position map, the
    block's output channel count, and the block's output spatial size.
    """

    layers: List[LayerSpec] = []
    conv_positions: Dict[int, int] = {}
    out_channels = width * EXPANSION
    stride = 2 if (stage > 0 and block == 0) else 1
    prefix = f"resnet50.conv{stage + 2}_{block + 1}"

    def add_conv(spec: ConvLayerSpec) -> None:
        conv_positions[conv_counter[0]] = len(layers)
        conv_counter[0] += 1
        layers.append(spec)
        layers.append(BatchNormLayerSpec(name=spec.name + ".bn", num_features=spec.out_channels))
        layers.append(ActivationLayerSpec(name=spec.name + ".relu", kind="relu"))

    # 1x1 reduce
    add_conv(_conv(prefix + ".conv1", in_channels, width, 1, 1, input_hw))
    # 3x3 (carries the stride)
    add_conv(_conv(prefix + ".conv2", width, width, 3, stride, input_hw))
    mid_hw = layers[-3].output_hw  # type: ignore[union-attr]
    # 1x1 expand
    add_conv(_conv(prefix + ".conv3", width, out_channels, 1, 1, mid_hw))
    # projection shortcut in the first block of every stage
    if block == 0:
        add_conv(_conv(prefix + ".downsample", in_channels, out_channels, 1, stride, input_hw))

    return layers, conv_positions, out_channels, mid_hw


def build_resnet50(input_hw: int = 224) -> Network:
    """Construct the full ResNet-50 network graph (53 convolutions)."""

    layers: List[LayerSpec] = []
    conv_index_map: Dict[int, int] = {}
    conv_counter = [0]

    def register(positions: Dict[int, int], offset: int) -> None:
        for index, relative in positions.items():
            conv_index_map[index] = offset + relative

    # Stem: 7x7/2 convolution then 3x3/2 max pooling.
    stem = ConvLayerSpec(
        name="resnet50.conv1",
        in_channels=3,
        out_channels=64,
        kernel_size=7,
        stride=2,
        padding=3,
        input_hw=input_hw,
        bias=False,
    )
    conv_index_map[conv_counter[0]] = len(layers)
    conv_counter[0] += 1
    layers.append(stem)
    layers.append(BatchNormLayerSpec(name="resnet50.conv1.bn", num_features=64))
    layers.append(ActivationLayerSpec(name="resnet50.conv1.relu", kind="relu"))
    layers.append(PoolLayerSpec(name="resnet50.maxpool", kernel_size=3, stride=2, padding=1))

    hw = (stem.output_hw + 2 * 1 - 3) // 2 + 1  # after the stride-2 max pool
    in_channels = 64
    for stage, (blocks, width) in enumerate(zip(STAGE_BLOCKS, STAGE_WIDTHS)):
        for block in range(blocks):
            block_layers, positions, out_channels, out_hw = _bottleneck_layers(
                stage, block, in_channels, width, hw, conv_counter
            )
            register(positions, len(layers))
            layers.extend(block_layers)
            in_channels = out_channels
            hw = out_hw

    layers.append(PoolLayerSpec(name="resnet50.avgpool", kernel_size=hw, stride=1, mode="avg"))
    layers.append(
        FullyConnectedLayerSpec(name="resnet50.fc", in_features=in_channels, out_features=1000)
    )

    return build_sequential_network(
        "ResNet",
        layers,
        input_shape=(3, input_hw, input_hw),
        conv_index_map=conv_index_map,
    )

