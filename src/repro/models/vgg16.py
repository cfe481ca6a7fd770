"""VGG-16 model definition.

Layer indices follow the feed-forward feature-extractor indexing used by
the paper (and by the common torchvision implementation): convolutions
sit at indices 0, 2, 5, 7, 10, 12, 14, 17, 19, 21, 24, 26 and 28, with
ReLU and max-pooling layers occupying the other indices.  The paper
profiles the layers with *unique shapes*: 0, 2, 5, 7, 10, 12, 17, 19 and
24, whose filter counts are 64, 64, 128, 128, 256, 256, 512, 512, 512.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .graph import Network, build_sequential_network
from .layers import (
    ActivationLayerSpec,
    ConvLayerSpec,
    DropoutLayerSpec,
    FullyConnectedLayerSpec,
    LayerSpec,
    PoolLayerSpec,
)

#: VGG-16 configuration "D": filter counts with 'M' marking max-pooling.
VGG16_CONFIG: Tuple = (64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
                       512, 512, 512, "M", 512, 512, 512, "M")

#: The 9 unique-shape convolutional layer indices the paper profiles.
PROFILED_LAYER_INDICES: Tuple[int, ...] = (0, 2, 5, 7, 10, 12, 17, 19, 24)


def build_vgg16(input_hw: int = 224) -> Network:
    """Construct the VGG-16 network graph (13 convolutions + classifier)."""

    layers: List[LayerSpec] = []
    conv_index_map: Dict[int, int] = {}

    in_channels = 3
    hw = input_hw
    feature_index = 0
    for entry in VGG16_CONFIG:
        if entry == "M":
            layers.append(
                PoolLayerSpec(name=f"vgg16.pool{feature_index}", kernel_size=2, stride=2)
            )
            hw //= 2
            feature_index += 1
            continue
        out_channels = int(entry)
        conv = ConvLayerSpec(
            name=f"vgg16.conv{feature_index}",
            in_channels=in_channels,
            out_channels=out_channels,
            kernel_size=3,
            stride=1,
            padding=1,
            input_hw=hw,
        )
        conv_index_map[feature_index] = len(layers)
        layers.append(conv)
        feature_index += 1
        layers.append(
            ActivationLayerSpec(name=f"vgg16.relu{feature_index}", kind="relu")
        )
        feature_index += 1
        in_channels = out_channels

    classifier_in = in_channels * hw * hw
    layers.extend(
        [
            FullyConnectedLayerSpec(name="vgg16.fc1", in_features=classifier_in, out_features=4096),
            ActivationLayerSpec(name="vgg16.fc1.relu", kind="relu"),
            DropoutLayerSpec(name="vgg16.drop1", rate=0.5),
            FullyConnectedLayerSpec(name="vgg16.fc2", in_features=4096, out_features=4096),
            ActivationLayerSpec(name="vgg16.fc2.relu", kind="relu"),
            DropoutLayerSpec(name="vgg16.drop2", rate=0.5),
            FullyConnectedLayerSpec(name="vgg16.fc3", in_features=4096, out_features=1000),
        ]
    )

    return build_sequential_network(
        "VGG",
        layers,
        input_shape=(3, input_hw, input_hw),
        conv_index_map=conv_index_map,
    )

