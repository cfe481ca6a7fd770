"""AlexNet model definition.

The paper profiles AlexNet's five convolutional layers, indexed 0, 3, 6,
8 and 10 within the feature extractor (pooling and ReLU layers occupy
the other indices), with filter counts 64, 192, 384, 256 and 256.
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

#: The convolutional layer indices the paper profiles.
PROFILED_LAYER_INDICES: Tuple[int, ...] = (0, 3, 6, 8, 10)


def build_alexnet(input_hw: int = 224) -> Network:
    """Construct the AlexNet network graph (5 convolutions + classifier)."""

    layers: List[LayerSpec] = []
    conv_index_map: Dict[int, int] = {}

    def add_conv(index: int, spec: ConvLayerSpec) -> None:
        conv_index_map[index] = len(layers)
        layers.append(spec)

    # Feature extractor, mirroring the canonical AlexNet configuration.
    add_conv(
        0,
        ConvLayerSpec(
            name="alexnet.conv0", in_channels=3, out_channels=64,
            kernel_size=11, stride=4, padding=2, input_hw=input_hw,
        ),
    )
    layers.append(ActivationLayerSpec(name="alexnet.relu1", kind="relu"))
    layers.append(PoolLayerSpec(name="alexnet.pool2", kernel_size=3, stride=2))

    hw_after_conv0 = (input_hw + 4 - 11) // 4 + 1
    hw_after_pool2 = (hw_after_conv0 - 3) // 2 + 1
    add_conv(
        3,
        ConvLayerSpec(
            name="alexnet.conv3", in_channels=64, out_channels=192,
            kernel_size=5, stride=1, padding=2, input_hw=hw_after_pool2,
        ),
    )
    layers.append(ActivationLayerSpec(name="alexnet.relu4", kind="relu"))
    layers.append(PoolLayerSpec(name="alexnet.pool5", kernel_size=3, stride=2))

    hw_after_pool5 = (hw_after_pool2 - 3) // 2 + 1
    add_conv(
        6,
        ConvLayerSpec(
            name="alexnet.conv6", in_channels=192, out_channels=384,
            kernel_size=3, stride=1, padding=1, input_hw=hw_after_pool5,
        ),
    )
    layers.append(ActivationLayerSpec(name="alexnet.relu7", kind="relu"))
    add_conv(
        8,
        ConvLayerSpec(
            name="alexnet.conv8", in_channels=384, out_channels=256,
            kernel_size=3, stride=1, padding=1, input_hw=hw_after_pool5,
        ),
    )
    layers.append(ActivationLayerSpec(name="alexnet.relu9", kind="relu"))
    add_conv(
        10,
        ConvLayerSpec(
            name="alexnet.conv10", in_channels=256, out_channels=256,
            kernel_size=3, stride=1, padding=1, input_hw=hw_after_pool5,
        ),
    )
    layers.append(ActivationLayerSpec(name="alexnet.relu11", kind="relu"))
    layers.append(PoolLayerSpec(name="alexnet.pool12", kernel_size=3, stride=2))

    hw_final = (hw_after_pool5 - 3) // 2 + 1
    classifier_in = 256 * hw_final * hw_final
    layers.extend(
        [
            DropoutLayerSpec(name="alexnet.drop1", rate=0.5),
            FullyConnectedLayerSpec(name="alexnet.fc1", in_features=classifier_in, out_features=4096),
            ActivationLayerSpec(name="alexnet.fc1.relu", kind="relu"),
            DropoutLayerSpec(name="alexnet.drop2", rate=0.5),
            FullyConnectedLayerSpec(name="alexnet.fc2", in_features=4096, out_features=4096),
            ActivationLayerSpec(name="alexnet.fc2.relu", kind="relu"),
            FullyConnectedLayerSpec(name="alexnet.fc3", in_features=4096, out_features=1000),
        ]
    )

    return build_sequential_network(
        "AlexNet",
        layers,
        input_shape=(3, input_hw, input_hw),
        conv_index_map=conv_index_map,
    )

