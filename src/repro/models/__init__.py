"""CNN model zoo: layer specs, network graphs and the paper's three networks.

Network builders live in the unified :data:`MODELS` registry:
``MODELS.create(name)``, or :meth:`repro.api.Session.network`.
"""

from .alexnet import build_alexnet
from .graph import ConvLayerRef, Network, NetworkError, build_sequential_network
from .layers import (
    ActivationLayerSpec,
    BatchNormLayerSpec,
    ConvLayerSpec,
    DropoutLayerSpec,
    FullyConnectedLayerSpec,
    LayerSpec,
    LayerSpecError,
    PoolLayerSpec,
    conv_output_hw,
    round_up,
    same_padding,
)
from .resnet50 import build_resnet50
from .vgg16 import build_vgg16
from .zoo import (
    MODELS,
    UnknownModelError,
    available_models,
    canonical_name,
    profiled_layer_indices,
    profiled_layer_refs,
)

__all__ = [
    "MODELS",
    "ActivationLayerSpec",
    "BatchNormLayerSpec",
    "ConvLayerRef",
    "ConvLayerSpec",
    "DropoutLayerSpec",
    "FullyConnectedLayerSpec",
    "LayerSpec",
    "LayerSpecError",
    "Network",
    "NetworkError",
    "PoolLayerSpec",
    "UnknownModelError",
    "available_models",
    "build_alexnet",
    "build_resnet50",
    "build_sequential_network",
    "build_vgg16",
    "canonical_name",
    "conv_output_hw",
    "profiled_layer_indices",
    "profiled_layer_refs",
    "round_up",
    "same_padding",
]
