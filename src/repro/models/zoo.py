"""Model zoo: the three networks the paper profiles, by name.

Builders are registered in the unified :data:`MODELS` registry (see
:mod:`repro.api.registry`); ``MODELS.create("resnet50")`` builds a
network, and :func:`shared_network` builds it once per process (what
:meth:`repro.api.Session.network` and request validation use).  The zoo also exposes the *profiled layer sets* used throughout the
experiments — for each network, the convolutional layers with unique
shapes whose pruning behaviour the paper reports.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Tuple

from . import alexnet, resnet50, vgg16
from ..api.registry import Registry, UnknownPluginError
from .graph import ConvLayerRef, Network


class UnknownModelError(UnknownPluginError):
    """Raised when a model name is not present in the zoo."""


#: The unified model registry; entries are zero-argument network
#: builders, invoked per lookup via ``MODELS.create(name)``.
MODELS: Registry[Callable[[], Network]] = Registry(
    "model",
    error_cls=UnknownModelError,
    aliases={
        "resnet": "resnet50",
        "resnet-50": "resnet50",
        "vgg": "vgg16",
        "vgg-16": "vgg16",
    },
)

MODELS.register("resnet50", resnet50.build_resnet50)
MODELS.register("vgg16", vgg16.build_vgg16)
MODELS.register("alexnet", alexnet.build_alexnet)

_PROFILED_INDICES: Dict[str, Tuple[int, ...]] = {
    "resnet50": resnet50.PROFILED_LAYER_INDICES,
    "vgg16": vgg16.PROFILED_LAYER_INDICES,
    "alexnet": alexnet.PROFILED_LAYER_INDICES,
}


def available_models() -> List[str]:
    """Names of the models in the zoo, sorted."""

    return MODELS.available()


def canonical_name(name: str) -> str:
    """Resolve aliases and capitalisation to a canonical zoo name."""

    return MODELS.canonical(name)



def shared_network(name: str) -> Network:
    """The zoo network of that name, built once per process.

    Every caller shares it: nothing mutates a network (pruning returns
    a copy).  Keyed on the registered builder, so a name re-registered
    with a new builder is built afresh.
    """

    return _shared_network(MODELS.get(name))


@functools.lru_cache(maxsize=None)
def _shared_network(builder: Callable[[], Network]) -> Network:
    return builder()


def profiled_layer_indices(name: str) -> Tuple[int, ...]:
    """Indices of the layers the paper profiles for the given model."""

    return _PROFILED_INDICES[canonical_name(name)]


def profiled_layer_refs(name: str) -> List[ConvLayerRef]:
    """Profiled layers of a model as :class:`ConvLayerRef` objects."""

    network = MODELS.create(canonical_name(name))
    return [network.conv_layer(index) for index in profiled_layer_indices(name)]
