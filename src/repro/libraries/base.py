"""Common interface for the deep-learning library models.

Each library model reproduces the *planning heuristics* of one of the
libraries the paper characterises (Arm Compute Library GEMM and Direct
convolution, cuDNN, TVM): given a convolutional layer specification and
a target device it decides which kernels to dispatch, how much work each
performs, which workgroup sizes to use and how many GPU jobs are
created.  Each library writes those rules once, over a vector of
channel counts: :meth:`ConvolutionLibrary.plan_counts` returns a
:class:`~repro.gpusim.batch.KernelBatch` for a whole channel sweep, and
:meth:`ConvolutionLibrary.plan` is the same computation for one count,
wrapped as a :class:`~repro.gpusim.kernel.KernelPlan`.  Either is then
costed by the GPU simulator.

The split between *planner* (this package) and *simulator*
(:mod:`repro.gpusim`) mirrors the paper's methodology: the unintuitive
latency patterns are caused by library decisions, which the paper makes
visible by replaying them on a Mali GPU simulator.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Type

import numpy as np

from ..api.registry import Registry, UnknownPluginError
from ..gpusim.batch import KernelBatch
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelPlan
from ..models.layers import ConvLayerSpec, LayerSpecError


class LibraryError(ValueError):
    """Raised when a library cannot plan a layer (wrong API, bad shape)."""


class UnknownLibraryError(UnknownPluginError):
    """Raised when a library name is not registered."""


class ConvolutionLibrary(abc.ABC):
    """Base class for library planning models."""

    #: Registry name, e.g. ``"acl-gemm"``.
    name: str = ""
    #: Programming API the library targets (``"opencl"`` or ``"cuda"``).
    api: str = ""
    #: Library version the heuristics were modelled after.
    version: str = ""

    def check_device(self, device: DeviceSpec) -> None:
        """Raise :class:`LibraryError` if the device API does not match."""

        if device.api != self.api:
            raise LibraryError(
                f"{self.name} targets {self.api} devices, but {device.board} "
                f"({device.name}) is a {device.api} device"
            )

    def plan_counts(
        self, layer: ConvLayerSpec, counts: Sequence[int], device: DeviceSpec
    ) -> KernelBatch:
        """Plan ``layer`` pruned to each of ``counts`` filters, as one batch.

        Configuration ``i`` of the batch is what :meth:`plan` returns for
        ``layer.with_out_channels(counts[i])``, computed with NumPy over
        the whole vector of counts.
        """

        self.check_device(device)
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if counts.size and (counts.min() < 1 or (counts % layer.groups).any()):
            bad = counts[(counts < 1) | (counts % layer.groups != 0)][0]
            raise LayerSpecError(
                f"out_channels must be a positive multiple of groups={layer.groups}, "
                f"got {bad}"
            )
        return self._plan_counts(layer, counts, device)

    @abc.abstractmethod
    def _plan_counts(
        self, layer: ConvLayerSpec, counts: np.ndarray, device: DeviceSpec
    ) -> KernelBatch:
        """The library's cost model over a validated int64 vector of counts."""

    def plan(self, layer: ConvLayerSpec, device: DeviceSpec) -> KernelPlan:
        """Plan the kernels dispatched to run one inference of ``layer``."""

        batch = self.plan_counts(layer, [layer.out_channels], device)
        return batch.plan(0, library=self.name, layer_name=layer.name)

    def plan_with_channels(
        self, layer: ConvLayerSpec, out_channels: int, device: DeviceSpec
    ) -> KernelPlan:
        """Plan the layer after pruning it to ``out_channels`` filters."""

        return self.plan(layer.with_out_channels(out_channels), device)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} api={self.api!r}>"


#: The unified library registry (see :mod:`repro.api.registry`); entries
#: are :class:`ConvolutionLibrary` subclasses, instantiated per lookup
#: via ``LIBRARIES.create(name)``.
LIBRARIES: Registry[Type[ConvolutionLibrary]] = Registry(
    "library",
    error_cls=UnknownLibraryError,
    aliases={
        "acl": "acl-gemm",
        "arm-compute-library": "acl-gemm",
        "acl_gemm": "acl-gemm",
        "acl_direct": "acl-direct",
        "cudnn7": "cudnn",
        "tvm-opencl": "tvm",
    },
)


def register_library(cls: Type[ConvolutionLibrary]) -> Type[ConvolutionLibrary]:
    """Class decorator adding a library model to the registry."""

    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    return LIBRARIES.register(cls.name, cls)


def available_libraries() -> List[str]:
    """Registered library names, sorted."""

    return LIBRARIES.available()

