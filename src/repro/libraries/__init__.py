"""Deep-learning library planning models (ACL GEMM/Direct, cuDNN, TVM).

Planner classes live in the unified :data:`LIBRARIES` registry:
``LIBRARIES.create(name)``, or :class:`repro.api.Target`.
"""

from .acl_direct import AclDirectLibrary, channel_divisibility, select_workgroup
from .acl_gemm import AclGemmLibrary, GemmSplit, pad_channels, split_columns
from .base import (
    LIBRARIES,
    ConvolutionLibrary,
    LibraryError,
    UnknownLibraryError,
    available_libraries,
    register_library,
)
from .cudnn import CudnnLibrary, padded_channels, select_tile
from .tvm import ScheduleClass, TvmLibrary, schedule_class

__all__ = [
    "LIBRARIES",
    "AclDirectLibrary",
    "AclGemmLibrary",
    "ConvolutionLibrary",
    "CudnnLibrary",
    "GemmSplit",
    "LibraryError",
    "ScheduleClass",
    "TvmLibrary",
    "UnknownLibraryError",
    "available_libraries",
    "channel_divisibility",
    "pad_channels",
    "padded_channels",
    "register_library",
    "schedule_class",
    "select_tile",
    "select_workgroup",
    "split_columns",
]
