"""TVM (0.6) OpenCL code-generator planning model for Mali GPUs.

Section IV-A.4 of the paper finds an "atypical behavior pattern" for
TVM-generated OpenCL code: most channel counts are served by an
efficient GEMM-style schedule, but a significant number of
configurations are *untuned out of the box* and fall back to a
direct-convolution-style schedule that is roughly an order of magnitude
slower (Figure 20 shows a 10.5x spread for ResNet-50 layer 14; Figure 19
shows per-layer outcomes ranging from 0.0x — i.e. dramatic slowdowns
when pruning lands on an untuned size — up to 13.9x speedups).

Model: whether a configuration is covered by the out-of-box tuning log
is a deterministic, pseudo-random function of the full layer
configuration — mirroring the practical experience that, from the
user's point of view, which sizes happen to be tuned is essentially
arbitrary.  Crucially this includes the *original* (unpruned) sizes:
Figure 19's 13.9x speedups and 0.0x slowdowns both arise because the
tuning log covers neither all pruned sizes nor all stock sizes.  Untuned
sizes use the fallback schedule; a further fraction use a mediocre
schedule that is tuned but poorly matched.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import List

import numpy as np

from ..gpusim.batch import KernelBatch, KernelColumn, KernelKind
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import WorkgroupSize
from ..models.layers import ConvLayerSpec
from .base import ConvolutionLibrary, register_library

#: Executed instructions per MAC of the tuned (GEMM-style) schedule.
TVM_TUNED_ARITH_PER_MAC = 10
TVM_TUNED_MEM_PER_MAC = 1

#: Executed instructions per MAC of the fallback (direct-style) schedule.
TVM_FALLBACK_ARITH_PER_MAC = 26
TVM_FALLBACK_MEM_PER_MAC = 3

#: SIMD-lane utilisation of each schedule class.
TVM_TUNED_EFFICIENCY = 1.0
TVM_MEDIOCRE_EFFICIENCY = 0.45
TVM_FALLBACK_EFFICIENCY = 0.22

#: Out of 100 pseudo-random buckets: configurations falling in the first
#: ``FALLBACK_BUCKETS`` use the fallback schedule, the next
#: ``MEDIOCRE_BUCKETS`` a mediocre schedule, the rest a tuned schedule.
FALLBACK_BUCKETS = 18
MEDIOCRE_BUCKETS = 12

#: Salt of the pseudo-random bucket hash (identifies the tuning-log
#: snapshot the model represents).
TUNING_LOG_SALT = "mali:"


class ScheduleClass(Enum):
    """Quality class of the schedule TVM emits for a configuration."""

    TUNED = "tuned"
    MEDIOCRE = "mediocre"
    FALLBACK = "fallback"


#: Schedule classes in bucket order (the kind table's order), with the
#: per-class kernel parameters.
_CLASSES = (ScheduleClass.FALLBACK, ScheduleClass.MEDIOCRE, ScheduleClass.TUNED)
_CLASS_LIMITS = (FALLBACK_BUCKETS, FALLBACK_BUCKETS + MEDIOCRE_BUCKETS)
_EFFICIENCY = np.array(
    [TVM_FALLBACK_EFFICIENCY, TVM_MEDIOCRE_EFFICIENCY, TVM_TUNED_EFFICIENCY]
)
_WORKGROUPS = (WorkgroupSize(1, 1, 8), WorkgroupSize(4, 4, 1), WorkgroupSize(16, 4, 1))
_KINDS = tuple(
    KernelKind(f"tvm_conv2d_{klass.value}", workgroup, dispatches_job=True, tag=klass.value)
    for klass, workgroup in zip(_CLASSES, _WORKGROUPS)
)


def configuration_buckets(layer: ConvLayerSpec, counts) -> np.ndarray:
    """Deterministic pseudo-random bucket (0..99) of the layer at each count."""

    prefix = (
        f"{TUNING_LOG_SALT}{layer.in_channels}x{layer.kernel_size}s{layer.stride}"
        f"h{layer.input_hw}c"
    )
    return np.array(
        [
            int.from_bytes(
                hashlib.sha256(f"{prefix}{count}".encode("utf-8")).digest()[:4], "little"
            )
            % 100
            for count in np.asarray(counts).reshape(-1).tolist()
        ],
        dtype=np.int64,
    )


def configuration_bucket(layer: ConvLayerSpec) -> int:
    """Deterministic pseudo-random bucket (0..99) of a configuration."""

    return int(configuration_buckets(layer, layer.out_channels)[0])


def _class_index(buckets):
    """Position of each bucket's schedule class in :data:`_CLASSES`."""

    return np.searchsorted(_CLASS_LIMITS, buckets, side="right")


def schedule_class(layer: ConvLayerSpec) -> ScheduleClass:
    """Which schedule class TVM uses for this layer configuration."""

    return _CLASSES[_class_index(configuration_bucket(layer))]


@register_library
class TvmLibrary(ConvolutionLibrary):
    """TVM 0.6 OpenCL code-generator planner for Mali GPUs."""

    name = "tvm"
    api = "opencl"
    version = "0.6"

    def _plan_counts(
        self, layer: ConvLayerSpec, counts: np.ndarray, device: DeviceSpec
    ) -> KernelBatch:
        buckets = configuration_buckets(layer, counts)
        index = _class_index(buckets)
        fallback = index == _CLASSES.index(ScheduleClass.FALLBACK)
        padded_channels = -(-counts // 4) * 4
        padded_macs = layer.macs_per_output_element * padded_channels * layer.output_pixels
        arith_per_mac = np.where(fallback, TVM_FALLBACK_ARITH_PER_MAC, TVM_TUNED_ARITH_PER_MAC)
        mem_per_mac = np.where(fallback, TVM_FALLBACK_MEM_PER_MAC, TVM_TUNED_MEM_PER_MAC)
        kernel = KernelColumn(
            kind=index,
            arithmetic_instructions=arith_per_mac * padded_macs,
            memory_instructions=mem_per_mac * padded_macs,
            work_items=counts * layer.output_pixels,
            vector_efficiency=_EFFICIENCY[index],
        )
        # The schedule class is a function of the bucket, and so is the note.
        return KernelBatch.assemble(_KINDS, (kernel,), buckets, _notes)


def _notes(buckets: np.ndarray) -> List[str]:
    """The plan notes of each tuning-log bucket."""

    return [
        f"schedule={_CLASSES[klass].value} bucket={bucket}"
        for klass, bucket in zip(_class_index(buckets).tolist(), buckets.tolist())
    ]
