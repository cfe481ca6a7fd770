"""Arm Compute Library (v19.02) Direct convolution planning model.

Section IV-A.2 and IV-B.2 of the paper characterise ACL's direct
convolution path:

* the convolution is dispatched as a single kernel (no job splits), but
  the library selects the OpenCL **workgroup size** from a small set of
  candidates based on the layer shape, and that selection — invisible to
  the user — determines performance (Table V: 90 channels -> 2x1x8,
  91 -> 1x1x8, 92 -> 4x1x1, 93 -> 1x1x8);
* the result is **three alternating execution levels** (Figure 12) and
  dramatic slowdowns when pruning only one channel from layers whose
  original channel count is a multiple of the vector width (Figure 10
  shows 0.2x-0.9x "speedups", i.e. up to 5x slowdowns, with the 1x1
  layers hit hardest).

The model: the workgroup is chosen by channel divisibility (the rule
that reproduces Table V), and the kernel's SIMD-lane utilisation and
cache locality depend on that choice.  1x1 convolutions vectorise over
output channels, so a channel count that is not a multiple of 4 forces
the narrow variants and costs far more than the ~1% extra instructions
would suggest; 3x3 convolutions vectorise over the spatial window and
only pay a modest penalty.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..gpusim.batch import KernelBatch, KernelColumn, KernelKind
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import WorkgroupSize
from ..models.layers import ConvLayerSpec
from .base import ConvolutionLibrary, register_library

#: Executed instructions per multiply-accumulate of the direct kernel.
#: Direct convolution is a deep scalar loop nest with explicit address
#: arithmetic, which is why the paper finds it "generally slower than
#: all the other methods".
DIRECT_ARITH_PER_MAC = 24
DIRECT_MEM_PER_MAC = 2

#: Additional per-output-element bookkeeping instructions (loop setup,
#: bias add, output address computation) that do not vectorise.
DIRECT_ARITH_PER_OUTPUT = 16

#: Workgroup candidates the library selects between (Table V).
WORKGROUP_BY_DIVISIBILITY = {
    4: WorkgroupSize(4, 1, 1),
    2: WorkgroupSize(2, 1, 8),
    1: WorkgroupSize(1, 1, 8),
}

#: SIMD-lane utilisation of the kernel by (vector width the channel
#: count supports, kernel size class).  1x1 kernels vectorise over
#: output channels; larger kernels vectorise over the filter window.
_POINTWISE_EFFICIENCY = {4: 1.0, 2: 0.62, 1: 0.42}
_SPATIAL_EFFICIENCY = {4: 1.0, 2: 0.93, 1: 0.82}

#: Cache locality of the selected workgroup: workgroups with a single
#: output column (x == 1) cannot reuse input rows across neighbouring
#: work items; the effect is worst on large feature maps.
_LOCALITY_WIDE = 1.0
_LOCALITY_NARROW_SMALL_MAP = 0.7
_LOCALITY_NARROW_LARGE_MAP = 0.35
_LARGE_MAP_THRESHOLD = 56


def channel_divisibility(out_channels):
    """Largest supported vector width (4, 2 or 1) dividing the channels.

    Elementwise over an array of channel counts.
    """

    return np.gcd(out_channels, 4)


def select_workgroup(layer: ConvLayerSpec) -> WorkgroupSize:
    """ACL's workgroup-size choice for a direct convolution layer."""

    return WORKGROUP_BY_DIVISIBILITY[channel_divisibility(layer.out_channels)]


#: The supported divisibilities, in the order of the kernel kind table.
_DIVISIBILITIES = tuple(sorted(WORKGROUP_BY_DIVISIBILITY))


def _divisibility_index(counts):
    """Position of each count's divisibility in :data:`_DIVISIBILITIES`."""

    return np.searchsorted(_DIVISIBILITIES, channel_divisibility(counts))


def _efficiencies(layer: ConvLayerSpec, counts) -> Tuple:
    """(vector_efficiency, memory_locality) of the kernel at each count."""

    index = _divisibility_index(counts)
    vector_table = _POINTWISE_EFFICIENCY if layer.kernel_size == 1 else _SPATIAL_EFFICIENCY
    vector_efficiency = np.array([vector_table[d] for d in _DIVISIBILITIES])[index]
    wide = np.array([WORKGROUP_BY_DIVISIBILITY[d].x >= 2 for d in _DIVISIBILITIES])[index]
    if layer.input_hw >= _LARGE_MAP_THRESHOLD:
        narrow = _LOCALITY_NARROW_LARGE_MAP
    else:
        narrow = _LOCALITY_NARROW_SMALL_MAP
    return vector_efficiency, np.where(wide, _LOCALITY_WIDE, narrow)


def kernel_efficiency(layer: ConvLayerSpec) -> Tuple[float, float]:
    """(vector_efficiency, memory_locality) of the direct kernel."""

    vector_efficiency, locality = _efficiencies(layer, layer.out_channels)
    return float(vector_efficiency), float(locality)


@register_library
class AclDirectLibrary(ConvolutionLibrary):
    """ACL v19.02 Direct convolution planner for Mali GPUs."""

    name = "acl-direct"
    api = "opencl"
    version = "v19.02"

    def _plan_counts(
        self, layer: ConvLayerSpec, counts: np.ndarray, device: DeviceSpec
    ) -> KernelBatch:
        name = f"direct_convolution{layer.kernel_size}x{layer.kernel_size}_nhwc"
        kinds = [
            KernelKind(name, WORKGROUP_BY_DIVISIBILITY[d], dispatches_job=True, tag="direct")
            for d in _DIVISIBILITIES
        ]
        vector_efficiency, locality = _efficiencies(layer, counts)
        # macs and output activations both scale with the channel count.
        macs = layer.macs_per_output_element * counts * layer.output_pixels
        outputs = counts * layer.output_pixels
        kernel = KernelColumn(
            kind=_divisibility_index(counts),
            arithmetic_instructions=(
                DIRECT_ARITH_PER_MAC * macs + DIRECT_ARITH_PER_OUTPUT * outputs
            ),
            memory_instructions=DIRECT_MEM_PER_MAC * macs,
            work_items=outputs,
            vector_efficiency=vector_efficiency,
            memory_locality=locality,
        )
        return KernelBatch.assemble(kinds, (kernel,), channel_divisibility(counts), _notes)


def _notes(divisibilities: np.ndarray) -> List[str]:
    """The plan notes of each channel divisibility."""

    return [
        f"workgroup={WORKGROUP_BY_DIVISIBILITY[d]} divisibility={d}"
        for d in divisibilities.tolist()
    ]
