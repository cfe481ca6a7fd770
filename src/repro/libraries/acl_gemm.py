"""Arm Compute Library (v19.02) GEMM convolution planning model.

The paper's Section IV-B.1 instruments ACL's GEMM path on a Mali GPU
simulator and finds, for ResNet-50 layer 16:

* three kernel types are dispatched: ``im2col3x3_nhwc``,
  ``reshape_to_columns`` and ``gemm_mm``;
* output channels are padded to the vectorisation width of 4 ("each
  level is in groups of 4", Figure 14);
* for some channel counts the OpenCL runtime splits ``gemm_mm`` into a
  main kernel plus a small *remainder* kernel dispatched as an extra GPU
  job (Tables I and IV); the extra job's dispatch overhead and the
  remainder kernel's poor utilisation are what create the second, slower
  staircase of Figures 3 and 14.

The instruction-count model is calibrated against Tables I-IV: the
``gemm_mm`` cost is exactly linear in the number of processed output
columns (848,055,936 arithmetic / 43,521,408 memory instructions for 96
columns of layer 16, i.e. 8,833,916 / 453,348 per column), the
``reshape_to_columns`` cost is constant in the channel count, and the
``im2col`` cost has a small linear channel dependence.  Costs for other
layer shapes are scaled by the layer's GEMM problem size relative to the
calibration layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..gpusim.batch import KernelBatch, KernelColumn, KernelKind
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import WorkgroupSize
from ..models.layers import ConvLayerSpec
from .base import ConvolutionLibrary, register_library

# ---------------------------------------------------------------------------
# Calibration against the paper's Tables I-IV (ResNet-50 layer 16:
# 3x3 convolution, 128 input channels, 28x28 output -> K = 1152, N = 784).
# ---------------------------------------------------------------------------

#: GEMM reduction dimension (K) of the calibration layer.
CALIBRATION_K = 1152
#: GEMM output-pixel dimension (N) of the calibration layer.
CALIBRATION_N = 784
#: K * N of the calibration layer.
CALIBRATION_KN = CALIBRATION_K * CALIBRATION_N
#: (K + 1) * N of the calibration layer (the reshape buffer includes a
#: bias row, which is what makes its memory count 4 * N * (K + 1)).
CALIBRATION_KN_BIAS = (CALIBRATION_K + 1) * CALIBRATION_N

#: gemm_mm executed instructions per output column (Table II / 96).
GEMM_ARITH_PER_COLUMN = 8_833_916
GEMM_MEM_PER_COLUMN = 453_348

#: reshape_to_columns executed instructions (constant per Tables I-IV).
RESHAPE_ARITH = 44_183_104
RESHAPE_MEM_PER_ELEMENT = 4  # memory instructions per reshaped element

#: im2col executed instructions: a base cost plus a per-channel term
#: (fitted exactly to Tables I-IV: 92,286 + 13,836 * C arithmetic and
#: 2,306 * C memory instructions).
IM2COL_ARITH_BASE = 92_286
IM2COL_ARITH_PER_CHANNEL = 13_836
IM2COL_MEM_PER_CHANNEL = 2_306

#: Vectorisation width over output channels (filters): the GEMM kernel
#: processes columns in groups of 4, so channel counts are padded to 4.
VECTOR_WIDTH = 4

#: The main gemm_mm kernel processes output columns in blocks of 16; when
#: the padded channel count is not a multiple of the dispatch granularity
#: (8), the runtime emits a second gemm_mm kernel for the remainder
#: columns as an extra GPU job.
COLUMN_BLOCK = 16
DISPATCH_GRANULARITY = 8

#: The remainder kernel uses the narrow (non-vectorised) tile variant.
REMAINDER_VECTOR_EFFICIENCY = 0.4

#: Rows of output pixels each GEMM work item computes.
PIXELS_PER_WORK_ITEM = 4


@dataclass(frozen=True)
class GemmSplit:
    """How the GEMM columns (padded output channels) are partitioned.

    Fields are ints for one channel count, arrays for a vector of them.
    """

    padded_channels: int
    main_columns: int
    remainder_columns: int

    @property
    def is_split(self):
        return self.remainder_columns > 0

    @property
    def total_columns(self):
        return self.main_columns + self.remainder_columns


def pad_channels(out_channels):
    """Pad a channel count (or an array of them) to the vectorisation width."""

    return -(-out_channels // VECTOR_WIDTH) * VECTOR_WIDTH


def split_columns(out_channels) -> GemmSplit:
    """Decide whether the GEMM is dispatched as one kernel or two.

    The padded column count is processed by a single ``gemm_mm`` kernel
    when it is a multiple of the dispatch granularity (8 columns);
    otherwise the main kernel covers the largest multiple of the column
    block (16) and a remainder kernel covers the rest.  This reproduces
    the paper's observations exactly: 92 channels -> 80 + 12 columns
    (Table I), 93..96 channels -> a single 96-column kernel (Tables
    II/III), 97 channels -> 96 + 4 columns (Table IV).  Elementwise over
    an array of channel counts.
    """

    padded = pad_channels(out_channels)
    split = (padded % DISPATCH_GRANULARITY != 0) & (padded >= COLUMN_BLOCK)
    remainder = split * (padded % COLUMN_BLOCK)
    return GemmSplit(
        padded_channels=padded, main_columns=padded - remainder, remainder_columns=remainder
    )


def gemm_problem(layer: ConvLayerSpec) -> Tuple[int, int]:
    """The (K, N) GEMM dimensions of a convolution layer."""

    rows, cols = layer.im2col_matrix_shape
    return rows, cols


def _scale(value, numerator: int, denominator: int):
    """Integer scaling that is exact for the calibration layer."""

    return (value * numerator) // denominator


def _gemm_work_items(columns, n_dim: int):
    return np.maximum(columns // VECTOR_WIDTH, 1) * max(1, n_dim // PIXELS_PER_WORK_ITEM)


@register_library
class AclGemmLibrary(ConvolutionLibrary):
    """ACL v19.02 GEMM convolution planner for Mali GPUs."""

    name = "acl-gemm"
    api = "opencl"
    version = "v19.02"

    # ------------------------------------------------------------------
    # Instruction-count model (calibrated against Tables I-IV)
    # ------------------------------------------------------------------
    def im2col_instructions(self, layer: ConvLayerSpec, channels) -> Tuple:
        """(arithmetic, memory) instructions of the im2col kernel.

        Elementwise over ``channels``, an output-channel count or an array.
        """

        k_dim, n_dim = gemm_problem(layer)
        scale_num, scale_den = k_dim * n_dim, CALIBRATION_KN
        arith = _scale(IM2COL_ARITH_BASE, scale_num, scale_den) + _scale(
            IM2COL_ARITH_PER_CHANNEL * channels, scale_num, scale_den
        )
        mem = _scale(IM2COL_MEM_PER_CHANNEL * channels, scale_num, scale_den)
        return arith, np.maximum(mem, 1)

    def reshape_instructions(self, layer: ConvLayerSpec) -> Tuple[int, int]:
        """(arithmetic, memory) instructions of reshape_to_columns."""

        k_dim, n_dim = gemm_problem(layer)
        elements = (k_dim + 1) * n_dim
        arith = _scale(RESHAPE_ARITH, elements, CALIBRATION_KN_BIAS)
        mem = RESHAPE_MEM_PER_ELEMENT * elements
        return arith, mem

    def gemm_instructions_per_column(self, layer: ConvLayerSpec) -> Tuple[int, int]:
        """(arithmetic, memory) instructions of gemm_mm per output column."""

        k_dim, n_dim = gemm_problem(layer)
        arith = _scale(GEMM_ARITH_PER_COLUMN, k_dim * n_dim, CALIBRATION_KN)
        mem = _scale(GEMM_MEM_PER_COLUMN, k_dim * n_dim, CALIBRATION_KN)
        return arith, mem

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan_counts(
        self, layer: ConvLayerSpec, counts: np.ndarray, device: DeviceSpec
    ) -> KernelBatch:
        k_dim, n_dim = gemm_problem(layer)
        split = split_columns(counts)
        kinds = (
            KernelKind(
                f"im2col{layer.kernel_size}x{layer.kernel_size}_nhwc",
                WorkgroupSize(8, 1, 1), dispatches_job=False, tag="im2col",
            ),
            KernelKind(
                "reshape_to_columns", WorkgroupSize(16, 1, 1),
                dispatches_job=False, tag="reshape",
            ),
            KernelKind("gemm_mm", WorkgroupSize(4, 4, 1), dispatches_job=True, tag="gemm-main"),
            KernelKind(
                "gemm_mm", WorkgroupSize(1, 4, 1), dispatches_job=True, tag="gemm-remainder"
            ),
        )
        im2col_arith, im2col_mem = self.im2col_instructions(layer, counts)
        reshape_arith, reshape_mem = self.reshape_instructions(layer)
        column_arith, column_mem = self.gemm_instructions_per_column(layer)
        columns = (
            KernelColumn(
                kind=0,
                arithmetic_instructions=im2col_arith,
                memory_instructions=im2col_mem,
                work_items=max(1, n_dim),
            ),
            KernelColumn(
                kind=1,
                arithmetic_instructions=reshape_arith,
                memory_instructions=reshape_mem,
                work_items=max(1, (k_dim + 1) * n_dim // 4),
            ),
            KernelColumn(
                kind=2,
                arithmetic_instructions=column_arith * split.main_columns,
                memory_instructions=column_mem * split.main_columns,
                work_items=_gemm_work_items(split.main_columns, n_dim),
            ),
            KernelColumn(
                kind=3,
                arithmetic_instructions=column_arith * split.remainder_columns,
                memory_instructions=column_mem * split.remainder_columns,
                work_items=_gemm_work_items(split.remainder_columns, n_dim),
                vector_efficiency=REMAINDER_VECTOR_EFFICIENCY,
                present=split.is_split,
            ),
        )
        # The split is a function of the padded count, and so is the note.
        return KernelBatch.assemble(kinds, columns, split.padded_channels, _notes)


def _notes(padded_channels: np.ndarray) -> List[str]:
    """The plan notes of each padded channel count."""

    split = split_columns(padded_channels)
    return [
        f"padded_channels={padded} main_columns={main} remainder_columns={remainder}"
        for padded, main, remainder in zip(
            split.padded_channels.tolist(),
            split.main_columns.tolist(),
            split.remainder_columns.tolist(),
        )
    ]
