"""Kernel and kernel-plan abstractions shared by the library models.

A *library* (ACL, cuDNN, TVM) plans the execution of a convolutional
layer as a sequence of kernels; the *simulator* turns that plan into a
runtime on a particular device.  This mirrors the paper's methodology:
the higher-level library decides how many kernels to dispatch, their
workgroup sizes and how much work each performs (Tables I-V), and the
hardware/driver turns those decisions into time (Figure 18).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple


class KernelPlanError(ValueError):
    """Raised for structurally invalid kernels or plans."""


@dataclass(frozen=True)
class WorkgroupSize:
    """An OpenCL/CUDA workgroup (thread-block) shape."""

    x: int = 1
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z) < 1:
            raise KernelPlanError(f"workgroup dimensions must be >= 1, got {self}")

    @property
    def threads(self) -> int:
        return self.x * self.y * self.z

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.x}x{self.y}x{self.z}"


@dataclass(frozen=True)
class Kernel:
    """One GPU kernel dispatch planned by a library.

    ``arithmetic_instructions`` and ``memory_instructions`` are the
    executed-instruction counts the Mali simulator reports in the
    paper's Tables I-IV.  ``work_items`` is the size of the NDRange /
    grid (used by the simulator's utilisation model), ``workgroup`` the
    chosen workgroup size (Table V), and ``vector_efficiency`` the
    fraction of SIMD lanes the kernel keeps busy (planner-provided).
    ``dispatches_job`` marks kernels whose submission creates a new GPU
    job (extra CPU-GPU communication, the source of the split penalty).
    """

    name: str
    arithmetic_instructions: int
    memory_instructions: int
    work_items: int
    workgroup: WorkgroupSize = field(default_factory=WorkgroupSize)
    vector_efficiency: float = 1.0
    memory_locality: float = 1.0
    dispatches_job: bool = True
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise KernelPlanError("kernel name must be non-empty")
        if self.arithmetic_instructions < 0 or self.memory_instructions < 0:
            raise KernelPlanError(f"negative instruction count in kernel {self.name!r}")
        if self.work_items < 1:
            raise KernelPlanError(f"kernel {self.name!r} must have at least one work item")
        if not 0.0 < self.vector_efficiency <= 1.0:
            raise KernelPlanError(
                f"vector_efficiency must be in (0, 1], got {self.vector_efficiency}"
            )
        if not 0.0 < self.memory_locality <= 1.0:
            raise KernelPlanError(
                f"memory_locality must be in (0, 1], got {self.memory_locality}"
            )

    @property
    def total_instructions(self) -> int:
        return self.arithmetic_instructions + self.memory_instructions


@dataclass(frozen=True)
class KernelPlan:
    """The ordered kernels a library dispatches for one layer inference."""

    library: str
    layer_name: str
    kernels: Tuple[Kernel, ...]
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.kernels:
            raise KernelPlanError(f"plan for {self.layer_name!r} has no kernels")

    def __iter__(self) -> Iterator[Kernel]:
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    # ------------------------------------------------------------------
    # Aggregates used by the analysis code and tests
    # ------------------------------------------------------------------
    @property
    def job_count(self) -> int:
        """Number of GPU jobs dispatched for this plan."""

        return sum(1 for kernel in self.kernels if kernel.dispatches_job)

    @property
    def total_arithmetic_instructions(self) -> int:
        return sum(kernel.arithmetic_instructions for kernel in self.kernels)

    @property
    def total_memory_instructions(self) -> int:
        return sum(kernel.memory_instructions for kernel in self.kernels)

    @property
    def total_instructions(self) -> int:
        return self.total_arithmetic_instructions + self.total_memory_instructions

    def kernels_named(self, name: str) -> List[Kernel]:
        """All kernels whose name matches (e.g. the two gemm_mm splits)."""

        return [kernel for kernel in self.kernels if kernel.name == name]

    def kernel_names(self) -> List[str]:
        return [kernel.name for kernel in self.kernels]

    def find(self, name: str) -> Optional[Kernel]:
        """First kernel with the given name, or ``None``."""

        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        return None
