"""Embedded GPU simulator: devices, kernels, execution model and metrics.

Device presets live in the unified :data:`DEVICES` registry:
``DEVICES.get(name)``, or :class:`repro.api.Target`.
"""

from .device import (
    DEVICES,
    HIKEY_970,
    JETSON_NANO,
    JETSON_TX2,
    ODROID_XU4,
    DeviceSpec,
    UnknownDeviceError,
    available_devices,
)
from .batch import (
    BatchSimulationResult,
    KernelBatch,
    KernelColumn,
    KernelKind,
    simulate_batch,
)
from .kernel import Kernel, KernelPlan, KernelPlanError, WorkgroupSize
from .metrics import (
    KernelInstructionRow,
    RelativeSystemCounters,
    WorkgroupRow,
    format_instruction_table,
    format_workgroup_table,
    kernel_instruction_table,
    relative_system_counters,
)
from .simulator import (
    GpuSimulator,
    KernelExecution,
    SimulationResult,
    SystemCounters,
)

__all__ = [
    "BatchSimulationResult",
    "DEVICES",
    "HIKEY_970",
    "JETSON_NANO",
    "JETSON_TX2",
    "ODROID_XU4",
    "DeviceSpec",
    "GpuSimulator",
    "Kernel",
    "KernelBatch",
    "KernelColumn",
    "KernelExecution",
    "KernelInstructionRow",
    "KernelKind",
    "KernelPlan",
    "KernelPlanError",
    "RelativeSystemCounters",
    "SimulationResult",
    "SystemCounters",
    "UnknownDeviceError",
    "WorkgroupRow",
    "WorkgroupSize",
    "available_devices",
    "format_instruction_table",
    "format_workgroup_table",
    "kernel_instruction_table",
    "relative_system_counters",
    "simulate_batch",
]
