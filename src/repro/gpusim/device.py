"""Embedded GPU device specifications.

The paper evaluates on four devices; the table below summarises the
parameters our analytical simulator uses for each.  Values are derived
from public datasheets (core counts, clocks, memory bandwidth) while the
job-dispatch and kernel-launch overheads are calibrated so that the
paper's headline observations hold (Section IV-B attributes the ACL GEMM
split penalty to job creation/dispatch overhead that "often outweighs
the benefits of dispatching workloads to accelerators").

===============  ============  ===========  ============  ==========
Board            GPU           Cores        Clock         API
===============  ============  ===========  ============  ==========
HiKey 970        Mali G72 MP12 12           767 MHz       OpenCL
Odroid XU4       Mali T628 MP6 6            600 MHz       OpenCL
Jetson TX2       Pascal        256 (2 SMs)  1300 MHz      CUDA
Jetson Nano      Maxwell       128 (1 SM)   921 MHz       CUDA
===============  ============  ===========  ============  ==========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..api.registry import Registry, UnknownPluginError


class UnknownDeviceError(UnknownPluginError):
    """Raised when a device name is not recognised."""


@dataclass(frozen=True)
class DeviceSpec:
    """Parameters of the analytical embedded-GPU performance model."""

    name: str
    board: str
    api: str
    compute_units: int
    alu_lanes_per_unit: int
    clock_hz: float
    memory_ops_per_cycle: float
    job_dispatch_overhead_s: float
    kernel_launch_overhead_s: float
    threads_per_unit_for_full_utilization: int

    def __post_init__(self) -> None:
        if self.api not in ("opencl", "cuda"):
            raise ValueError(f"api must be 'opencl' or 'cuda', got {self.api!r}")
        if self.compute_units < 1 or self.alu_lanes_per_unit < 1:
            raise ValueError(f"device {self.name!r} must have positive compute resources")
        if self.clock_hz <= 0:
            raise ValueError(f"device {self.name!r} must have a positive clock")

    @property
    def peak_arith_instructions_per_second(self) -> float:
        """Peak scalar-instruction throughput of the whole GPU."""

        return self.compute_units * self.alu_lanes_per_unit * self.clock_hz

    @property
    def peak_memory_instructions_per_second(self) -> float:
        return self.memory_ops_per_cycle * self.clock_hz

    @property
    def full_utilization_work_items(self) -> int:
        """Work items needed to keep every compute unit busy."""

        return self.compute_units * self.threads_per_unit_for_full_utilization

    @property
    def is_mali(self) -> bool:
        return "mali" in self.name.lower()

    @property
    def is_jetson(self) -> bool:
        return "jetson" in self.board.lower()


# ---------------------------------------------------------------------------
# Device presets
# ---------------------------------------------------------------------------
#
# Arithmetic throughput is expressed in *executed simulator instructions*
# per cycle, matching the instruction counts produced by the library
# planners (which are calibrated against the paper's Tables I-IV), not in
# peak FLOPs.  Job-dispatch overheads on the Mali boards are large
# (milliseconds): the paper's Section IV-B shows a single extra GEMM job
# roughly doubling the runtime of a 14 ms layer.

HIKEY_970 = DeviceSpec(
    name="mali-g72",
    board="HiKey 970",
    api="opencl",
    compute_units=12,
    alu_lanes_per_unit=8,
    clock_hz=767e6,
    memory_ops_per_cycle=16.0,
    job_dispatch_overhead_s=3.2e-3,
    kernel_launch_overhead_s=0.12e-3,
    threads_per_unit_for_full_utilization=128,
)

ODROID_XU4 = DeviceSpec(
    name="mali-t628",
    board="Odroid XU4",
    api="opencl",
    compute_units=6,
    alu_lanes_per_unit=4,
    clock_hz=600e6,
    memory_ops_per_cycle=8.0,
    job_dispatch_overhead_s=4.5e-3,
    kernel_launch_overhead_s=0.2e-3,
    threads_per_unit_for_full_utilization=128,
)

JETSON_TX2 = DeviceSpec(
    name="jetson-tx2",
    board="Jetson TX2",
    api="cuda",
    compute_units=2,
    alu_lanes_per_unit=128,
    clock_hz=1300e6,
    memory_ops_per_cycle=48.0,
    job_dispatch_overhead_s=0.05e-3,
    kernel_launch_overhead_s=0.02e-3,
    threads_per_unit_for_full_utilization=2048,
)

JETSON_NANO = DeviceSpec(
    name="jetson-nano",
    board="Jetson Nano",
    api="cuda",
    compute_units=1,
    alu_lanes_per_unit=128,
    clock_hz=921e6,
    memory_ops_per_cycle=24.0,
    job_dispatch_overhead_s=0.06e-3,
    kernel_launch_overhead_s=0.025e-3,
    threads_per_unit_for_full_utilization=2048,
)

#: The unified device registry (see :mod:`repro.api.registry`).
DEVICES: Registry[DeviceSpec] = Registry("device", error_cls=UnknownDeviceError)

DEVICES.register("hikey-970", HIKEY_970, aliases=("hikey", "hikey970", "mali-g72", "g72"))
DEVICES.register("odroid-xu4", ODROID_XU4, aliases=("odroid", "xu4", "mali-t628", "t628"))
DEVICES.register("jetson-tx2", JETSON_TX2, aliases=("tx2", "jetson"))
DEVICES.register("jetson-nano", JETSON_NANO, aliases=("nano",))


def available_devices() -> List[str]:
    """Names of the supported device presets, sorted."""

    return DEVICES.available()

