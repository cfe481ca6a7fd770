"""The one-plan view of the embedded-GPU cost model.

:class:`GpuSimulator` costs one :class:`~repro.gpusim.kernel.KernelPlan`
as :func:`~repro.gpusim.batch.simulate_batch` over a batch of one (the
cost model itself lives in :mod:`repro.gpusim.batch`) and returns it as
Python objects: a :class:`KernelExecution` per kernel and the plan's
system-level counters — jobs, control-register reads/writes and
interrupts, which scale with the number of dispatched jobs (Figure 18).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .batch import KernelBatch, simulate_batch
from .device import DeviceSpec
from .kernel import Kernel, KernelPlan

#: Control-register traffic and interrupts generated per dispatched job.
#: The absolute values are arbitrary (the paper's Figure 18 reports
#: *relative* counters); the proportionality to job count is what matters.
CONTROL_REGISTER_READS_PER_JOB = 96
CONTROL_REGISTER_WRITES_PER_JOB = 64
INTERRUPTS_PER_JOB = 2


@dataclass(frozen=True)
class KernelExecution:
    """Simulated execution of one kernel."""

    kernel: Kernel
    arithmetic_time_s: float
    memory_time_s: float
    overhead_time_s: float
    utilization: float

    @property
    def compute_time_s(self) -> float:
        """Roofline time: the slower of the arithmetic and memory pipes."""

        return max(self.arithmetic_time_s, self.memory_time_s)

    @property
    def total_time_s(self) -> float:
        return self.compute_time_s + self.overhead_time_s


@dataclass(frozen=True)
class SystemCounters:
    """System-level counters reported by the simulator (Figure 18)."""

    jobs: int
    control_register_reads: int
    control_register_writes: int
    interrupts: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "jobs": self.jobs,
            "control_register_reads": self.control_register_reads,
            "control_register_writes": self.control_register_writes,
            "interrupts": self.interrupts,
        }


@dataclass(frozen=True)
class SimulationResult:
    """Full result of simulating one kernel plan on one device."""

    device: DeviceSpec
    plan: KernelPlan
    kernel_executions: List[KernelExecution] = field(default_factory=list)

    @property
    def kernel_time_s(self) -> float:
        """Time spent in kernels (compute + per-kernel launch overhead).

        Summed kernel by kernel, left to right.  The batch's
        ``reduceat(compute) + n * launch`` can differ in the last bit, and
        the experiments that read this total were recorded in this order.
        """

        return sum(execution.total_time_s for execution in self.kernel_executions)

    @property
    def job_dispatch_time_s(self) -> float:
        """Time spent creating and dispatching GPU jobs."""

        return self.counters.jobs * self.device.job_dispatch_overhead_s

    @property
    def total_time_s(self) -> float:
        return self.kernel_time_s + self.job_dispatch_time_s

    @property
    def total_time_ms(self) -> float:
        return self.total_time_s * 1e3

    @property
    def counters(self) -> SystemCounters:
        jobs = self.plan.job_count
        return SystemCounters(
            jobs=jobs,
            control_register_reads=jobs * CONTROL_REGISTER_READS_PER_JOB,
            control_register_writes=jobs * CONTROL_REGISTER_WRITES_PER_JOB,
            interrupts=jobs * INTERRUPTS_PER_JOB,
        )


class GpuSimulator:
    """Simulate kernel plans on an embedded GPU device, one batch of one per plan."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    def simulate(self, plan: KernelPlan) -> SimulationResult:
        """Simulate a full kernel plan."""

        batch = simulate_batch(KernelBatch.from_plans([plan]), self.device)
        launch = self.device.kernel_launch_overhead_s
        executions = [
            KernelExecution(
                kernel=kernel,
                arithmetic_time_s=arithmetic_time,
                memory_time_s=memory_time,
                overhead_time_s=launch,
                utilization=utilization,
            )
            for kernel, arithmetic_time, memory_time, utilization in zip(
                plan,
                batch.arithmetic_time_s.tolist(),
                batch.memory_time_s.tolist(),
                batch.utilization.tolist(),
            )
        ]
        return SimulationResult(device=self.device, plan=plan, kernel_executions=executions)

    def run_time_ms(self, plan: KernelPlan) -> float:
        """Convenience wrapper returning only the total time in ms."""

        return self.simulate(plan).total_time_ms
