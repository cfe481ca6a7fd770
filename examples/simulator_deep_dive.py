#!/usr/bin/env python
"""Reproduce the paper's GPU-simulator analysis of the ACL GEMM anomaly.

Section IV-B of the paper explains *why* 92 channels of ResNet-50 layer
16 run ~1.6x slower than 93 channels by replaying both configurations on
a Mali GPU simulator: the OpenCL runtime splits the GEMM into an extra
job whose dispatch overhead and poor utilisation outweigh the saved
arithmetic.  This example reproduces that analysis end-to-end: kernel
instruction tables (Tables I-IV), per-kernel simulated timings, and the
relative system-level counters of Figure 18.

Run with ``python examples/simulator_deep_dive.py``.
"""

from __future__ import annotations

from repro.api import Session, Target
from repro.gpusim import GpuSimulator, format_instruction_table
from repro.gpusim.metrics import relative_system_counters


def main() -> None:
    target = Target("hikey-970", "acl-gemm")
    session = Session()
    layer = session.network("resnet50").conv_layer(16).spec
    device = target.device_spec
    library = target.create_library()
    simulator = GpuSimulator(device)

    results = {}
    for channels in (92, 93, 96, 97):
        plan = library.plan_with_channels(layer, channels, device)
        result = simulator.simulate(plan)
        results[f"{channels} Channels"] = result

        print(format_instruction_table(plan, title=f"--- {channels} output channels ---"))
        print(f"  dispatched GPU jobs: {result.counters.jobs}")
        for execution in result.kernel_executions:
            print(f"  {execution.kernel.name:<22} compute {execution.compute_time_s * 1e3:7.2f} ms "
                  f"(utilisation {execution.utilization:.2f})")
        print(f"  job dispatch overhead: {result.job_dispatch_time_s * 1e3:6.2f} ms")
        print(f"  total:                 {result.total_time_ms:6.2f} ms\n")

    print("Relative system-level counters (baseline = 93 channels):")
    for row in relative_system_counters(results, "93 Channels"):
        print(f"  {row.label:>12}: jobs {row.jobs:.1f}x, ctrl-reg reads {row.control_register_reads:.1f}x, "
              f"writes {row.control_register_writes:.1f}x, IRQs {row.interrupts:.1f}x, "
              f"runtime {row.runtime:.2f}x")


if __name__ == "__main__":
    main()
