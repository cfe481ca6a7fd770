"""Tests for the vectorized cost model against a plain-Python reference."""

import numpy as np
import pytest

from repro.gpusim import DEVICES, GpuSimulator, KernelBatch, simulate_batch
from repro.gpusim.kernel import Kernel, KernelPlan, WorkgroupSize
from repro.libraries import LIBRARIES
from repro.models import MODELS


@pytest.fixture(scope="module")
def layer16():
    return MODELS.create("resnet50").conv_layer(16).spec


def plans_for(library_name, device, spec, counts):
    library = LIBRARIES.create(library_name)
    return [library.plan_with_channels(spec, count, device) for count in counts]


def reference_execution(kernel, device):
    """``(arithmetic_time_s, memory_time_s, utilization)`` of one kernel.

    The cost model written out kernel by kernel in plain Python, kept
    here as an independent check on ``simulate_batch``.
    """

    floor = max(0.02, 1.0 / device.compute_units)
    utilization = max(floor, min(1.0, kernel.work_items / device.full_utilization_work_items))
    arith_throughput = (
        device.peak_arith_instructions_per_second * kernel.vector_efficiency * utilization
    )
    memory_throughput = (
        device.peak_memory_instructions_per_second * kernel.memory_locality * utilization
    )
    return (
        kernel.arithmetic_instructions / arith_throughput,
        kernel.memory_instructions / memory_throughput,
        utilization,
    )


def reference_run_time_ms(plan, device):
    """A plan's total in the dispatch order: kernel by kernel, then jobs."""

    kernel_time = sum(
        max(arithmetic, memory) + device.kernel_launch_overhead_s
        for arithmetic, memory, _ in (reference_execution(k, device) for k in plan)
    )
    return (kernel_time + plan.job_count * device.job_dispatch_overhead_s) * 1e3


class TestAgainstScalarSimulator:
    @pytest.mark.parametrize(
        "device_name,library_name",
        [
            ("hikey-970", "acl-gemm"),
            ("hikey-970", "acl-direct"),
            ("hikey-970", "tvm"),
            ("jetson-tx2", "cudnn"),
        ],
    )
    def test_per_kernel_times_match_exactly(self, device_name, library_name, layer16):
        device = DEVICES.get(device_name)
        plans = plans_for(library_name, device, layer16, [1, 64, 92, 96, 97, 128])
        batch = simulate_batch(KernelBatch.from_plans(plans), device)
        simulator = GpuSimulator(device)
        flat = 0
        for plan in plans:
            result = simulator.simulate(plan)
            for kernel, execution in zip(plan, result.kernel_executions):
                arithmetic, memory, utilization = reference_execution(kernel, device)
                assert batch.arithmetic_time_s[flat] == arithmetic == execution.arithmetic_time_s
                assert batch.memory_time_s[flat] == memory == execution.memory_time_s
                assert batch.utilization[flat] == utilization == execution.utilization
                flat += 1
        assert flat == len(batch.arithmetic_time_s)

    def test_per_plan_totals_match(self, layer16):
        device = DEVICES.get("hikey-970")
        plans = plans_for("acl-gemm", device, layer16, range(1, 129))
        batch = simulate_batch(KernelBatch.from_plans(plans), device)
        expected = [reference_run_time_ms(plan, device) for plan in plans]
        assert batch.total_time_ms == pytest.approx(expected, rel=1e-12)

    def test_job_counts_and_offsets(self, layer16):
        device = DEVICES.get("hikey-970")
        plans = plans_for("acl-gemm", device, layer16, [92, 96])
        batch = simulate_batch(KernelBatch.from_plans(plans), device)
        assert list(batch.job_counts) == [plans[0].job_count, plans[1].job_count]
        assert list(batch.kernel_counts) == [len(plans[0]), len(plans[1])]
        assert batch.offsets[-1] == len(plans[0]) + len(plans[1])
        assert len(batch) == 2

    def test_mixed_layers_in_one_batch(self):
        device = DEVICES.get("jetson-tx2")
        network = MODELS.create("resnet50")
        library = LIBRARIES.create("cudnn")
        plans = [
            library.plan_with_channels(network.conv_layer(index).spec, 32, device)
            for index in (14, 16, 26)
        ]
        batch = simulate_batch(KernelBatch.from_plans(plans), device)
        simulator = GpuSimulator(device)
        expected = [simulator.run_time_ms(plan) for plan in plans]
        assert batch.total_time_ms == pytest.approx(expected, rel=1e-12)


class TestDispatchOrderTotal:
    """``GpuSimulator`` totals keep the per-kernel summation order.

    ``SimulationResult`` sums ``compute + launch`` kernel by kernel; the
    batch sums ``reduceat(compute) + n * launch``.  The two differ in the
    last bit on some configurations (ACL-GEMM L16 at 92, 93 and 97
    channels).  Routing ``SimulationResult`` through the batch totals
    changes the recorded ``fig18`` and ``ablation_dispatch_overhead``
    experiment digests.  The counts below are the ``fig18`` and
    ``table5`` configurations.
    """

    @pytest.mark.parametrize(
        "library_name,counts",
        [("acl-gemm", [92, 93, 96, 97]), ("acl-direct", [90, 91, 92, 93])],
    )
    def test_run_time_ms_is_the_dispatch_order_sum(self, library_name, counts, layer16):
        device = DEVICES.get("hikey-970")
        simulator = GpuSimulator(device)
        for plan in plans_for(library_name, device, layer16, counts):
            assert simulator.run_time_ms(plan) == reference_run_time_ms(plan, device)


class TestEdgeCases:
    def test_empty_batch(self):
        device = DEVICES.get("hikey-970")
        batch = simulate_batch(KernelBatch.from_plans([]), device)
        assert len(batch) == 0
        assert batch.total_time_ms.shape == (0,)
        assert batch.kernel_time_s.shape == (0,)

    def test_utilization_floor(self):
        device = DEVICES.get("hikey-970")
        tiny = Kernel(
            name="tiny",
            arithmetic_instructions=10,
            memory_instructions=10,
            work_items=1,
            workgroup=WorkgroupSize(1, 1, 1),
        )
        plan = KernelPlan(library="test", layer_name="tiny", kernels=(tiny,))
        batch = simulate_batch(KernelBatch.from_plans([plan]), device)
        assert batch.utilization[0] == max(0.02, 1.0 / device.compute_units)
        assert batch.utilization[0] >= 1.0 / device.compute_units

    def test_utilization_capped_at_one(self):
        device = DEVICES.get("hikey-970")
        huge = Kernel(
            name="huge",
            arithmetic_instructions=10,
            memory_instructions=10,
            work_items=10**9,
        )
        plan = KernelPlan(library="test", layer_name="huge", kernels=(huge,))
        batch = simulate_batch(KernelBatch.from_plans([plan]), device)
        assert batch.utilization[0] == 1.0

    def test_compute_time_is_roofline_max(self, layer16):
        device = DEVICES.get("hikey-970")
        plans = plans_for("acl-gemm", device, layer16, [96])
        batch = simulate_batch(KernelBatch.from_plans(plans), device)
        assert np.all(
            batch.compute_time_s
            == np.maximum(batch.arithmetic_time_s, batch.memory_time_s)
        )
