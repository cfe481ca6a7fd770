"""Tests for the vectorized batch simulator against the scalar one."""

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
            for execution in result.kernel_executions:
                assert batch.arithmetic_time_s[flat] == execution.arithmetic_time_s
                assert batch.memory_time_s[flat] == execution.memory_time_s
                assert batch.utilization[flat] == execution.utilization
                flat += 1
        assert flat == len(batch.arithmetic_time_s)

    def test_per_plan_totals_match(self, layer16):
        device = DEVICES.get("hikey-970")
        plans = plans_for("acl-gemm", device, layer16, range(1, 129))
        batch = simulate_batch(KernelBatch.from_plans(plans), device)
        simulator = GpuSimulator(device)
        expected = [simulator.run_time_ms(plan) for plan in plans]
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
        assert batch.utilization[0] == GpuSimulator(device).utilization(tiny)
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
