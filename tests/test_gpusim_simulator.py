"""Tests for the analytical GPU simulator and its metrics helpers."""

import dataclasses

import pytest

from repro.gpusim import (
    GpuSimulator,
    HIKEY_970,
    Kernel,
    KernelPlan,
    WorkgroupSize,
    format_instruction_table,
    format_workgroup_table,
    kernel_instruction_table,
    relative_system_counters,
)
from repro.gpusim.metrics import WorkgroupRow
from repro.gpusim.simulator import (
    CONTROL_REGISTER_READS_PER_JOB,
    CONTROL_REGISTER_WRITES_PER_JOB,
    INTERRUPTS_PER_JOB,
)


def plan_with(*kernels):
    return KernelPlan(library="test", layer_name="layer", kernels=tuple(kernels))


def big_kernel(name="big", arith=10_000_000, mem=100_000, work_items=100_000, **kw):
    return Kernel(
        name=name,
        arithmetic_instructions=arith,
        memory_instructions=mem,
        work_items=work_items,
        **kw,
    )


def execute(simulator, kernel):
    """The simulated execution of one kernel, as a plan of one."""

    return simulator.simulate(plan_with(kernel)).kernel_executions[0]


@pytest.fixture
def simulator():
    return GpuSimulator(HIKEY_970)


class TestUtilization:
    def test_full_utilization_at_threshold(self, simulator):
        kernel = big_kernel(work_items=HIKEY_970.full_utilization_work_items)
        assert execute(simulator, kernel).utilization == 1.0

    def test_partial_utilization_below_threshold(self, simulator):
        kernel = big_kernel(work_items=HIKEY_970.full_utilization_work_items // 4)
        assert execute(simulator, kernel).utilization == pytest.approx(0.25)

    def test_utilization_floor(self, simulator):
        kernel = big_kernel(work_items=1)
        assert execute(simulator, kernel).utilization >= 0.02

    def test_utilization_capped_at_one(self, simulator):
        kernel = big_kernel(work_items=10 * HIKEY_970.full_utilization_work_items)
        assert execute(simulator, kernel).utilization == 1.0


class TestKernelTiming:
    def test_compute_time_is_roofline_max(self, simulator):
        arith_bound = execute(simulator, big_kernel(arith=100_000_000, mem=1))
        assert arith_bound.compute_time_s == arith_bound.arithmetic_time_s
        mem_bound = execute(simulator, big_kernel(arith=1, mem=100_000_000))
        assert mem_bound.compute_time_s == mem_bound.memory_time_s

    def test_time_scales_inversely_with_vector_efficiency(self, simulator):
        fast = execute(simulator, big_kernel(vector_efficiency=1.0))
        slow = execute(simulator, big_kernel(vector_efficiency=0.5))
        assert slow.arithmetic_time_s == pytest.approx(2 * fast.arithmetic_time_s)

    def test_time_scales_inversely_with_memory_locality(self, simulator):
        fast = execute(simulator, big_kernel(memory_locality=1.0))
        slow = execute(simulator, big_kernel(memory_locality=0.25))
        assert slow.memory_time_s == pytest.approx(4 * fast.memory_time_s)

    def test_more_instructions_take_longer(self, simulator):
        small = execute(simulator, big_kernel(arith=1_000_000))
        large = execute(simulator, big_kernel(arith=2_000_000))
        assert large.arithmetic_time_s == pytest.approx(2 * small.arithmetic_time_s)

    def test_overhead_added_to_total(self, simulator):
        execution = execute(simulator, big_kernel())
        assert execution.total_time_s == pytest.approx(
            execution.compute_time_s + HIKEY_970.kernel_launch_overhead_s
        )

    def test_faster_device_runs_faster(self):
        fast_device = dataclasses.replace(HIKEY_970, clock_hz=2 * HIKEY_970.clock_hz)
        slow = execute(GpuSimulator(HIKEY_970), big_kernel())
        fast = execute(GpuSimulator(fast_device), big_kernel())
        assert fast.compute_time_s < slow.compute_time_s


class TestPlanSimulation:
    def test_total_includes_job_dispatch(self, simulator):
        result = simulator.simulate(plan_with(big_kernel(), big_kernel(name="second")))
        assert result.counters.jobs == 2
        assert result.total_time_s == pytest.approx(
            result.kernel_time_s + 2 * HIKEY_970.job_dispatch_overhead_s
        )

    def test_non_dispatching_kernels_add_no_job(self, simulator):
        result = simulator.simulate(
            plan_with(big_kernel(dispatches_job=False), big_kernel(name="second"))
        )
        assert result.counters.jobs == 1

    def test_counters_scale_with_jobs(self, simulator):
        result = simulator.simulate(plan_with(big_kernel(), big_kernel(name="b"), big_kernel(name="c")))
        counters = result.counters
        assert counters.control_register_reads == 3 * CONTROL_REGISTER_READS_PER_JOB
        assert counters.control_register_writes == 3 * CONTROL_REGISTER_WRITES_PER_JOB
        assert counters.interrupts == 3 * INTERRUPTS_PER_JOB

    def test_counters_as_dict(self, simulator):
        counters = simulator.simulate(plan_with(big_kernel())).counters
        assert set(counters.as_dict()) == {
            "jobs", "control_register_reads", "control_register_writes", "interrupts",
        }

    def test_run_time_ms_matches_total(self, simulator):
        plan = plan_with(big_kernel())
        assert simulator.run_time_ms(plan) == pytest.approx(
            simulator.simulate(plan).total_time_s * 1e3
        )

    def test_splitting_work_into_extra_job_is_slower(self, simulator):
        """The core mechanism behind the paper's parallel staircases."""

        single = plan_with(big_kernel(arith=100_000_000, work_items=100_000))
        split = plan_with(
            big_kernel(arith=90_000_000, work_items=90_000),
            big_kernel(name="remainder", arith=10_000_000, work_items=200),
        )
        assert simulator.run_time_ms(split) > simulator.run_time_ms(single)


class TestMetricsHelpers:
    def test_instruction_table_rows(self, simulator):
        plan = plan_with(big_kernel(name="a", arith=10, mem=5), big_kernel(name="b"))
        rows = kernel_instruction_table(plan)
        assert rows[0].kernel_name == "a"
        assert rows[0].arithmetic_instructions == 10
        assert rows[0].memory_instructions == 5

    def test_format_instruction_table_contains_names(self, simulator):
        text = format_instruction_table(plan_with(big_kernel(name="gemm_mm")), title="Title")
        assert "Title" in text
        assert "gemm_mm" in text

    def test_relative_counters_baseline_is_one(self, simulator):
        results = {
            "base": simulator.simulate(plan_with(big_kernel())),
            "split": simulator.simulate(plan_with(big_kernel(), big_kernel(name="b"))),
        }
        rows = {row.label: row for row in relative_system_counters(results, "base")}
        assert rows["base"].jobs == 1.0
        assert rows["base"].runtime == 1.0
        assert rows["split"].jobs == 2.0
        assert rows["split"].runtime > 1.0

    def test_relative_counters_unknown_baseline(self, simulator):
        with pytest.raises(KeyError):
            relative_system_counters({"a": simulator.simulate(plan_with(big_kernel()))}, "b")

    def test_format_workgroup_table(self):
        text = format_workgroup_table(
            [WorkgroupRow(channels=90, workgroup=(2, 1, 8), relative_instructions=1.0, time_ms=3.5)]
        )
        assert "90" in text and "2" in text and "3.5" in text
