"""Tests for kernels, kernel plans and workgroup sizes."""

import pytest

from repro.gpusim import Kernel, KernelPlan, KernelPlanError, WorkgroupSize


def make_kernel(**overrides):
    defaults = dict(
        name="k",
        arithmetic_instructions=1000,
        memory_instructions=100,
        work_items=256,
    )
    defaults.update(overrides)
    return Kernel(**defaults)


class TestWorkgroupSize:
    def test_threads(self):
        assert WorkgroupSize(2, 1, 8).threads == 16
        assert WorkgroupSize(4, 1, 1).threads == 4

    def test_as_tuple(self):
        assert WorkgroupSize(1, 2, 3).as_tuple() == (1, 2, 3)

    def test_default_is_single_thread(self):
        assert WorkgroupSize().threads == 1

    def test_rejects_zero_dimension(self):
        with pytest.raises(KernelPlanError):
            WorkgroupSize(0, 1, 1)

    def test_str_format(self):
        assert str(WorkgroupSize(2, 1, 8)) == "2x1x8"


class TestKernel:
    def test_total_instructions(self):
        assert make_kernel().total_instructions == 1100

    def test_rejects_empty_name(self):
        with pytest.raises(KernelPlanError):
            make_kernel(name="")

    def test_rejects_negative_instructions(self):
        with pytest.raises(KernelPlanError):
            make_kernel(arithmetic_instructions=-1)

    def test_rejects_zero_work_items(self):
        with pytest.raises(KernelPlanError):
            make_kernel(work_items=0)

    def test_rejects_bad_vector_efficiency(self):
        with pytest.raises(KernelPlanError):
            make_kernel(vector_efficiency=0.0)
        with pytest.raises(KernelPlanError):
            make_kernel(vector_efficiency=1.5)

    def test_rejects_bad_memory_locality(self):
        with pytest.raises(KernelPlanError):
            make_kernel(memory_locality=0.0)

    def test_defaults_dispatch_a_job(self):
        assert make_kernel().dispatches_job is True


class TestKernelPlan:
    def make_plan(self):
        return KernelPlan(
            library="acl-gemm",
            layer_name="layer",
            kernels=(
                make_kernel(name="im2col", dispatches_job=False, tag="im2col"),
                make_kernel(name="gemm_mm", arithmetic_instructions=5000, tag="gemm-main"),
                make_kernel(name="gemm_mm", arithmetic_instructions=500, tag="gemm-remainder"),
            ),
        )

    def test_length_and_iteration(self):
        plan = self.make_plan()
        assert len(plan) == 3
        assert [kernel.name for kernel in plan] == ["im2col", "gemm_mm", "gemm_mm"]

    def test_job_count_only_counts_dispatching_kernels(self):
        assert self.make_plan().job_count == 2

    def test_total_instruction_aggregates(self):
        plan = self.make_plan()
        assert plan.total_arithmetic_instructions == 1000 + 5000 + 500
        assert plan.total_memory_instructions == 300
        assert plan.total_instructions == 6800

    def test_kernels_named(self):
        assert len(self.make_plan().kernels_named("gemm_mm")) == 2

    def test_find_returns_first_match(self):
        plan = self.make_plan()
        assert plan.find("gemm_mm").arithmetic_instructions == 5000
        assert plan.find("missing") is None

    def test_kernel_names(self):
        assert self.make_plan().kernel_names() == ["im2col", "gemm_mm", "gemm_mm"]

    def test_empty_plan_rejected(self):
        with pytest.raises(KernelPlanError):
            KernelPlan(library="x", layer_name="y", kernels=())
