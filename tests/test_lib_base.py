"""Tests for the library registry and shared interface."""

import pytest

from repro.libraries import (
    AclDirectLibrary,
    AclGemmLibrary,
    ConvolutionLibrary,
    CudnnLibrary,
    TvmLibrary,
    UnknownLibraryError,
    available_libraries,
    LIBRARIES,
)


class TestRegistry:
    def test_all_four_libraries_registered(self):
        assert available_libraries() == ["acl-direct", "acl-gemm", "cudnn", "tvm"]

    def test_get_library_by_name(self):
        assert isinstance(LIBRARIES.create("acl-gemm"), AclGemmLibrary)
        assert isinstance(LIBRARIES.create("acl-direct"), AclDirectLibrary)
        assert isinstance(LIBRARIES.create("cudnn"), CudnnLibrary)
        assert isinstance(LIBRARIES.create("tvm"), TvmLibrary)

    def test_aliases(self):
        assert isinstance(LIBRARIES.create("ACL"), AclGemmLibrary)
        assert isinstance(LIBRARIES.create("cudnn7"), CudnnLibrary)
        assert isinstance(LIBRARIES.create("tvm-opencl"), TvmLibrary)

    def test_unknown_library(self):
        with pytest.raises(UnknownLibraryError):
            LIBRARIES.create("tensorrt")

    def test_each_call_returns_fresh_instance(self):
        assert LIBRARIES.create("tvm") is not LIBRARIES.create("tvm")

    def test_versions_match_paper(self):
        assert LIBRARIES.create("acl-gemm").version == "v19.02"
        assert LIBRARIES.create("acl-direct").version == "v19.02"
        assert LIBRARIES.create("cudnn").version == "v7"
        assert LIBRARIES.create("tvm").version == "0.6"

    def test_apis(self):
        assert LIBRARIES.create("acl-gemm").api == "opencl"
        assert LIBRARIES.create("tvm").api == "opencl"
        assert LIBRARIES.create("cudnn").api == "cuda"


class TestInterface:
    def test_plan_with_channels_prunes_before_planning(self, acl_gemm, layer16, hikey):
        plan = acl_gemm.plan_with_channels(layer16, 64, hikey)
        assert "main_columns=64" in plan.notes

    def test_check_device_enforced_by_all_libraries(self, layer16, hikey, tx2):
        from repro.libraries import LibraryError

        for name in available_libraries():
            library = LIBRARIES.create(name)
            wrong_device = tx2 if library.api == "opencl" else hikey
            with pytest.raises(LibraryError):
                library.plan(layer16, wrong_device)

    def test_plans_carry_library_and_layer_names(self, layer16, hikey, tx2):
        for name in available_libraries():
            library = LIBRARIES.create(name)
            device = hikey if library.api == "opencl" else tx2
            plan = library.plan(layer16, device)
            assert plan.library == name
            assert plan.layer_name == layer16.name

    def test_all_plans_have_positive_work(self, layer16, hikey, tx2):
        for name in available_libraries():
            library = LIBRARIES.create(name)
            device = hikey if library.api == "opencl" else tx2
            plan = library.plan(layer16, device)
            assert plan.total_arithmetic_instructions > 0
            assert plan.job_count >= 1

    def test_register_requires_name(self):
        from repro.libraries.base import register_library

        class Nameless(ConvolutionLibrary):
            name = ""
            api = "opencl"

            def plan(self, layer, device):  # pragma: no cover - never called
                raise NotImplementedError

        with pytest.raises(ValueError):
            register_library(Nameless)
