"""Tests for device specifications and presets."""

import dataclasses

import pytest

from repro.gpusim import (
    HIKEY_970,
    JETSON_NANO,
    JETSON_TX2,
    ODROID_XU4,
    DeviceSpec,
    UnknownDeviceError,
    available_devices,
    DEVICES,
)


class TestPresets:
    def test_available_devices(self):
        assert available_devices() == ["hikey-970", "jetson-nano", "jetson-tx2", "odroid-xu4"]

    def test_aliases(self):
        assert DEVICES.get("tx2") is JETSON_TX2
        assert DEVICES.get("HiKey") is HIKEY_970
        assert DEVICES.get("mali-t628") is ODROID_XU4
        assert DEVICES.get("nano") is JETSON_NANO

    def test_unknown_device(self):
        with pytest.raises(UnknownDeviceError):
            DEVICES.get("xavier")

    def test_apis(self):
        assert HIKEY_970.api == "opencl"
        assert ODROID_XU4.api == "opencl"
        assert JETSON_TX2.api == "cuda"
        assert JETSON_NANO.api == "cuda"

    def test_mali_and_jetson_flags(self):
        assert HIKEY_970.is_mali and not HIKEY_970.is_jetson
        assert JETSON_TX2.is_jetson and not JETSON_TX2.is_mali

    def test_core_counts_match_hardware(self):
        assert HIKEY_970.compute_units == 12   # Mali G72 MP12
        assert ODROID_XU4.compute_units == 6   # Mali T628 MP6
        assert JETSON_TX2.compute_units == 2   # 2 Pascal SMs
        assert JETSON_NANO.compute_units == 1  # 1 Maxwell SM

    def test_tx2_is_faster_than_nano(self):
        assert (
            JETSON_TX2.peak_arith_instructions_per_second
            > JETSON_NANO.peak_arith_instructions_per_second
        )

    def test_g72_is_faster_than_t628(self):
        assert (
            HIKEY_970.peak_arith_instructions_per_second
            > ODROID_XU4.peak_arith_instructions_per_second
        )

    def test_mali_job_dispatch_overhead_is_milliseconds(self):
        # The paper's Section IV-B attributes a multi-millisecond penalty
        # to an extra dispatched job on the Mali boards.
        assert HIKEY_970.job_dispatch_overhead_s > 1e-3
        assert JETSON_TX2.job_dispatch_overhead_s < 1e-3


class TestDeviceSpecValidation:
    def test_full_utilization_work_items(self):
        assert (
            HIKEY_970.full_utilization_work_items
            == HIKEY_970.compute_units * HIKEY_970.threads_per_unit_for_full_utilization
        )

    def test_peak_throughputs_positive(self):
        for device in (HIKEY_970, ODROID_XU4, JETSON_TX2, JETSON_NANO):
            assert device.peak_arith_instructions_per_second > 0
            assert device.peak_memory_instructions_per_second > 0

    def test_invalid_api_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HIKEY_970, api="vulkan")

    def test_invalid_compute_units_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HIKEY_970, compute_units=0)

    def test_invalid_clock_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(HIKEY_970, clock_hz=0)

    def test_specs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            HIKEY_970.clock_hz = 1.0

    def test_replace_creates_variant(self):
        doubled = dataclasses.replace(HIKEY_970, compute_units=24)
        assert doubled.peak_arith_instructions_per_second == pytest.approx(
            2 * HIKEY_970.peak_arith_instructions_per_second
        )
