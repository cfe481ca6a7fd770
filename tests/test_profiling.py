"""Tests for events, profilers, the measurement runner and latency tables."""

from dataclasses import replace

import pytest

from repro.profiling import (
    CudaEventProfiler,
    KernelEvent,
    LatencyTable,
    LatencyTableError,
    Measurement,
    OpenCLProfiler,
    ProfileRunner,
    Sweep,
    build_latency_table,
    profile_runs,
    profiler_for_device,
    prune_distances,
)


class TestKernelEvent:
    def make_event(self, **overrides):
        defaults = dict(
            kernel_name="gemm_mm",
            queued_at_s=0.0,
            started_at_s=0.001,
            finished_at_s=0.005,
            work_items=100,
            workgroup=(4, 4, 1),
            memory_footprint_bytes=1024,
        )
        defaults.update(overrides)
        return KernelEvent(**defaults)

    def test_duration(self):
        assert self.make_event().duration_s == pytest.approx(0.004)

    def test_queue_delay(self):
        assert self.make_event().queue_delay_s == pytest.approx(0.001)

    def test_non_monotonic_timestamps_rejected(self):
        with pytest.raises(ValueError):
            self.make_event(finished_at_s=0.0005)


class TestProfilers:
    def test_opencl_profiler_requires_opencl_device(self, tx2):
        with pytest.raises(ValueError):
            OpenCLProfiler(tx2)

    def test_cuda_profiler_requires_cuda_device(self, hikey):
        with pytest.raises(ValueError):
            CudaEventProfiler(hikey)

    def test_profiler_for_device_dispatch(self, hikey, tx2):
        assert isinstance(profiler_for_device(hikey), OpenCLProfiler)
        assert isinstance(profiler_for_device(tx2), CudaEventProfiler)

    def test_events_cover_all_kernels(self, hikey, acl_gemm, layer16):
        plan = acl_gemm.plan_with_channels(layer16, 92, hikey)
        run = profile_runs(hikey, plan, runs=1)[0]
        assert run.kernel_names() == plan.kernel_names()

    def test_events_are_ordered_in_time(self, hikey, acl_gemm, layer16):
        plan = acl_gemm.plan(layer16, hikey)
        run = profile_runs(hikey, plan, runs=1)[0]
        finish_times = [event.finished_at_s for event in run.events]
        assert finish_times == sorted(finish_times)

    def test_job_dispatch_appears_as_queue_delay(self, hikey, acl_gemm, layer16):
        plan = acl_gemm.plan(layer16, hikey)
        run = profile_runs(hikey, plan, runs=1)[0]
        gemm_event = run.events_named("gemm_mm")[0]
        assert gemm_event.queue_delay_s > hikey.job_dispatch_overhead_s * 0.5

    def test_total_time_close_to_simulator(self, hikey, acl_gemm, layer16, hikey_simulator):
        plan = acl_gemm.plan_with_channels(layer16, 96, hikey)
        run = profile_runs(hikey, plan, runs=1)[0]
        simulated = hikey_simulator.run_time_ms(plan)
        assert run.total_time_ms == pytest.approx(simulated, rel=0.1)

    def test_noise_is_reproducible(self, hikey, acl_gemm, layer16):
        plan = acl_gemm.plan(layer16, hikey)
        first = profile_runs(hikey, plan, runs=3)
        second = profile_runs(hikey, plan, runs=3)
        assert [run.total_time_ms for run in first] == [run.total_time_ms for run in second]

    def test_noise_varies_between_runs(self, hikey, acl_gemm, layer16):
        plan = acl_gemm.plan(layer16, hikey)
        times = [run.total_time_ms for run in profile_runs(hikey, plan, runs=5)]
        assert len(set(times)) > 1

    def test_durations_by_kernel(self, hikey, acl_gemm, layer16):
        plan = acl_gemm.plan_with_channels(layer16, 92, hikey)
        run = profile_runs(hikey, plan, runs=1)[0]
        durations = run.durations_by_kernel()
        assert durations["gemm_mm"] > durations["im2col3x3_nhwc"]

    def test_invalid_run_count(self, hikey, acl_gemm, layer16):
        plan = acl_gemm.plan(layer16, hikey)
        with pytest.raises(ValueError):
            profile_runs(hikey, plan, runs=0)


class TestProfileRunner:
    def test_create_by_names(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        assert runner.device.name == "mali-g72"
        assert runner.library.name == "acl-gemm"

    def test_measurement_fields(self, gemm_runner, layer16):
        measurement = gemm_runner.measure(layer16, 96)
        assert measurement.out_channels == 96
        assert measurement.min_time_ms <= measurement.median_time_ms <= measurement.max_time_ms
        assert measurement.job_count == 1
        assert measurement.runs == 3

    def test_measurement_cached(self, gemm_runner, layer16):
        before = gemm_runner.cache_size()
        gemm_runner.measure(layer16, 50)
        after_first = gemm_runner.cache_size()
        gemm_runner.measure(layer16, 50)
        assert gemm_runner.cache_size() == after_first == before + 1

    def test_invalid_channels_rejected(self, gemm_runner, layer16):
        with pytest.raises(ValueError):
            gemm_runner.measure(layer16, 0)

    def test_measure_channels_order_preserved(self, gemm_runner, layer16):
        measurements = gemm_runner.measure_many(layer16, [8, 4, 12])
        assert [m.out_channels for m in measurements] == [8, 4, 12]

    def test_sweep_covers_range(self, gemm_runner, layer16):
        measurements = gemm_runner.sweep(layer16, min_channels=120, max_channels=128, step=4)
        assert [m.out_channels for m in measurements] == [120, 124, 128]

    def test_sweep_beyond_layer_rejected(self, gemm_runner, layer16):
        with pytest.raises(ValueError):
            gemm_runner.sweep(layer16, max_channels=200)

    def test_spread_is_small(self, gemm_runner, layer16):
        measurement = gemm_runner.measure(layer16, 96)
        assert measurement.spread < 1.2


def table_of(pairs):
    """A latency table of (channels, time) pairs, one measurement each."""

    return LatencyTable(Sweep.of(
        Measurement("l", channels, "d", "lib", time, time, time, 1, 1)
        for channels, time in pairs
    ))


class TestLatencyTable:
    def test_add_and_query(self):
        table = table_of([(10, 5.0), (20, 8.0)])
        assert table.time_ms(10) == 5.0
        assert 10 in table and 15 not in table
        assert table.channel_counts == [10, 20]
        assert table.max_channels == 20

    def test_speedup_relative_to_max(self):
        table = table_of([(10, 5.0), (20, 10.0)])
        assert table.speedup(10) == pytest.approx(2.0)

    def test_best_channels_within_budget(self):
        table = table_of(((10, 5.0), (20, 9.0), (30, 14.0)))
        assert table.best_channels_within(10.0) == 20
        assert table.best_channels_within(4.0) is None

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            table_of([(0, 1.0)])
        with pytest.raises(ValueError):
            table_of([(1, 0.0)])

    def test_missing_channel_raises(self):
        table = table_of([(10, 5.0)])
        with pytest.raises(KeyError):
            table.time_ms(11)

    def test_empty_table_raises_named_error(self):
        table = LatencyTable(replace(Sweep.of([]), layer_name="conv3_2"))
        with pytest.raises(LatencyTableError, match="conv3_2"):
            table.max_channels
        with pytest.raises(LatencyTableError, match="conv3_2"):
            table.channel_counts

    def test_build_with_empty_sweep_rejected(self, gemm_runner, layer16):
        with pytest.raises(LatencyTableError, match="empty channel sweep"):
            build_latency_table(gemm_runner, layer16, channel_counts=[])

    def test_build_latency_table(self, gemm_runner, layer16):
        table = build_latency_table(gemm_runner, layer16, channel_counts=[64, 96, 128])
        assert len(table) == 3
        assert table.device_name == "mali-g72"
        counts, times = table.as_series()
        assert counts == [64, 96, 128]
        assert all(time > 0 for time in times)

    def test_prune_distances_clamped(self):
        assert prune_distances(64, [1, 63, 127]) == [63, 1, 1]

    def test_prune_distances_negative_rejected(self):
        with pytest.raises(ValueError):
            prune_distances(64, [-1])
