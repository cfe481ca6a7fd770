"""Tests for the measurement runner and latency tables."""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import Target
from repro.gpusim import GpuSimulator, simulate_batch
from repro.models import MODELS, ConvLayerSpec
from repro.profiling import (
    LatencyTable,
    LatencyTableError,
    Measurement,
    ProfileRunner,
    Sweep,
    build_latency_table,
    prune_distances,
    sweep_counts,
)
from repro.profiling import runner as runner_module
from repro.profiling.noise import noise_matrix, noise_prefix


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

    @pytest.mark.parametrize("change", [{"groups": 4}, {"bias": False}], ids=str)
    def test_the_memo_keys_on_every_field_but_out_channels(self, change):
        """Regression: the memo key left out ``groups`` and ``bias``, so a
        grouped layer was served its dense twin's times (1.25 vs 0.74 ms)."""

        spec = ConvLayerSpec("test.runner.key", 64, 64, 3, 1, 1, 14)
        variant = replace(spec, **change)
        runner = ProfileRunner.create("jetson-tx2", "cudnn")
        runner.measure(spec)
        fresh = ProfileRunner.create("jetson-tx2", "cudnn")
        assert runner.measure(variant) == fresh.measure(variant)
        assert runner.simulations == 2

    def test_the_memo_serves_a_wider_spec_at_a_narrower_count(self, gemm_runner):
        wide = ConvLayerSpec("test.runner.width", 16, 64, 3, 1, 1, 14)
        narrow = replace(wide, out_channels=32)
        measured = gemm_runner.measure(wide, 32)
        simulated = gemm_runner.simulations
        assert gemm_runner.measure(narrow) == measured
        assert gemm_runner.simulations == simulated

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

    def test_noise_varies_between_runs(self, gemm_runner, layer16):
        measurement = gemm_runner.measure(layer16, 96)
        assert measurement.min_time_ms < measurement.max_time_ms

    @pytest.mark.parametrize("device, library", [
        ("hikey-970", "acl-gemm"),
        ("hikey-970", "acl-direct"),
        ("hikey-970", "tvm"),
        ("jetson-tx2", "cudnn"),
    ])
    def test_medians_match_simulate_times_noise(self, device, library, layer16):
        """Batched medians equal one ``simulate`` per run scaled by its noise."""

        runner = ProfileRunner.for_target(Target(device, library))
        counts = sweep_counts(layer16.out_channels)
        sweep = runner.measure_many(layer16, counts)
        simulator = GpuSimulator(runner.device)
        prefix = noise_prefix(runner.device, runner.library.name, layer16.name)
        for channels, median in zip(sweep.counts.tolist(), sweep.median.tolist()):
            plan = runner.library.plan_with_channels(layer16, channels, runner.device)
            noise = noise_matrix([prefix + plan.notes], runner.runs)[0]
            expected = np.median(simulator.simulate(plan).total_time_ms * noise)
            assert median == pytest.approx(expected, rel=1e-9, abs=0)


#: The four targets of the 12-step plan.
PLAN_TARGETS = [
    ("hikey-970", "acl-gemm"),
    ("hikey-970", "acl-direct"),
    ("hikey-970", "tvm"),
    ("jetson-tx2", "cudnn"),
]

#: Every conv layer of every zoo model.
ZOO_LAYERS = [
    MODELS.create(model).conv_layer(index).spec
    for model in MODELS.available()
    for index in MODELS.create(model).conv_layer_indices
]


class TestNoiseTable:
    @pytest.mark.parametrize("device, library", PLAN_TARGETS)
    def test_runner_noise_equals_the_list_form(self, device, library):
        """One seed per distinct note gives the per-configuration noise bitwise."""

        runner = ProfileRunner.for_target(Target(device, library))
        for layer in ZOO_LAYERS:
            counts = np.arange(1, layer.out_channels + 1)
            batch = runner.library.plan_counts(layer, counts, runner.device)
            prefix = noise_prefix(runner.device, runner.library.name, layer.name)
            expected = noise_matrix([prefix + note for note in batch.notes], runner.runs)
            table = noise_matrix(
                [prefix + note for note in batch.note_table], runner.runs,
                index=batch.note_index,
            )
            assert table.tobytes() == expected.tobytes(), layer.name
            times = simulate_batch(batch, runner.device).total_time_ms[:, np.newaxis] * expected
            sweep = runner.measure_many(layer, counts)
            for got, want in ((sweep.median, np.median(times, axis=1)),
                              (sweep.minimum, times.min(axis=1)),
                              (sweep.maximum, times.max(axis=1))):
                assert got.tobytes() == want.tobytes(), layer.name

    def test_runner_draws_one_noise_row_per_simulated_configuration(
        self, monkeypatch, layer16
    ):
        # The benchmark's tracer counts simulations as the rows of the
        # module-global noise_matrix the runner calls.
        rows = []

        def counting(*args, **kwargs):
            noise = noise_matrix(*args, **kwargs)
            rows.append(noise.shape[0])
            return noise

        monkeypatch.setattr(runner_module, "noise_matrix", counting)
        runner = ProfileRunner.for_target(Target("hikey-970", "acl-direct"))
        runner.measure_many(layer16, range(1, layer16.out_channels + 1))
        runner.measure_many(layer16, [7, 300])
        assert rows == [layer16.out_channels, 1] and runner.simulations == sum(rows)

    def test_empty_materials_give_no_rows(self):
        assert noise_matrix([], 3).shape == (0, 3)
        assert noise_matrix([], 3, index=np.zeros(0, dtype=np.intp)).shape == (0, 3)


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
