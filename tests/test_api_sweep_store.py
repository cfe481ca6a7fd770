"""Tests for batched sweeps, Session.sweep and the session-level store."""

import pytest

from repro.api import Session, Target
from repro.models import ConvLayerSpec
from repro.profiling import ProfileRunner

TARGET = Target("hikey-970", "acl-gemm")

LAYER = ConvLayerSpec(
    name="test.sweep.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)
OTHER_LAYER = ConvLayerSpec(
    name="test.sweep.conv1x1", in_channels=16, out_channels=24,
    kernel_size=1, stride=1, padding=0, input_hw=14,
)


class TestMeasureMany:
    def test_matches_single_measurements(self):
        batched = ProfileRunner.create("hikey-970", "acl-gemm", runs=5)
        scalar = ProfileRunner.create("hikey-970", "acl-gemm", runs=5)
        many = batched.measure_many(LAYER, range(1, 25))
        singles = [scalar.measure(LAYER, count) for count in range(1, 25)]
        assert list(many) == singles

    def test_preserves_order_and_duplicates(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        measurements = runner.measure_many(LAYER, [8, 4, 8, 12])
        assert [m.out_channels for m in measurements] == [8, 4, 8, 12]
        assert measurements[0] == measurements[2]
        assert runner.simulations == 3

    def test_cached_counts_are_not_resimulated(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        runner.measure_many(LAYER, [4, 8])
        runner.measure_many(LAYER, [4, 8, 12])
        assert runner.simulations == 3

    def test_invalid_count_rejected(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        with pytest.raises(ValueError):
            runner.measure_many(LAYER, [4, 0])

    def test_measurement_cache_is_bounded(self):
        runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        runner.max_cache_entries = 4
        measurements = runner.measure_many(LAYER, range(1, 25))
        assert [m.out_channels for m in measurements] == list(range(1, 25))
        # Whole sweeps are evicted: a 24-count sweep does not fit in 4.
        assert runner.cache_size() == 0
        runner.measure_many(LAYER, range(1, 5))
        assert runner.cache_size() == 4


class TestSessionStore:
    def test_store_accepts_a_path(self, tmp_path):
        session = Session(store=tmp_path / "profiles.jsonl")
        session.profile_layer(TARGET, LAYER)
        assert session.store is not None
        assert (tmp_path / "profiles.jsonl").exists()

    def test_second_session_replays_from_store(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        warm = Session(store=path)
        warm.profile_layer(TARGET, LAYER)
        assert warm.simulation_count() == LAYER.out_channels

        cold = Session(store=path)
        profile = cold.profile_layer(TARGET, LAYER)
        assert cold.simulation_count() == 0
        assert profile.table.as_series() == warm.profile_layer(TARGET, LAYER).table.as_series()

    def test_set_store_rewires_existing_runners(self, tmp_path):
        session = Session()
        runner = session.runner(TARGET)
        session.set_store(tmp_path / "profiles.jsonl")
        assert runner.store is session.store
        session.set_store(None)
        assert runner.store is None

    def test_store_is_shared_across_targets(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        session = Session(store=path)
        session.profile_layer(TARGET, LAYER, sweep_step=4)
        session.profile_layer(Target("jetson-tx2", "cudnn"), LAYER, sweep_step=4)
        cold = Session(store=path)
        cold.profile_layer(TARGET, LAYER, sweep_step=4)
        cold.profile_layer(Target("jetson-tx2", "cudnn"), LAYER, sweep_step=4)
        assert cold.simulation_count() == 0


class TestSessionSweep:
    TARGETS = (Target("hikey-970", "acl-gemm"), Target("jetson-tx2", "cudnn"))

    def test_rows_cover_every_target_and_count(self):
        session = Session()
        table = session.sweep(self.TARGETS, LAYER, sweep_step=4)
        assert table.targets == self.TARGETS
        assert table.layer_names == (LAYER.name,)
        counts = sorted(set(range(1, LAYER.out_channels + 1, 4)) | {LAYER.out_channels})
        assert len(table) == 2 * len(counts)
        for target in self.TARGETS:
            rows = table.for_target(target)
            assert [row["out_channels"] for row in rows] == counts
            assert all(row["median_time_ms"] > 0 for row in rows)

    def test_single_target_and_layer_coercion(self):
        table = Session().sweep(("hikey-970", "acl-gemm"), LAYER, sweep_step=8)
        assert [target.label for target in table.targets] == ["acl-gemm@hikey-970"]

    def test_label_strings_are_separate_targets(self):
        table = Session().sweep(
            ["acl-gemm@hikey-970", "cudnn@jetson-tx2"], LAYER, sweep_step=8
        )
        assert len(table.targets) == 2

    def test_series_and_profile_access(self):
        session = Session()
        table = session.sweep(self.TARGETS, [LAYER, OTHER_LAYER], sweep_step=8)
        counts, times = table.series(self.TARGETS[0], LAYER.name)
        assert counts[-1] == LAYER.out_channels
        assert len(counts) == len(times)
        assert table.profile(self.TARGETS[1], OTHER_LAYER.name).spec == OTHER_LAYER

    def test_a_repeated_sweep_simulates_nothing(self):
        session = Session()
        first = session.sweep(self.TARGETS, LAYER, sweep_step=4)
        simulated = session.simulation_count()
        second = session.sweep(self.TARGETS, LAYER, sweep_step=4)
        assert session.simulation_count() == simulated == 2 * 7
        assert second.rows == first.rows

    def test_baseline_times_and_format(self):
        table = Session().sweep(self.TARGETS, [LAYER, OTHER_LAYER], sweep_step=8)
        text = table.format()
        assert LAYER.name in text and "acl-gemm@hikey-970" in text
        for target in self.TARGETS:
            baseline = table.profile(target, LAYER.name).original_time_ms
            assert f"{baseline:.3f}" in text

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            Session().sweep([], LAYER)
        with pytest.raises(ValueError):
            Session().sweep(self.TARGETS, [])

    def test_conflicting_specs_with_one_name_rejected(self):
        impostor = ConvLayerSpec(
            name=LAYER.name, in_channels=8, out_channels=16,
            kernel_size=1, stride=1, padding=0, input_hw=7,
        )
        with pytest.raises(ValueError, match="two different layer specs"):
            Session().sweep(TARGET, [LAYER, impostor])

    def test_repeated_identical_specs_are_deduped(self):
        table = Session().sweep(TARGET, [LAYER, LAYER], sweep_step=8)
        assert table.layer_names == (LAYER.name,)
        assert len(table.for_target(TARGET)) == len(table)
