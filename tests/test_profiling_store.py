"""Tests for the persistent profile store and measurement serialization."""

import json

import pytest

from repro.models import ConvLayerSpec
from repro.profiling import (
    Measurement,
    MeasurementError,
    ProfileRunner,
    ProfileStore,
    ProfileStoreError,
    STORE_VERSION,
    Sweep,
    layer_spec_fingerprint,
)
from repro.profiling.store import shard_id_for

LAYER = ConvLayerSpec(
    name="test.store.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)


def shard_file(path):
    """The shard file the hikey-970 (mali-g72) / acl-gemm runner writes."""

    return path / (shard_id_for("mali-g72", "acl-gemm") + ".jsonl")


def make_runner(store=None, runs=3):
    runner = ProfileRunner.create("hikey-970", "acl-gemm", runs=runs)
    runner.store = store
    return runner


class TestMeasurementValidation:
    def make(self, **overrides):
        payload = dict(
            layer_name="l", out_channels=8, device_name="d", library_name="lib",
            median_time_ms=2.0, min_time_ms=1.0, max_time_ms=3.0, runs=3, job_count=1,
        )
        payload.update(overrides)
        return Measurement(**payload)

    def test_valid_measurement_round_trips(self):
        measurement = self.make()
        assert Measurement.from_dict(measurement.as_dict()) == measurement

    def test_zero_min_time_rejected(self):
        with pytest.raises(MeasurementError):
            self.make(min_time_ms=0.0)

    def test_negative_min_time_rejected(self):
        with pytest.raises(MeasurementError):
            self.make(min_time_ms=-1.0)

    def test_inconsistent_ordering_rejected(self):
        with pytest.raises(MeasurementError):
            self.make(median_time_ms=5.0)

    def test_zero_runs_rejected(self):
        with pytest.raises(MeasurementError):
            self.make(runs=0)

    def test_spread_is_always_finite(self):
        assert self.make().spread == pytest.approx(3.0)


class TestFingerprint:
    def test_out_channels_do_not_change_the_fingerprint(self):
        assert layer_spec_fingerprint(LAYER) == layer_spec_fingerprint(
            LAYER.with_out_channels(7)
        )

    def test_other_fields_change_the_fingerprint(self):
        assert layer_spec_fingerprint(LAYER) != layer_spec_fingerprint(
            LAYER.with_in_channels(32)
        )


class TestProfileStore:
    def test_directory_path_rejected(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a store", encoding="utf-8")
        with pytest.raises(ProfileStoreError):
            ProfileStore(tmp_path)

    def test_record_and_lookup(self, tmp_path):
        store = ProfileStore(tmp_path / "profiles.jsonl")
        runner = make_runner(store)
        first = runner.measure_many(LAYER, [4, 8, 12])
        assert store.writes == 3

        fresh = ProfileStore(tmp_path / "profiles.jsonl")
        found, missing = fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [4, 8, 12, 16])
        assert missing == [16]
        assert [found.at(count) for count in (4, 8, 12)] == list(first)

    def test_cross_process_reuse_simulates_nothing(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        make_runner(ProfileStore(path)).measure_many(LAYER, range(1, 25))

        replay = make_runner(ProfileStore(path))
        replayed = replay.measure_many(LAYER, range(1, 25))
        assert replay.simulations == 0
        assert len(replayed) == 24

    def test_runs_are_part_of_the_key(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        make_runner(ProfileStore(path), runs=3).measure(LAYER, 8)
        other = make_runner(ProfileStore(path), runs=5)
        other.measure(LAYER, 8)
        assert other.simulations == 1

    def test_version_mismatch_invalidates_lines(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        make_runner(store).measure(LAYER, 8)

        lines = shard_file(path).read_text().splitlines()
        payload = json.loads(lines[0])
        payload["v"] = STORE_VERSION + 1
        shard_file(path).write_text(json.dumps(payload) + "\n")

        stale = ProfileStore(path)
        found, missing = stale.lookup("mali-g72", "acl-gemm", 3, LAYER, [8])
        assert len(found) == 0 and missing == [8]
        assert stale.skipped_lines == 1

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        make_runner(store).measure(LAYER, 8)
        with shard_file(path).open("a") as handle:
            handle.write("{truncated json\n")

        fresh = ProfileStore(path)
        found, _ = fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [8])
        assert 8 in found.counts
        assert fresh.skipped_lines == 1

    def test_stats_and_len(self, tmp_path):
        store = ProfileStore(tmp_path / "profiles.jsonl")
        runner = make_runner(store)
        runner.measure_many(LAYER, [4, 8])
        runner2 = make_runner(ProfileStore(store.path))
        runner2.measure_many(LAYER, [4, 8, 12])
        stats = runner2.store.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["writes"] == 1
        assert len(runner2.store) == 3

    def test_file_stats_breaks_records_down_per_target(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        make_runner(ProfileStore(path)).measure_many(LAYER, [4, 8])
        other = ProfileRunner.create("jetson-tx2", "cudnn", runs=3)
        other.store = ProfileStore(path)
        other.measure_many(LAYER, [4])
        # A duplicate of an existing configuration: counted as a
        # measurement, deduplicated out of the per-target entries.
        duplicate = make_runner().measure(LAYER, 8)
        fresh = ProfileStore(path)
        fresh.record(
            duplicate.device_name, duplicate.library_name, duplicate.runs,
            LAYER, Sweep.of([duplicate]),
        )

        stats = fresh.file_stats()
        assert stats["entries"] == 3
        assert stats["measurements"] == 4
        assert stats["superseded"] == 1
        assert stats["by_target"] == {
            "acl-gemm@mali-g72": {"entries": 2, "measurements": 3},
            "cudnn@jetson-tx2": {"entries": 1, "measurements": 1},
        }
        # An absent file reports an empty breakdown, not a crash.
        assert ProfileStore(tmp_path / "missing.jsonl").file_stats()["by_target"] == {}

    def test_partial_overlap_simulates_only_missing_counts(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        make_runner(ProfileStore(path)).measure_many(LAYER, [4, 8])
        runner = make_runner(ProfileStore(path))
        runner.measure_many(LAYER, [4, 8, 12, 16])
        assert runner.simulations == 2

    def test_pre_seed_lines_still_load(self, tmp_path):
        """Lines written before the 'seed' field existed read as seed 0."""

        path = tmp_path / "profiles.jsonl"
        make_runner(ProfileStore(path)).measure(LAYER, 8)
        payload = json.loads(shard_file(path).read_text().splitlines()[0])
        del payload["seed"]
        shard_file(path).write_text(json.dumps(payload) + "\n")

        legacy = ProfileStore(path)
        found, missing = legacy.lookup("mali-g72", "acl-gemm", 3, LAYER, [8])
        assert 8 in found.counts and missing == []

    def test_seed_is_part_of_the_key(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        seeded = ProfileRunner.create("hikey-970", "acl-gemm", runs=3, seed=7)
        seeded.store = ProfileStore(path)
        seeded.measure(LAYER, 8)

        other = make_runner(ProfileStore(path))  # seed 0
        other.measure(LAYER, 8)
        assert other.simulations == 1


class TestCompact:
    def test_compact_drops_superseded_duplicates(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        runner = make_runner(store)
        runner.measure_many(LAYER, [4, 8])
        # A second record re-covering count 8 plus a fresh count.
        store.record("mali-g72", "acl-gemm", 3, LAYER,
                     runner.measure_many(LAYER, [8, 12]))
        assert len(shard_file(path).read_text().splitlines()) == 3

        dropped = store.compact()
        assert dropped == 2  # one duplicate 8, one duplicate 12
        assert len(shard_file(path).read_text().splitlines()) == 1
        assert len(ProfileStore(path)) == 3

    def test_compact_removes_corrupt_lines(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        make_runner(store).measure(LAYER, 8)
        with shard_file(path).open("a") as handle:
            handle.write("{truncated json\n")

        fresh = ProfileStore(path)
        assert fresh.compact() == 1
        replayed = ProfileStore(path)
        found, _ = replayed.lookup("mali-g72", "acl-gemm", 3, LAYER, [8])
        assert 8 in found.counts
        assert replayed.skipped_lines == 0

    def test_compact_of_missing_file_is_a_noop(self, tmp_path):
        store = ProfileStore(tmp_path / "absent.jsonl")
        assert store.compact() == 0
        assert list(store.path.glob("*.jsonl")) == []

    def test_compact_keeps_last_writer_wins_semantics(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        original = make_runner(store).measure(LAYER, 8)
        # Append a doctored later record for the same configuration.
        altered = Measurement.from_dict(
            {**original.as_dict(), "median_time_ms": original.max_time_ms}
        )
        store.record("mali-g72", "acl-gemm", 3, LAYER, Sweep.of([altered]))
        store.compact()
        fresh = ProfileStore(path)
        found, _ = fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [8])
        assert found.at(8).median_time_ms == altered.median_time_ms

    def test_compact_picks_up_foreign_appends(self, tmp_path):
        """Records appended by another process after load survive compact."""

        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        make_runner(store).measure(LAYER, 8)
        # Another "process" appends behind this store's back.
        other = ProfileStore(path)
        make_runner(other).measure_many(LAYER, [8, 16])
        store.compact()
        fresh = ProfileStore(path)
        found, missing = fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [8, 16])
        assert missing == [] and len(found) == 2


class TestConcurrentWriters:
    def test_two_stores_interleaving_appends_stay_readable(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        a, b = ProfileStore(path), ProfileStore(path)
        runner_a = make_runner(a)
        runner_b = make_runner(b, runs=5)
        runner_a.measure_many(LAYER, [4, 8])
        runner_b.measure_many(LAYER, [4, 8])
        runner_a.measure(LAYER, 12)

        fresh = ProfileStore(path)
        assert fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [4, 8, 12])[1] == []
        assert fresh.lookup("mali-g72", "acl-gemm", 5, LAYER, [4, 8])[1] == []
        assert fresh.skipped_lines == 0
