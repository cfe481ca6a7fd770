"""Sharded profile-store layout: lazy shards, migration, concurrency.

The flat flocked JSONL file the store grew up with goes superlinear at
millions of entries — every load parses the whole file and every writer
contends on one inode.  These tests pin down the sharded layout that
replaces it:

* layout resolution (bare file = one ``legacy`` shard, marker directory
  = sharded, arbitrary directory = loud rejection);
* per-``(device, library)`` shard files with lazy one-shard loads;
* ``compact(shard=True)`` as the flat->sharded migration hook, with
  every entry preserved under last-writer-wins semantics;
* a hypothesis property test that flat and sharded stores serve
  bitwise-identical lookups for the same record stream;
* a multi-process append-vs-compact/migrate stress test asserting zero
  lost records;
* the store-labeled metrics (no cross-store clobbering) and the
  non-POSIX inode re-check that closes the append-vs-compact race when
  ``fcntl`` is unavailable;
* the resident store: one long-lived object catches up on foreign
  appends line by line, rebuilds after a foreign compaction or
  migration, leaves a half-written last line alone, and always answers
  like a freshly opened store (a hypothesis property);
* torn-line handling: an append after a crash mid-append starts on a
  fresh line, and every skipped line is counted in
  ``repro_store_skipped_lines_total``.
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import ConvLayerSpec
from repro.profiling import Measurement, ProfileStore, ProfileStoreError
from repro.profiling.store import (
    LEGACY_SHARD,
    STORE_MARKER,
    STORE_VERSION,
    _STORE_FILE_BYTES,
    _STORE_RELOADS,
    _STORE_SKIPPED,
    shard_id_for,
)

LAYER = ConvLayerSpec(
    name="test.shard.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)

TARGETS = [
    ("mali-g72", "acl-gemm"),
    ("mali-g72", "acl-direct"),
    ("jetson-tx2", "cudnn"),
    ("hikey-970", "tvm"),
]


def measurement(count, device="mali-g72", library="acl-gemm", median=2.0):
    return Measurement(
        layer_name=LAYER.name, out_channels=count, device_name=device,
        library_name=library, median_time_ms=median, min_time_ms=median / 2,
        max_time_ms=median * 2, runs=3, job_count=1,
    )


def record_counts(store, device, library, counts, runs=3, seed=0, median=2.0):
    store.record(
        device, library, runs, LAYER,
        [measurement(c, device, library, median) for c in counts], seed=seed,
    )


class TestLayoutResolution:
    def test_sharded_layout_creates_directory_and_marker(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        assert store.layout == "sharded"
        assert (tmp_path / "store" / STORE_MARKER).exists()
        # Reopening auto-detects the layout from the marker.
        assert ProfileStore(tmp_path / "store").layout == "sharded"

    def test_bare_file_path_stays_a_flat_store(self, tmp_path):
        store = ProfileStore(tmp_path / "profiles.jsonl")
        assert store.layout == "flat"
        record_counts(store, "mali-g72", "acl-gemm", [8])
        assert (tmp_path / "profiles.jsonl").is_file()

    def test_arbitrary_directory_still_rejected(self, tmp_path):
        (tmp_path / "stuff.txt").write_text("not a store", encoding="utf-8")
        with pytest.raises(ProfileStoreError):
            ProfileStore(tmp_path)
        with pytest.raises(ProfileStoreError):
            ProfileStore(tmp_path, layout="sharded")  # non-empty, no marker

    def test_empty_directory_adopted_when_sharded_requested(self, tmp_path):
        target = tmp_path / "empty"
        target.mkdir()
        assert ProfileStore(target, layout="sharded").layout == "sharded"

    def test_flat_file_with_sharded_layout_requires_migration(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [8])
        with pytest.raises(ProfileStoreError, match="migrate"):
            ProfileStore(path, layout="sharded")

    def test_unknown_layout_rejected(self, tmp_path):
        with pytest.raises(ProfileStoreError, match="unknown store layout"):
            ProfileStore(tmp_path / "x", layout="indexed")

    def test_shard_ids_are_distinct_even_for_colliding_slugs(self):
        a = shard_id_for("dev/a", "lib")
        b = shard_id_for("dev_a", "lib")
        assert a != b  # slugs collide, digests differ
        assert a.startswith("dev_a__lib--")


class TestShardedRecordAndLookup:
    def test_records_land_in_per_target_shards(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        for device, library in TARGETS:
            record_counts(store, device, library, [4, 8])
        shard_files = sorted(p.stem for p in (tmp_path / "store").glob("*.jsonl"))
        assert shard_files == sorted(shard_id_for(d, l) for d, l in TARGETS)

    def test_lookup_loads_only_the_touched_shard(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        for device, library in TARGETS:
            record_counts(store, device, library, [4, 8])

        fresh = ProfileStore(tmp_path / "store")
        found, missing = fresh.lookup("jetson-tx2", "cudnn", 3, LAYER, [4, 8])
        assert missing == [] and len(found) == 2
        assert set(fresh._indexes) == {shard_id_for("jetson-tx2", "cudnn")}

    def test_len_loads_everything_and_stays_consistent(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        for device, library in TARGETS:
            record_counts(store, device, library, [4, 8, 12])
        fresh = ProfileStore(tmp_path / "store")
        assert len(fresh) == 3 * len(TARGETS)
        # Re-recording an existing configuration must not double-count.
        record_counts(fresh, "mali-g72", "acl-gemm", [4, 8])
        assert len(fresh) == 3 * len(TARGETS)
        record_counts(fresh, "mali-g72", "acl-gemm", [16])
        assert len(fresh) == 3 * len(TARGETS) + 1

    def test_entry_count_matches_a_full_rescan(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        for device, library in TARGETS[:2]:
            record_counts(store, device, library, [4, 8])
            record_counts(store, device, library, [8, 12], runs=5)
        store.compact()
        rescan = sum(
            len(group)
            for index in store._indexes.values()
            for group in index.values()
        )
        assert len(store) == rescan == store._entry_count

    def test_stats_reports_the_layout(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        assert store.stats()["layout"] == "sharded"
        flat = ProfileStore(tmp_path / "flat.jsonl")
        assert flat.stats()["layout"] == "flat"

    def test_file_stats_breaks_figures_down_per_shard(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        record_counts(store, "mali-g72", "acl-gemm", [4, 8])
        record_counts(store, "jetson-tx2", "cudnn", [4])
        stats = store.file_stats()
        assert stats["layout"] == "sharded"
        assert stats["entries"] == 3
        per_shard = stats["shards"]
        assert per_shard[shard_id_for("mali-g72", "acl-gemm")]["entries"] == 2
        assert per_shard[shard_id_for("jetson-tx2", "cudnn")]["entries"] == 1

    def test_sharded_compact_drops_duplicates_per_shard(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        record_counts(store, "mali-g72", "acl-gemm", [4, 8])
        record_counts(store, "mali-g72", "acl-gemm", [8, 12], median=9.0)
        record_counts(store, "jetson-tx2", "cudnn", [4])
        assert store.compact() == 1  # the superseded count-8 entry
        fresh = ProfileStore(tmp_path / "store")
        found, _ = fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [8])
        assert found[8].median_time_ms == 9.0  # last writer won


class TestMigration:
    def seed_flat_store(self, path):
        store = ProfileStore(path)
        for device, library in TARGETS:
            record_counts(store, device, library, [4, 8, 12])
        # Supersede one configuration so last-writer-wins is observable.
        record_counts(store, "mali-g72", "acl-gemm", [8], median=7.5)
        return store

    def test_migration_preserves_every_entry(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        store = self.seed_flat_store(path)
        before = {}
        for device, library in TARGETS:
            found, _ = store.lookup(device, library, 3, LAYER, [4, 8, 12])
            before[(device, library)] = found

        dropped = store.compact(shard=True)
        assert dropped == 1  # the superseded count-8 duplicate
        assert store.layout == "sharded"
        assert path.is_dir() and (path / STORE_MARKER).exists()
        assert not (path / "_legacy.migrated").exists()

        fresh = ProfileStore(path)
        assert fresh.layout == "sharded"
        for device, library in TARGETS:
            found, missing = fresh.lookup(device, library, 3, LAYER, [4, 8, 12])
            assert missing == []
            assert found == before[(device, library)]
        assert fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [8])[0][8].median_time_ms == 7.5

    def test_migration_of_missing_path_adopts_sharded_layout(self, tmp_path):
        store = ProfileStore(tmp_path / "absent.jsonl")
        assert store.compact(shard=True) == 0
        assert store.layout == "sharded"
        assert (tmp_path / "absent.jsonl" / STORE_MARKER).exists()

    def test_shard_flag_on_a_sharded_store_is_a_plain_compact(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        record_counts(store, "mali-g72", "acl-gemm", [8])
        record_counts(store, "mali-g72", "acl-gemm", [8], median=3.0)
        assert store.compact(shard=True) == 1
        assert store.layout == "sharded"

    def test_concurrent_flat_store_object_adopts_the_migration(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        migrating = self.seed_flat_store(path)
        bystander = ProfileStore(path)  # another process's view
        found, _ = bystander.lookup("mali-g72", "acl-gemm", 3, LAYER, [4])
        assert 4 in found

        migrating.compact(shard=True)
        assert bystander.layout == "flat"  # not yet noticed

        # The next write re-routes to the proper shard of the new layout.
        record_counts(bystander, "mali-g72", "acl-gemm", [16])
        assert bystander.layout == "sharded"
        fresh = ProfileStore(path)
        found, missing = fresh.lookup(
            "mali-g72", "acl-gemm", 3, LAYER, [4, 8, 12, 16]
        )
        assert missing == []

    def test_replay_against_migrated_store_simulates_nothing(self, tmp_path):
        from repro.api import Plan, Session, Target

        path = tmp_path / "profiles.jsonl"
        plan = Plan()
        step = plan.sweep(Target("hikey-970", "acl-gemm"), LAYER, sweep_step=4)
        first = Session(store=str(path)).execute(plan)

        migrated = ProfileStore(path)
        migrated.compact(shard=True)
        assert migrated.layout == "sharded"

        replay_session = Session(store=str(path))
        replayed = replay_session.execute(plan)
        assert replay_session.simulation_count() == 0
        assert first[step.id] == replayed[step.id]


class TestFlatShardedEquivalence:
    """Flat and sharded stores are observationally identical."""

    record_streams = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(TARGETS) - 1),  # target
            st.sampled_from([1, 3]),                               # runs
            st.sampled_from([0, 7]),                               # seed
            st.lists(st.integers(min_value=1, max_value=24),       # counts
                     min_size=1, max_size=4, unique=True),
            st.floats(min_value=0.5, max_value=50.0,               # median
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=12,
    )

    @given(stream=record_streams)
    @settings(max_examples=25, deadline=None)
    def test_lookups_are_bitwise_identical(self, tmp_path_factory, stream):
        base = tmp_path_factory.mktemp("equiv")
        flat = ProfileStore(base / "flat.jsonl")
        sharded = ProfileStore(base / "sharded", layout="sharded")
        for target_index, runs, seed, counts, median in stream:
            device, library = TARGETS[target_index]
            for store in (flat, sharded):
                record_counts(store, device, library, counts,
                              runs=runs, seed=seed, median=median)

        def observe(path):
            store = ProfileStore(path)
            state = {}
            for target_index, runs, seed, counts, _ in stream:
                device, library = TARGETS[target_index]
                found, missing = store.lookup(
                    device, library, runs, LAYER, range(1, 25), seed=seed
                )
                state[(device, library, runs, seed)] = (
                    {c: m.as_dict() for c, m in found.items()}, missing
                )
            return len(store), state

        assert observe(flat.path) == observe(sharded.path)
        # The equivalence survives compaction of both layouts — and a
        # migration of the flat side into the sharded layout.
        ProfileStore(flat.path).compact()
        ProfileStore(sharded.path).compact()
        assert observe(flat.path) == observe(sharded.path)
        ProfileStore(flat.path).compact(shard=True)
        assert observe(flat.path) == observe(sharded.path)


def _hammer_appends(path, device, library, counts, barrier):
    """Writer-process body: append one record per count, one at a time."""

    store = ProfileStore(path)
    barrier.wait(timeout=30.0)
    for count in counts:
        record_counts(store, device, library, [count])


class TestAppendVersusCompactStress:
    def test_no_record_is_lost_across_concurrent_compacts_and_migration(
        self, tmp_path
    ):
        """Multi-process appends racing compact()/migrate lose nothing."""

        path = tmp_path / "profiles.jsonl"
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [1000])

        counts_per_writer = {
            ("mali-g72", "acl-gemm"): list(range(1, 26)),
            ("mali-g72", "acl-direct"): list(range(1, 26)),
            ("jetson-tx2", "cudnn"): list(range(1, 26)),
            ("hikey-970", "tvm"): list(range(1, 26)),
        }
        # spawn, not fork: the test process has background threads from
        # other suites, and 3.12 deprecates forking a threaded process.
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(len(counts_per_writer) + 1)
        writers = [
            context.Process(
                target=_hammer_appends,
                args=(str(path), device, library, counts, barrier),
            )
            for (device, library), counts in counts_per_writer.items()
        ]
        for writer in writers:
            writer.start()
        compactor = ProfileStore(path)
        barrier.wait(timeout=30.0)
        # Race plain compactions and the flat->sharded migration against
        # the four writer processes.
        compactor.compact()
        compactor.compact(shard=True)
        for _ in range(8):
            compactor.compact()
        for writer in writers:
            writer.join(timeout=30.0)
            assert writer.exitcode == 0
        compactor.compact()

        fresh = ProfileStore(path)
        assert fresh.layout == "sharded"
        for (device, library), counts in counts_per_writer.items():
            found, missing = fresh.lookup(device, library, 3, LAYER, counts)
            assert missing == [], (
                f"lost records for {library}@{device}: {missing}"
            )
        assert 1000 in fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [1000])[0]


class TestStoreMetricsLabels:
    def test_two_stores_report_distinct_file_bytes_series(self, tmp_path):
        a = ProfileStore(tmp_path / "a.jsonl")
        b = ProfileStore(tmp_path / "b.jsonl")
        record_counts(a, "mali-g72", "acl-gemm", [4, 8, 12, 16])
        record_counts(b, "mali-g72", "acl-gemm", [4])

        bytes_a = _STORE_FILE_BYTES.value(
            store=str(a.path), shard=LEGACY_SHARD
        )
        bytes_b = _STORE_FILE_BYTES.value(
            store=str(b.path), shard=LEGACY_SHARD
        )
        assert bytes_a == a.path.stat().st_size
        assert bytes_b == b.path.stat().st_size
        assert bytes_a != bytes_b  # b's append no longer clobbers a's gauge

    def test_sharded_store_reports_per_shard_series(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        record_counts(store, "mali-g72", "acl-gemm", [4, 8])
        record_counts(store, "jetson-tx2", "cudnn", [4])
        for device, library in (("mali-g72", "acl-gemm"), ("jetson-tx2", "cudnn")):
            shard = shard_id_for(device, library)
            assert _STORE_FILE_BYTES.value(
                store=str(store.path), shard=shard
            ) == (store.path / (shard + ".jsonl")).stat().st_size


class _ReplacedOnOpen(ProfileStore):
    """Simulates a compact() winning the race between open and write."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.races = 1

    def _open_append(self, path):
        handle = super()._open_append(path)
        if self.races:
            self.races -= 1
            # A "concurrent compact" atomically replaces the file while
            # this writer holds a handle to the old inode.
            os.replace(str(path) + ".compact", path)
        return handle


class TestNonPosixInodeRecheck:
    def test_append_never_lands_on_an_orphaned_inode_without_fcntl(
        self, tmp_path, monkeypatch
    ):
        from repro.profiling import store as store_module

        monkeypatch.setattr(store_module, "fcntl", None)
        path = tmp_path / "profiles.jsonl"
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [8])
        # Stage the "compacted" replacement file the race will swap in.
        (tmp_path / "profiles.jsonl.compact").write_text(
            path.read_text(encoding="utf-8"), encoding="utf-8"
        )

        racer = _ReplacedOnOpen(path)
        record_counts(racer, "mali-g72", "acl-gemm", [16])
        assert racer.races == 0  # the race fired

        fresh = ProfileStore(path)
        found, missing = fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [8, 16])
        assert missing == [], "append was lost on the orphaned inode"


def _append_counts(path, device, library, counts):
    """Foreign-process body: append one record from its own store object."""

    record_counts(ProfileStore(path), device, library, counts)


def _served(store, device="mali-g72", library="acl-gemm", counts=range(1, 25),
            runs=3, seed=0):
    found, missing = store.lookup(device, library, runs, LAYER, counts, seed=seed)
    return {c: m.as_dict() for c, m in found.items()}, missing


def _reloads(store, shard):
    return _STORE_RELOADS.value(store=str(store.path), shard=shard)


class TestResidentStore:
    """One long-lived store object stays as fresh as a newly opened one."""

    def test_foreign_append_from_another_object_is_served(self, tmp_path):
        resident = ProfileStore(tmp_path / "store", layout="sharded")
        record_counts(resident, "mali-g72", "acl-gemm", [4])
        assert _served(resident, counts=[4, 8])[1] == [8]
        shard = shard_id_for("mali-g72", "acl-gemm")

        record_counts(ProfileStore(tmp_path / "store"), "mali-g72", "acl-gemm", [8])
        reloads = _reloads(resident, shard)  # the series is per path
        found, missing = _served(resident, counts=[4, 8])
        assert missing == [] and set(found) == {4, 8}
        assert _reloads(resident, shard) == reloads  # caught up, not reloaded
        assert len(resident) == 2

    def test_foreign_append_from_a_spawned_process_is_served(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        resident = ProfileStore(path)
        record_counts(resident, "mali-g72", "acl-gemm", [4])
        assert _served(resident, counts=[16])[1] == [16]

        context = multiprocessing.get_context("spawn")
        writer = context.Process(
            target=_append_counts,
            args=(str(path), "mali-g72", "acl-gemm", [16]),
        )
        writer.start()
        writer.join(timeout=60.0)
        assert writer.exitcode == 0
        found, missing = _served(resident, counts=[4, 16])
        assert missing == [] and set(found) == {4, 16}

    def test_own_record_is_not_parsed_back(self, tmp_path, monkeypatch):
        from repro.profiling import store as store_module

        resident = ProfileStore(tmp_path / "store", layout="sharded")
        record_counts(resident, "mali-g72", "acl-gemm", [4])
        assert _served(resident, counts=[4])[1] == []
        parsed = []
        real = store_module._parse_line
        monkeypatch.setattr(
            store_module, "_parse_line", lambda line: parsed.append(line) or real(line)
        )
        record_counts(resident, "mali-g72", "acl-gemm", [8], median=3.0)
        found, missing = _served(resident, counts=[4, 8])
        assert missing == [] and found[8]["median_time_ms"] == 3.0
        assert parsed == []  # the cursor moved past the store's own line

    def test_foreign_compact_forces_an_identical_rebuild(self, tmp_path):
        path = tmp_path / "store"
        resident = ProfileStore(path, layout="sharded")
        record_counts(resident, "mali-g72", "acl-gemm", [4, 8])
        record_counts(resident, "mali-g72", "acl-gemm", [8, 12], median=9.0)
        before = _served(resident)
        shard = shard_id_for("mali-g72", "acl-gemm")

        assert ProfileStore(path).compact() == 1
        reloads = _reloads(resident, shard)
        assert _served(resident) == before
        assert _reloads(resident, shard) == reloads + 1
        assert _served(ProfileStore(path)) == before
        assert len(resident) == 3

    def test_a_replaced_file_that_outgrew_the_cursor_is_rebuilt(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        resident = ProfileStore(path)
        record_counts(resident, "mali-g72", "acl-gemm", [4, 8])
        record_counts(resident, "mali-g72", "acl-gemm", [4, 8], median=3.0)
        assert _served(resident, counts=[4, 8])[0][4]["median_time_ms"] == 3.0
        cursor_size = path.stat().st_size

        other = ProfileStore(path)
        other.compact()  # shrinks the file under a new inode ...
        while path.stat().st_size <= cursor_size:  # ... which then outgrows it
            record_counts(other, "mali-g72", "acl-gemm", [12, 16], median=5.0)
        assert _served(resident) == _served(ProfileStore(path))

    def test_foreign_migration_forces_an_identical_rebuild(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        resident = ProfileStore(path)
        for device, library in TARGETS:
            record_counts(resident, device, library, [4, 8])
        before = {target: _served(resident, *target) for target in TARGETS}

        ProfileStore(path).compact(shard=True)
        after = {target: _served(resident, *target) for target in TARGETS}
        assert resident.layout == "sharded"
        assert after == before
        assert len(resident) == 2 * len(TARGETS)

    def test_a_half_written_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        resident = ProfileStore(path)
        record_counts(resident, "mali-g72", "acl-gemm", [4])
        writer = ProfileStore(tmp_path / "scratch.jsonl")
        record_counts(writer, "mali-g72", "acl-gemm", [8])
        line = writer.path.read_bytes()
        half = len(line) // 2

        with path.open("ab") as handle:
            handle.write(line[:half])
        assert _served(resident, counts=[4, 8])[1] == [8]
        with path.open("ab") as handle:
            handle.write(line[half:])
        found, missing = _served(resident, counts=[4, 8])
        assert missing == [] and set(found) == {4, 8}
        assert resident.skipped_lines == 0

    operations = st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(["record", "foreign"]),
                st.integers(min_value=0, max_value=1),              # target
                st.lists(st.integers(min_value=1, max_value=12),    # counts
                         min_size=1, max_size=3, unique=True),
                st.floats(min_value=0.5, max_value=50.0,            # median
                          allow_nan=False, allow_infinity=False),
            ),
            st.tuples(st.sampled_from(["compact", "foreign-compact"])),
        ),
        min_size=1, max_size=10,
    )

    @given(operations=operations)
    @settings(max_examples=25, deadline=None)
    def test_resident_lookups_equal_a_fresh_store(self, tmp_path_factory, operations):
        path = tmp_path_factory.mktemp("resident") / "store"
        resident = ProfileStore(path, layout="sharded")
        for operation in operations:
            if operation[0] == "compact":
                resident.compact()
            elif operation[0] == "foreign-compact":
                ProfileStore(path).compact()
            else:
                kind, target_index, counts, median = operation
                writer = resident if kind == "record" else ProfileStore(path)
                device, library = TARGETS[target_index]
                record_counts(writer, device, library, counts, median=median)
            fresh = ProfileStore(path)
            for device, library in TARGETS[:2]:
                assert _served(resident, device, library, range(1, 13)) == _served(
                    fresh, device, library, range(1, 13)
                )
            assert len(resident) == len(fresh)


class TestTornLines:
    def test_an_append_after_a_torn_line_is_not_lost(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [1])
        with path.open("ab") as handle:
            handle.write(b'{"v": 1, "device": "mali-g72", "libr')  # crash mid-append
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [2])

        third = ProfileStore(path)
        found, missing = third.lookup("mali-g72", "acl-gemm", 3, LAYER, [1, 2])
        assert missing == [] and set(found) == {1, 2}
        assert third.skipped_lines == 1  # the torn line, on a line of its own

    def test_skipped_lines_are_counted_per_shard(self, tmp_path):
        path = tmp_path / "store"
        store = ProfileStore(path, layout="sharded")
        record_counts(store, "mali-g72", "acl-gemm", [4, 8])
        expected = _served(ProfileStore(path), counts=[4, 8])
        shard = shard_id_for("mali-g72", "acl-gemm")
        shard_path = path / (shard + ".jsonl")
        stale = json.loads(shard_path.read_text(encoding="utf-8"))
        stale["v"] = STORE_VERSION + 1
        with shard_path.open("a", encoding="utf-8") as handle:
            handle.write("{garbage\n")
            handle.write(json.dumps(stale) + "\n")

        reader = ProfileStore(path)
        before = _STORE_SKIPPED.value(store=str(path), shard=shard)
        assert _served(reader, counts=[4, 8]) == expected  # results unchanged
        assert reader.skipped_lines == 2
        assert _STORE_SKIPPED.value(store=str(path), shard=shard) == before + 2
        # Lines parsed once are never counted again by later catch-ups.
        _served(reader, counts=[4, 8])
        assert _STORE_SKIPPED.value(store=str(path), shard=shard) == before + 2

    def test_a_non_object_line_is_skipped(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [4])
        with path.open("a", encoding="utf-8") as handle:
            handle.write("42\n[1, 2]\n")
        reader = ProfileStore(path)
        assert _served(reader, counts=[4])[1] == []
        assert reader.skipped_lines == 2
