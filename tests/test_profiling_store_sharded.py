"""The profile-store directory: lazy shards, the flat-file import, concurrency.

A single flocked JSONL file goes superlinear at millions of entries —
every load parses the whole file and every writer contends on one
inode — so a store is a directory of shards.  These tests pin down:

* path resolution (missing path or empty directory = a new store,
  marker directory = a store, flat file = refused with the import
  command, arbitrary directory = loud rejection);
* per-``(device, library)`` shard files with lazy one-shard loads;
* ``import_flat_store`` (``store compact`` on a file): every entry
  preserved under last-writer-wins semantics, row-form lines converted,
  the file left intact when the swap fails;
* a hypothesis property test that an imported flat file serves
  bitwise-identical lookups to the store it was concatenated from;
* a multi-process append-vs-compact stress test asserting zero lost
  records;
* the store-labeled metrics (no cross-store clobbering) and the
  non-POSIX inode re-check that closes the append-vs-compact race when
  ``fcntl`` is unavailable;
* the resident store: one long-lived object catches up on foreign
  appends line by line, rebuilds after a foreign compaction, leaves a half-written last line alone, and always answers
  like a freshly opened store (a hypothesis property);
* torn-line handling: an append after a crash mid-append starts on a
  fresh line, and every skipped line is counted in
  ``repro_store_skipped_lines_total``.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Plan, Session, Target
from repro.models import ConvLayerSpec
from repro.profiling import Measurement, ProfileStore, ProfileStoreError, Sweep
from repro.profiling.store import (
    STORE_MARKER,
    STORE_VERSION,
    _STORE_FILE_BYTES,
    _STORE_RELOADS,
    _STORE_SKIPPED,
    import_flat_store,
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


def measurement(count, device="mali-g72", library="acl-gemm", median=2.0, runs=3):
    return Measurement(
        layer_name=LAYER.name, out_channels=count, device_name=device,
        library_name=library, median_time_ms=median, min_time_ms=median / 2,
        max_time_ms=median * 2, runs=runs, job_count=1,
    )


def record_counts(store, device, library, counts, runs=3, seed=0, median=2.0):
    store.record(
        device, library, runs, LAYER,
        Sweep.of(measurement(c, device, library, median, runs) for c in counts), seed=seed,
    )


def shard_file(path, device="mali-g72", library="acl-gemm"):
    """The shard file a target's records live in under store ``path``."""

    return Path(path) / (shard_id_for(device, library) + ".jsonl")


def sharded_store(path):
    """A store holding counts 4, 8 and 12 on every target."""

    store = ProfileStore(path)
    for device, library in TARGETS:
        record_counts(store, device, library, [4, 8, 12])
    return store


def flat_copy(store_path, flat_path):
    """A single-file store: the shards of ``store_path``, concatenated."""

    shards = sorted(Path(store_path).glob("*.jsonl"))
    flat_path.write_bytes(b"".join(shard.read_bytes() for shard in shards))
    return flat_path


class TestLayoutResolution:
    def test_sharded_layout_creates_directory_and_marker(self, tmp_path):
        ProfileStore(tmp_path / "store", layout="sharded")
        assert (tmp_path / "store" / STORE_MARKER).exists()
        # Reopening finds the marker; a plain open creates one too.
        ProfileStore(tmp_path / "store")
        ProfileStore(tmp_path / "fresh")
        assert (tmp_path / "fresh" / STORE_MARKER).exists()

    def test_arbitrary_directory_still_rejected(self, tmp_path):
        (tmp_path / "stuff.txt").write_text("not a store", encoding="utf-8")
        with pytest.raises(ProfileStoreError):
            ProfileStore(tmp_path)
        with pytest.raises(ProfileStoreError):
            ProfileStore(tmp_path, layout="sharded")  # non-empty, no marker

    def test_empty_directory_adopted_when_sharded_requested(self, tmp_path):
        (tmp_path / "empty").mkdir()
        (tmp_path / "plain").mkdir()
        ProfileStore(tmp_path / "empty", layout="sharded")
        ProfileStore(tmp_path / "plain")
        assert (tmp_path / "empty" / STORE_MARKER).exists()
        assert (tmp_path / "plain" / STORE_MARKER).exists()

    def test_flat_file_with_sharded_layout_requires_migration(self, tmp_path):
        path = flat_copy(sharded_store(tmp_path / "source").path, tmp_path / "flat.jsonl")
        before = path.read_bytes()
        for open_store in (
            ProfileStore,
            lambda flat: ProfileStore(flat, layout="sharded"),
            lambda flat: Session(store=flat),
        ):
            with pytest.raises(ProfileStoreError, match=f"store compact {path}"):
                open_store(path)
        assert path.read_bytes() == before  # untouched

    def test_unknown_layout_rejected(self, tmp_path):
        for layout in ("indexed", "flat", "auto"):
            with pytest.raises(ProfileStoreError, match="unknown store layout"):
                ProfileStore(tmp_path / "x", layout=layout)
        assert not (tmp_path / "x").exists()

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

    def test_file_stats_breaks_figures_down_per_shard(self, tmp_path):
        store = ProfileStore(tmp_path / "store", layout="sharded")
        record_counts(store, "mali-g72", "acl-gemm", [4, 8])
        record_counts(store, "jetson-tx2", "cudnn", [4])
        stats = store.file_stats()
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
        assert found.at(8).median_time_ms == 9.0  # last writer won


class TestMigration:
    """``import_flat_store``: a single-file store becomes a directory."""

    def seed_flat_store(self, tmp_path):
        source = sharded_store(tmp_path / "source")
        # Supersede one configuration so last-writer-wins is observable.
        record_counts(source, "mali-g72", "acl-gemm", [8], median=7.5)
        return source, flat_copy(source.path, tmp_path / "profiles.jsonl")

    def test_migration_preserves_every_entry(self, tmp_path):
        source, path = self.seed_flat_store(tmp_path)
        before = {
            target: _served(ProfileStore(source.path), *target, counts=[4, 8, 12])
            for target in TARGETS
        }

        assert import_flat_store(path) == 1  # the superseded count-8 duplicate
        assert path.is_dir() and (path / STORE_MARKER).exists()
        assert sorted(entry.name for entry in path.iterdir()) == sorted(
            [STORE_MARKER] + [shard_id_for(*target) + ".jsonl" for target in TARGETS]
        )
        assert not list(tmp_path.glob("*.import"))

        fresh = ProfileStore(path)
        for target in TARGETS:
            assert _served(fresh, *target, counts=[4, 8, 12]) == before[target]
        assert _served(fresh, counts=[8])[0][8]["median_time_ms"] == 7.5

    def test_migration_of_missing_path_adopts_sharded_layout(self, tmp_path):
        with pytest.raises(ProfileStoreError, match="no single-file profile store"):
            import_flat_store(tmp_path / "absent.jsonl")
        ProfileStore(tmp_path / "absent.jsonl")
        assert (tmp_path / "absent.jsonl" / STORE_MARKER).exists()
        with pytest.raises(ProfileStoreError):
            import_flat_store(tmp_path / "absent.jsonl")  # already a directory

    def test_a_failed_second_rename_leaves_the_flat_file_intact(
        self, tmp_path, monkeypatch
    ):
        from repro.profiling import store as store_module

        _, path = self.seed_flat_store(tmp_path)
        before = path.read_bytes()

        def refuse(source, target):
            raise OSError("rename refused")

        monkeypatch.setattr(store_module.os, "rename", refuse)
        with pytest.raises(OSError, match="rename refused"):
            import_flat_store(path)
        monkeypatch.undo()
        assert path.is_file() and path.read_bytes() == before
        assert not list(tmp_path.glob("*.import"))
        assert import_flat_store(path) == 1  # and the import still works

    def test_import_converts_row_form_lines(self, tmp_path):
        legacy = Path(__file__).parent / "data" / "legacy_v1_store"
        path = flat_copy(legacy, tmp_path / "legacy.jsonl")
        assert {json.loads(line)["v"] for line in path.read_text().splitlines()} == {1}
        assert import_flat_store(path) == 0
        shards = sorted(path.glob("*.jsonl"))
        assert [entry.name for entry in shards] == sorted(
            entry.name for entry in legacy.glob("*.jsonl")
        )
        for shard in shards:
            assert {json.loads(line)["v"] for line in shard.read_text().splitlines()} == {
                STORE_VERSION
            }

    def test_replay_against_migrated_store_simulates_nothing(self, tmp_path):
        plan = Plan()
        step = plan.sweep(Target("hikey-970", "acl-gemm"), LAYER, sweep_step=4)
        first = Session(store=str(tmp_path / "source")).execute(plan)

        path = flat_copy(tmp_path / "source", tmp_path / "profiles.jsonl")
        import_flat_store(path)

        replay_session = Session(store=str(path))
        replayed = replay_session.execute(plan)
        assert replay_session.simulation_count() == 0
        assert first[step.id] == replayed[step.id]


class TestFlatShardedEquivalence:
    """An imported flat file serves exactly what its sharded source does."""

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
        sharded = ProfileStore(base / "sharded", layout="sharded")
        for target_index, runs, seed, counts, median in stream:
            device, library = TARGETS[target_index]
            record_counts(sharded, device, library, counts,
                          runs=runs, seed=seed, median=median)
        imported = flat_copy(sharded.path, base / "flat.jsonl")
        import_flat_store(imported)

        def observe(path):
            store = ProfileStore(path)
            state = {}
            for target_index, runs, seed, counts, _ in stream:
                device, library = TARGETS[target_index]
                found, missing = store.lookup(
                    device, library, runs, LAYER, range(1, 25), seed=seed
                )
                state[(device, library, runs, seed)] = (
                    {m.out_channels: m.as_dict() for m in found}, missing
                )
            return len(store), state

        assert observe(imported) == observe(sharded.path)
        # The equivalence survives compaction of both stores.
        ProfileStore(imported).compact()
        ProfileStore(sharded.path).compact()
        assert observe(imported) == observe(sharded.path)


def _hammer_appends(path, device, library, counts, barrier):
    """Writer-process body: append one record per count, one at a time."""

    store = ProfileStore(path)
    barrier.wait(timeout=30.0)
    for count in counts:
        record_counts(store, device, library, [count])


class TestAppendVersusCompactStress:
    def test_no_record_is_lost_across_concurrent_compacts(self, tmp_path):
        """Multi-process appends racing compact() lose nothing."""

        path = tmp_path / "store"
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
        # Race compactions against the four writer processes.
        for _ in range(10):
            compactor.compact()
        for writer in writers:
            writer.join(timeout=30.0)
            assert writer.exitcode == 0
        compactor.compact()

        fresh = ProfileStore(path)
        for (device, library), counts in counts_per_writer.items():
            found, missing = fresh.lookup(device, library, 3, LAYER, counts)
            assert missing == [], (
                f"lost records for {library}@{device}: {missing}"
            )
        assert 1000 in fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, [1000])[0].counts


class TestStoreMetricsLabels:
    def test_two_stores_report_distinct_file_bytes_series(self, tmp_path):
        a = ProfileStore(tmp_path / "a")
        b = ProfileStore(tmp_path / "b")
        record_counts(a, "mali-g72", "acl-gemm", [4, 8, 12, 16])
        record_counts(b, "mali-g72", "acl-gemm", [4])

        shard = shard_id_for("mali-g72", "acl-gemm")
        bytes_a = _STORE_FILE_BYTES.value(store=str(a.path), shard=shard)
        bytes_b = _STORE_FILE_BYTES.value(store=str(b.path), shard=shard)
        assert bytes_a == shard_file(a.path).stat().st_size
        assert bytes_b == shard_file(b.path).stat().st_size
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
        path = tmp_path / "store"
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [8])
        # Stage the "compacted" replacement file the race will swap in.
        shard = shard_file(path)
        Path(str(shard) + ".compact").write_bytes(shard.read_bytes())

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
    return {m.out_channels: m.as_dict() for m in found}, missing


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
        path = tmp_path / "store"
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
        path = tmp_path / "store"
        resident = ProfileStore(path)
        record_counts(resident, "mali-g72", "acl-gemm", [4, 8])
        record_counts(resident, "mali-g72", "acl-gemm", [4, 8], median=3.0)
        assert _served(resident, counts=[4, 8])[0][4]["median_time_ms"] == 3.0
        cursor_size = shard_file(path).stat().st_size

        other = ProfileStore(path)
        other.compact()  # shrinks the file under a new inode ...
        while shard_file(path).stat().st_size <= cursor_size:  # ... which then outgrows it
            record_counts(other, "mali-g72", "acl-gemm", [12, 16], median=5.0)
        assert _served(resident) == _served(ProfileStore(path))

    def test_a_half_written_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "store"
        resident = ProfileStore(path)
        record_counts(resident, "mali-g72", "acl-gemm", [4])
        writer = ProfileStore(tmp_path / "scratch")
        record_counts(writer, "mali-g72", "acl-gemm", [8])
        line = shard_file(writer.path).read_bytes()
        half = len(line) // 2

        with shard_file(path).open("ab") as handle:
            handle.write(line[:half])
        assert _served(resident, counts=[4, 8])[1] == [8]
        with shard_file(path).open("ab") as handle:
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
        path = tmp_path / "store"
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [1])
        with shard_file(path).open("ab") as handle:
            handle.write(b'{"v": 1, "device": "mali-g72", "libr')  # crash mid-append
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [2])

        third = ProfileStore(path)
        found, missing = third.lookup("mali-g72", "acl-gemm", 3, LAYER, [1, 2])
        assert missing == [] and set(found.counts.tolist()) == {1, 2}
        assert third.skipped_lines == 1  # the torn line, on a line of its own

    def test_skipped_lines_are_counted_per_shard(self, tmp_path):
        path = tmp_path / "store"
        store = ProfileStore(path, layout="sharded")
        record_counts(store, "mali-g72", "acl-gemm", [4, 8])
        expected = _served(ProfileStore(path), counts=[4, 8])
        shard = shard_id_for("mali-g72", "acl-gemm")
        shard_path = shard_file(path)
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
        path = tmp_path / "store"
        record_counts(ProfileStore(path), "mali-g72", "acl-gemm", [4])
        with shard_file(path).open("a", encoding="utf-8") as handle:
            handle.write("42\n[1, 2]\n")
        reader = ProfileStore(path)
        assert _served(reader, counts=[4])[1] == []
        assert reader.skipped_lines == 2
