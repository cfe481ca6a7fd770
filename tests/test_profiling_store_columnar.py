"""Columnar profile-store lines, and the row-form lines still read.

A store line holds one sweep of one layer on one target as parallel
columns under the group's constants; its ``strays`` list is always
empty.  These tests pin down:

* legacy stores: a sharded store written in row form (``tests/data``)
  serves every count without simulating, ``store compact`` rewrites it
  as columns, and columnar appends over it resolve last-writer-wins;
* check parity: a columnar line breaking any measurement rule is skipped
  whole and counted, exactly like a row-form line with the same entry;
  so is one with a wrong value type, a malformed column or a non-empty
  ``strays`` list;
* the line bytes of a fixed sweep, and the refusal of measurements of
  another layer or run count, or with an ``int`` time, anywhere a sweep
  is built or recorded.
"""

import json
import math
import shutil
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cli import main
from repro.models import ConvLayerSpec
from repro.profiling import Measurement, ProfileRunner, ProfileStore, Sweep
from repro.profiling.runner import MeasurementError, check_measurement, check_sweep
from repro.profiling.store import (
    STORE_VERSION,
    _STORE_SKIPPED,
    layer_spec_fingerprint,
    shard_id_for,
)

LEGACY_STORE = Path(__file__).parent / "data" / "legacy_v1_store"

#: The layer the legacy store measured on both targets, counts 1..24.
LEGACY_LAYER = ConvLayerSpec(
    name="test.legacy.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)
LEGACY_TARGETS = [("hikey-970", "acl-gemm"), ("jetson-tx2", "cudnn")]
COUNTS = range(1, 25)

LAYER = ConvLayerSpec(
    name="test.columnar.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)


def legacy_copy(tmp_path):
    path = tmp_path / "store"
    shutil.copytree(LEGACY_STORE, path)
    return path


def field_types(measurement):
    return [type(getattr(measurement, field.name)) for field in fields(measurement)]


def measurement(count, median=2.0, **overrides):
    values = dict(
        layer_name=LAYER.name, out_channels=count, device_name="mali-g72",
        library_name="acl-gemm", median_time_ms=median, min_time_ms=median / 2,
        max_time_ms=median * 2, runs=3, job_count=1,
    )
    values.update(overrides)
    return Measurement(**values)


def by_count(sweep):
    """A served sweep as ``{count: measurement}``, the last entry of a count winning."""

    return {measurement.out_channels: measurement for measurement in sweep}


#: The shard file of the (mali-g72, acl-gemm) target, under a store path.
SHARD = shard_id_for("mali-g72", "acl-gemm") + ".jsonl"


def lines_of(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def write_store(path, *lines):
    """A store at ``path`` whose (mali-g72, acl-gemm) shard holds ``lines``."""

    ProfileStore(path)
    (path / SHARD).write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )
    return path


class TestLegacyStoreKeepsServing:
    def test_lookups_match_a_fresh_simulation_without_simulating(self, tmp_path):
        path = legacy_copy(tmp_path)
        for device, library in LEGACY_TARGETS:
            replay = ProfileRunner.create(device, library, runs=3)
            replay.store = ProfileStore(path)
            served = replay.measure_many(LEGACY_LAYER, COUNTS)
            fresh = ProfileRunner.create(device, library, runs=3).measure_many(
                LEGACY_LAYER, COUNTS
            )
            assert replay.simulations == 0
            assert served == fresh
            assert [field_types(m) for m in served] == [field_types(m) for m in fresh]

    def test_store_compact_rewrites_row_lines_as_columns(self, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        assert {line["v"] for line in lines_of(path / SHARD)} == {1}
        before = ProfileStore(path).file_stats()
        expected, _ = ProfileStore(path).lookup(
            "mali-g72", "acl-gemm", 3, LEGACY_LAYER, COUNTS
        )

        assert main(["store", "compact", str(path)]) == 0
        assert "dropped 0" in capsys.readouterr().out
        after = ProfileStore(path).file_stats()
        assert after["entries"] == before["entries"] == 2 * len(COUNTS)
        assert after["bytes"] < before["bytes"]
        for shard_file in path.glob("*.jsonl"):
            (line,) = lines_of(shard_file)
            assert line["v"] == STORE_VERSION
            assert line["measurements"]["out_channels"] == list(COUNTS)
            assert line["measurements"]["strays"] == []
        served, missing = ProfileStore(path).lookup(
            "mali-g72", "acl-gemm", 3, LEGACY_LAYER, COUNTS
        )
        assert missing == [] and served == expected

    def test_columnar_appends_over_row_lines_win(self, tmp_path):
        path = legacy_copy(tmp_path)
        old, _ = ProfileStore(path).lookup("mali-g72", "acl-gemm", 3, LEGACY_LAYER, COUNTS)
        old = by_count(old)
        newer = {
            count: replace(old.get(count) or old[1], out_channels=count,
                           median_time_ms=9.0, min_time_ms=8.0, max_time_ms=10.0)
            for count in range(20, 31)
        }
        ProfileStore(path).record(
            "mali-g72", "acl-gemm", 3, LEGACY_LAYER, Sweep.of(newer.values())
        )
        assert [line["v"] for line in lines_of(path / SHARD)] == [1, 1, STORE_VERSION]

        served, missing = ProfileStore(path).lookup(
            "mali-g72", "acl-gemm", 3, LEGACY_LAYER, range(1, 31)
        )
        assert missing == []
        assert by_count(served) == {**{count: old[count] for count in range(1, 20)}, **newer}
        assert len(ProfileStore(path)) == 2 * len(COUNTS) + 6


def columnar_line(tmp_path):
    """A valid columnar line of four counts, as record() writes it."""

    store = ProfileStore(tmp_path / "source")
    store.record(
        "mali-g72", "acl-gemm", 3, LAYER,
        Sweep.of(measurement(count, median=1.0 + count) for count in (4, 8, 12, 16)),
    )
    (line,) = lines_of(store.path / SHARD)
    return line


def row_line(line):
    """The same line in the row form, its entries as ``Measurement.as_dict``."""

    columns = line["measurements"]
    constants = {
        name: columns[name]
        for name in ("layer_name", "device_name", "library_name", "runs")
    }
    entries = [
        Measurement(
            out_channels=count, median_time_ms=mid, min_time_ms=low,
            max_time_ms=high, job_count=jobs, **constants,
        ).as_dict()
        for count, mid, low, high, jobs in zip(
            columns["out_channels"], columns["median_time_ms"],
            columns["min_time_ms"], columns["max_time_ms"], columns["job_count"],
        )
    ]
    keys = ("device", "library", "runs", "seed", "spec", "spec_hash")
    return dict({key: line[key] for key in keys}, v=1, measurements=entries)


def set_first(name, value):
    """A rule break: the first entry's ``name`` becomes ``value``."""

    def columnar(columns):
        if isinstance(columns[name], list):
            columns[name][0] = value
        else:  # a constant
            columns[name] = value

    def row(entries):
        entries[0][name] = value

    return columnar, row


def drop_last(name):
    def columnar(columns):
        columns[name].pop()

    return columnar, None


def drop_column(name):
    def columnar(columns):
        del columns[name]

    return columnar, None


def add_stray(columns):
    """A measurement that fits the columns, written as a stray row."""

    columns["strays"].append(measurement(20, median=3.0).as_dict())


#: Each rule a line can break: (columnar mutation, same break in row form
#: or None where the row form has no such entry).
RULES = {
    "zero-min": set_first("min_time_ms", 0.0),
    "negative-min": set_first("min_time_ms", -1.0),
    "min-above-median": set_first("min_time_ms", 6.0),
    "median-above-max": set_first("median_time_ms", 99.0),
    "nan-median": set_first("median_time_ms", math.nan),
    "nan-min": set_first("min_time_ms", math.nan),
    "runs-below-one": set_first("runs", 0),
    "int-median": set_first("median_time_ms", 5),
    "int-max": set_first("max_time_ms", 10),
    "float-count": set_first("out_channels", 4.0),
    "float-job-count": set_first("job_count", 1.0),
    "bool-runs": set_first("runs", True),
    "other-layer": set_first("layer_name", "renamed.conv"),
    "other-runs": set_first("runs", 5),
    "unequal-lengths": drop_last("job_count"),
    "missing-column": drop_column("max_time_ms"),
    "missing-strays": drop_column("strays"),
    "non-empty-strays": (add_stray, None),
}


def read_back(tmp_path, name, line):
    path = write_store(tmp_path / name, line)
    store = ProfileStore(path)
    shard = shard_id_for("mali-g72", "acl-gemm")
    before = _STORE_SKIPPED.value(store=str(path), shard=shard)
    found, missing = store.lookup("mali-g72", "acl-gemm", 3, LAYER, [4, 8, 12, 16])
    skipped = _STORE_SKIPPED.value(store=str(path), shard=shard) - before
    return by_count(found), missing, store.skipped_lines, skipped


class TestCheckParity:
    def test_the_unbroken_lines_are_served(self, tmp_path):
        line = columnar_line(tmp_path)
        columnar = read_back(tmp_path, "columnar", line)
        row = read_back(tmp_path, "row", row_line(line))
        assert columnar[1:] == row[1:] == ([], 0, 0)
        assert columnar[0] == row[0] and len(columnar[0]) == 4

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_a_line_breaking_a_rule_is_skipped_whole(self, tmp_path, rule):
        break_columns, break_rows = RULES[rule]
        line = columnar_line(tmp_path)
        row = row_line(line)
        break_columns(line["measurements"])
        found, missing, skipped_lines, counted = read_back(tmp_path, "columnar", line)
        assert found == {} and missing == [4, 8, 12, 16]
        assert skipped_lines == counted == 1
        if break_rows is not None:
            break_rows(row["measurements"])
            assert read_back(tmp_path, "row", row) == (found, missing, 1, 1)

    def test_a_skipped_line_is_not_counted_as_an_entry(self, tmp_path):
        line = columnar_line(tmp_path)
        line["measurements"]["min_time_ms"][0] = 0.0
        stats = ProfileStore(write_store(tmp_path / "store", line)).file_stats()
        assert (stats["unreadable"], stats["entries"], stats["measurements"]) == (1, 0, 0)


TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.0, 2.0, math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TIMES, TIMES, TIMES), min_size=1, max_size=6),
       st.integers(-1, 3))
def test_column_checks_match_the_per_entry_rule(times, runs):
    """The whole-column checks reject exactly what check_measurement rejects."""

    counts = list(range(1, len(times) + 1))
    median, minimum, maximum = (list(column) for column in zip(*times))
    sweep = Sweep(
        LAYER.name, "mali-g72", "acl-gemm", runs, np.array(counts),
        np.array(median), np.array(minimum), np.array(maximum), np.ones(len(counts), int),
    )
    try:
        for count, (mid, low, high) in zip(counts, times):
            check_measurement(LAYER.name, count, mid, low, high, runs)
    except MeasurementError:
        with pytest.raises(MeasurementError):
            check_sweep(sweep)
    else:
        check_sweep(sweep)


MEASUREMENTS = st.builds(
    measurement,
    st.sampled_from([4, 8, 12, 16]),
    median=st.sampled_from([2.0, 3.0, 2.5]),
    job_count=st.sampled_from([1, 2]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(MEASUREMENTS, min_size=1, max_size=5), min_size=1, max_size=4))
def test_records_read_back_exactly_last_writer_wins(tmp_path_factory, records):
    """Sweeps recorded in any order read back as the last write per count."""

    path = tmp_path_factory.mktemp("store") / "store"
    writer = ProfileStore(path)
    expected = {}
    for record in records:
        writer.record("mali-g72", "acl-gemm", 3, LAYER, Sweep.of(record))
        for recorded in record:
            expected[recorded.out_channels] = recorded
    counts = list(expected)
    for store in (writer, ProfileStore(path)):
        found, missing = store.lookup("mali-g72", "acl-gemm", 3, LAYER, counts)
        assert missing == []
        assert [astuple(found.at(count)) for count in counts] == [
            astuple(expected[count]) for count in counts
        ]
        assert [field_types(found.at(count)) for count in counts] == [
            field_types(expected[count]) for count in counts
        ]
    assert len(ProfileStore(path)) == len(expected)


#: The exact line ``record`` writes for ``GOLDEN_SWEEP``: builds that
#: read (or wrote) the ``strays`` list expect it there, empty.
GOLDEN_LINE = (
    '{"v": 2, "device": "mali-g72", "library": "acl-gemm", "runs": 3, "seed": 0, '
    '"spec": {"name": "test.columnar.conv", "in_channels": 16, "out_channels": 24, '
    '"kernel_size": 3, "stride": 1, "padding": 1, "input_hw": 14, "groups": 1, '
    '"bias": true}, "spec_hash": "17b5f0f764b795b2", "measurements": '
    '{"layer_name": "test.columnar.conv", "device_name": "mali-g72", '
    '"library_name": "acl-gemm", "runs": 3, "out_channels": [4, 8], '
    '"median_time_ms": [1.5, 2.25], "min_time_ms": [0.75, 1.125], '
    '"max_time_ms": [3.0, 4.5], "job_count": [1, 1], "strays": []}}\n'
)


def test_a_fixed_sweep_writes_the_golden_line(tmp_path):
    path = tmp_path / "store"
    sweep = Sweep.of([measurement(4, median=1.5), measurement(8, median=2.25)])
    ProfileStore(path).record("mali-g72", "acl-gemm", 3, LAYER, sweep)
    assert (path / SHARD).read_bytes() == GOLDEN_LINE.encode("utf-8")
    found, missing = ProfileStore(path).lookup("mali-g72", "acl-gemm", 3, LAYER, [4, 8])
    assert missing == [] and found == sweep


class TestOneLayerOneTarget:
    """Measurements of another layer or run count, or with an ``int``
    time, are refused wherever a sweep is built or recorded."""

    MISFITS = {
        "other layer": measurement(8, layer_name="renamed.conv"),
        "other runs": measurement(8, runs=5),
        "int time": measurement(8, median_time_ms=2, min_time_ms=1.0),
    }

    @pytest.mark.parametrize("misfit", sorted(MISFITS))
    def test_of_refuses_a_misfit(self, misfit):
        with pytest.raises(MeasurementError):
            Sweep.of([measurement(4), self.MISFITS[misfit]])

    @pytest.mark.parametrize("misfit", ["other layer", "other runs"])
    def test_concat_refuses_a_misfit(self, misfit):
        with pytest.raises(MeasurementError, match="was expected"):
            Sweep.concat([Sweep.of([measurement(4)]), Sweep.of([self.MISFITS[misfit]])])

    @pytest.mark.parametrize("misfit", ["other layer", "other runs"])
    def test_record_refuses_a_misfit_and_writes_nothing(self, tmp_path, misfit):
        path = tmp_path / "store"
        store = ProfileStore(path)
        with pytest.raises(MeasurementError, match="was expected"):
            store.record("mali-g72", "acl-gemm", 3, LAYER, Sweep.of([self.MISFITS[misfit]]))
        assert not (path / SHARD).exists()
        assert (len(store), store.writes) == (0, 0)


def test_spec_fields_survive_compaction(tmp_path):
    path = tmp_path / "store"
    ProfileStore(path).record("mali-g72", "acl-gemm", 3, LAYER, Sweep.of([measurement(4)]))
    ProfileStore(path).record("mali-g72", "acl-gemm", 3, LAYER, Sweep.of([measurement(8)]))
    ProfileStore(path).compact()
    (line,) = lines_of(path / SHARD)
    assert line["spec"] == LAYER.as_dict()
    assert line["spec_hash"] == layer_spec_fingerprint(LAYER)
    assert (line["runs"], line["seed"]) == (3, 0)
