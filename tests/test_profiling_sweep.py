"""Sweeps from the runner to the store and back, as columns.

* Grouping invariance: however channel counts are split into
  ``measure_many`` calls (unsorted, repeated), against a partly filled
  cache and store and a cache bound small enough to evict, every
  configuration reads back bit for bit as a fresh runner's ``measure``.
* No NumPy scalar leaks: every value a ``Measurement``, a table series
  or a ``PruningReport.to_dict()`` carries is a Python ``int``/``float``
  (``json.dumps(np.int64(1))`` raises).
* The cache bound holds in configurations after every call, and whole
  sweeps are what it evicts.
* A failed append (a full disk) leaves nothing cached: the retry
  simulates the same bits again and writes them on a fresh line.
"""

import errno
import json
import shutil
from dataclasses import astuple, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PruningRequest, Session, Target
from repro.models import ConvLayerSpec
from repro.profiling import ProfileRunner, ProfileStore, Sweep, build_latency_table
from repro.profiling.store import shard_id_for

LAYER = ConvLayerSpec(
    name="test.sweep.columns", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)
OTHER = ConvLayerSpec(
    name="test.sweep.other", in_channels=16, out_channels=24,
    kernel_size=1, stride=1, padding=0, input_hw=14,
)

LEGACY_STORE = Path(__file__).parent / "data" / "legacy_v1_store"
LEGACY_LAYER = ConvLayerSpec(
    name="test.legacy.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)

#: The Python type of each Measurement field, in field order.
FIELD_TYPES = [str, int, str, str, float, float, float, int, int]


def runner(store=None, bound=None):
    made = ProfileRunner.create("hikey-970", "acl-gemm", runs=3)
    made.store = store
    if bound is not None:
        made.max_cache_entries = bound
    return made


def alone(layer, count):
    """``count`` measured on its own by a fresh runner: the reference bits."""

    return runner().measure(layer, count)


def exact(measurements):
    """Field values and types, so equal floats of other types differ."""

    return [(astuple(m), [type(getattr(m, f.name)) for f in fields(m)]) for m in measurements]


def python_leaves(payload):
    """Every leaf of a JSON-ready payload has an exact Python scalar type."""

    if isinstance(payload, dict):
        return all(type(key) is str for key in payload) and all(
            python_leaves(value) for value in payload.values()
        )
    if isinstance(payload, (list, tuple)):
        return all(python_leaves(value) for value in payload)
    return type(payload) in (str, int, float, bool, type(None))


COUNTS = st.lists(st.integers(1, 24), max_size=30)


@settings(max_examples=40, deadline=None)
@given(
    cached=COUNTS,
    stored=COUNTS,
    calls=st.lists(st.lists(st.integers(1, 24), min_size=1, max_size=30), min_size=1, max_size=4),
    bound=st.integers(1, 60),
)
def test_grouping_never_changes_a_measurement(tmp_path_factory, cached, stored, calls, bound):
    path = tmp_path_factory.mktemp("sweeps") / "store"
    runner(ProfileStore(path)).measure_many(LAYER, stored)
    measuring = runner(ProfileStore(path), bound)
    measuring.measure_many(LAYER, cached)
    measuring.measure_many(OTHER, cached)
    assert measuring.cache_size() <= bound

    for counts in calls:
        sweep = measuring.measure_many(LAYER, counts)
        assert measuring.cache_size() <= bound
        assert isinstance(sweep, Sweep) and sweep.counts.tolist() == counts
        assert exact(sweep) == exact(alone(LAYER, count) for count in counts)
        assert all(
            [type(value) for value in astuple(m)] == FIELD_TYPES for m in sweep
        )
        table = build_latency_table(measuring, LAYER, counts)
        series = table.as_series()
        assert all(type(count) is int for count in series[0])
        assert all(type(time) is float for time in series[1])
        assert series[1] == [alone(LAYER, count).median_time_ms for count in series[0]]


def test_reports_carry_python_numbers_only():
    session = Session()
    request = PruningRequest(
        "alexnet", Target("hikey-970", "acl-gemm"), fraction=0.25, layer_indices=(3,)
    )
    reports = [session.prune(request)]
    reports.append(session.prune(replace(request, strategy="uninstructed")))
    reports.append(session.prune(replace(
        request, strategy="latency-budget",
        latency_budget_ms=reports[0].baseline_latency_ms * 0.99,
    )))
    for report in reports:
        payload = report.to_dict()
        assert python_leaves(payload), payload
        json.dumps(payload)


class TestCacheBound:
    def test_the_bound_holds_in_configurations_across_layers(self):
        measuring = runner(bound=30)
        for layer, counts in ((LAYER, range(1, 25)), (OTHER, range(1, 13)), (LAYER, [5])):
            measuring.measure_many(layer, counts)
            assert measuring.cache_size() <= 30
        # The 24-count sweep was evicted whole to fit the 12-count one.
        assert measuring.cache_size() == 12 + 1

    def test_measure_after_a_covering_sweep_does_not_simulate(self):
        measuring = runner()
        sweep = measuring.measure_many(LAYER, range(1, 25))
        simulated = measuring.simulations
        assert measuring.measure(LAYER, 7) == sweep[6] == alone(LAYER, 7)
        assert measuring.simulations == simulated

    def test_an_evicted_layer_measures_the_same_bits_again(self):
        measuring = runner(bound=24)
        first = measuring.measure_many(LAYER, range(1, 25))
        measuring.measure_many(OTHER, range(1, 25))
        simulated = measuring.simulations
        again = measuring.measure_many(LAYER, range(1, 25))
        assert measuring.simulations == simulated + 24
        assert exact(again) == exact(first)

    @pytest.mark.parametrize("form", ["v1 rows", "v2 columns"])
    def test_a_store_serves_a_sweep_without_simulating(self, tmp_path, form):
        path = tmp_path / "store"
        if form == "v1 rows":
            shutil.copytree(LEGACY_STORE, path)
        else:
            runner(ProfileStore(path)).measure_many(LEGACY_LAYER, range(1, 25))
        replay = runner(ProfileStore(path))
        served = replay.measure_many(LEGACY_LAYER, range(1, 25))
        assert replay.simulations == 0
        assert isinstance(served, Sweep)
        assert exact(served) == exact(alone(LEGACY_LAYER, count) for count in range(1, 25))


class TestFailedAppend:
    """A full disk mid-append: nothing is cached that the store does not hold."""

    class FullDisk:
        """A shard handle whose write lands half of the line, then fails."""

        def __init__(self, handle):
            self._handle = handle

        def __getattr__(self, name):
            return getattr(self._handle, name)

        def write(self, data):
            self._handle.write(data[: len(data) // 2])
            self._handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def test_the_retry_simulates_again_and_appends_on_a_fresh_line(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        store = ProfileStore(path)
        measuring = runner(store)
        measuring.measure_many(LAYER, [1, 2])
        before = (len(store), store.writes, measuring.cache_size(), measuring.simulations)

        opened = store._open_append
        monkeypatch.setattr(store, "_open_append", lambda target: self.FullDisk(opened(target)))
        with pytest.raises(OSError) as failure:
            measuring.measure_many(LAYER, range(8, 13))
        assert failure.value.errno == errno.ENOSPC
        assert (len(store), store.writes, measuring.cache_size()) == before[:3]
        assert measuring.simulations == before[3] + 5
        assert store.lookup("mali-g72", "acl-gemm", 3, LAYER, range(8, 13))[1] == list(range(8, 13))

        monkeypatch.undo()
        retried = measuring.measure_many(LAYER, range(8, 13))
        assert measuring.simulations == before[3] + 10
        assert exact(retried) == exact(alone(LAYER, count) for count in range(8, 13))
        assert store.writes == before[1] + 5

        shard = path / (shard_id_for("mali-g72", "acl-gemm") + ".jsonl")
        lines = shard.read_bytes().split(b"\n")
        assert lines[-1] == b"" and json.loads(lines[-2])["measurements"]["out_channels"] == [
            8, 9, 10, 11, 12
        ]
        fresh = ProfileStore(path)
        found, missing = fresh.lookup("mali-g72", "acl-gemm", 3, LAYER, range(8, 13))
        assert missing == [] and exact(found) == exact(retried)
        assert fresh.skipped_lines == 1  # the torn half line
