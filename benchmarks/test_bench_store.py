"""The profile-store directory at a million entries.

A store is one JSONL shard per ``(device, library)`` pair, so a cold
lookup parses one shard and each target appends to its own file.  This
benchmark builds a ~1M-entry store across 64 targets, checks that a cold
single-target lookup loads exactly one shard and serves the records the
store was built from, and times the operations the service performs —
cold load + single-target lookup, cold append.  The figures are written to
``BENCH_store.json`` in the test's temporary directory, or to the path
named by ``REPRO_BENCH_STORE_OUT`` (CI sets it to upload them as an
artifact), so a test run writes no tracked file.

Entry count: ``REPRO_BENCH_STORE_ENTRIES`` when set (CI's benchmark job
sets 1M), else 20k, which checks the invariants in seconds.
"""

import json
import os
import time
from pathlib import Path

from repro.models import ConvLayerSpec
from repro.profiling import Measurement, ProfileStore, Sweep, layer_spec_fingerprint
from repro.profiling.store import (
    STORE_VERSION,
    _STORE_RELOADS,
    shard_id_for,
)

BASE_LAYER = ConvLayerSpec(
    name="bench.store.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)

#: Synthetic fleet: 16 devices x 4 libraries = 64 shards.
TARGETS = [
    (f"bench-dev-{d:02d}", f"bench-lib-{l}") for d in range(16) for l in range(4)
]

#: Channel counts per record: one record line covers one group's sweep.
COUNTS = list(range(1, 126))

RUNS = 3


def _record_payload(device, library, spec, median):
    """One raw columnar store line: a full sweep of COUNTS for one group."""

    return {
        "v": STORE_VERSION,
        "device": device,
        "library": library,
        "runs": RUNS,
        "seed": 0,
        "spec": spec.as_dict(),
        "spec_hash": layer_spec_fingerprint(spec),
        "measurements": {
            "layer_name": spec.name,
            "device_name": device,
            "library_name": library,
            "runs": RUNS,
            "out_channels": COUNTS,
            "median_time_ms": [median] * len(COUNTS),
            "min_time_ms": [median / 2] * len(COUNTS),
            "max_time_ms": [median * 2] * len(COUNTS),
            "job_count": [1] * len(COUNTS),
            "strays": [],
        },
    }


def _build_store(path, entries):
    """Synthesize a store of ~``entries`` measurement entries.

    Shard lines are written directly (the wire format is public) so
    building the fixture does not dominate the benchmark; append
    throughput is measured separately through
    :meth:`ProfileStore.record`.
    """

    ProfileStore(path)
    records_per_target = max(1, entries // (len(TARGETS) * len(COUNTS)))
    written = 0
    for device, library in TARGETS:
        shard = path / (shard_id_for(device, library) + ".jsonl")
        with shard.open("w", encoding="utf-8") as handle:
            for group in range(records_per_target):
                # Distinct in_channels -> distinct group fingerprints.
                spec = BASE_LAYER.with_in_channels(8 + group)
                payload = _record_payload(
                    device, library, spec, median=1.0 + group
                )
                handle.write(json.dumps(payload) + "\n")
                written += len(COUNTS)
    return written


def _shard_loads(path):
    """Full shard parses (``repro_store_reloads_total``) of one store path."""

    return sum(
        _STORE_RELOADS.value(store=str(path), shard=shard_id_for(*target))
        for target in TARGETS
    )


def _cold_lookup_seconds(path, device, library, spec):
    """Fresh store object + single-target lookup (forces the cold load)."""

    store = ProfileStore(path)
    start = time.perf_counter()
    found, missing = store.lookup(device, library, RUNS, spec, COUNTS)
    elapsed = time.perf_counter() - start
    assert missing == [] and len(found) == len(COUNTS)
    return elapsed, found


def _cold_append_seconds(path, device, library):
    """Fresh store object + one record: load-then-append, the writer path."""

    store = ProfileStore(path)
    spec = BASE_LAYER.with_in_channels(4096)  # a brand-new group
    measurements = [
        Measurement(
            layer_name=spec.name, out_channels=count, device_name=device,
            library_name=library, median_time_ms=2.0, min_time_ms=1.0,
            max_time_ms=4.0, runs=RUNS, job_count=1,
        )
        for count in COUNTS[:16]
    ]
    start = time.perf_counter()
    store.record(device, library, RUNS, spec, Sweep.of(measurements))
    return time.perf_counter() - start


def test_store_cold_lookup_loads_one_shard_at_scale(benchmark, tmp_path):
    """A cold lookup parses 1 shard of 64 and serves the records written."""

    env_entries = os.environ.get("REPRO_BENCH_STORE_ENTRIES")
    target_entries = int(env_entries) if env_entries is not None else 20_000

    store_path = tmp_path / "store"
    start = time.perf_counter()
    entries = _build_store(store_path, target_entries)
    build_seconds = time.perf_counter() - start
    probe_device, probe_library = TARGETS[-1]
    probe_spec = BASE_LAYER.with_in_channels(8)

    before = _shard_loads(store_path)
    cold_seconds, found = _cold_lookup_seconds(
        store_path, probe_device, probe_library, probe_spec
    )
    assert _shard_loads(store_path) == before + 1  # one shard of 64
    assert found.median.tolist() == [1.0] * len(COUNTS)  # group 0's record
    assert len(ProfileStore(store_path)) == entries
    append_seconds = _cold_append_seconds(store_path, *TARGETS[0])

    def cold_lookup():
        return _cold_lookup_seconds(
            store_path, probe_device, probe_library, probe_spec
        )

    benchmark.pedantic(cold_lookup, rounds=1, iterations=1)

    figures = {
        "entries": entries,
        "targets": len(TARGETS),
        "build_seconds": round(build_seconds, 4),
        "build_entries_per_second": round(entries / build_seconds, 1),
        "cold_load_seconds": round(cold_seconds, 4),
        "cold_append_seconds": round(append_seconds, 4),
        "timing_enabled": not benchmark.disabled,
    }
    benchmark.extra_info.update(figures)
    out = os.environ.get("REPRO_BENCH_STORE_OUT") or tmp_path / "BENCH_store.json"
    Path(out).write_text(
        json.dumps(figures, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

