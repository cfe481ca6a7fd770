"""Sharded vs flat profile store at a million entries.

The flat JSONL layout parses the whole store on the first touch and
funnels every writer through one inode; the sharded layout loads one
``(device, library)`` shard per first touch and gives each target its
own append file.  This benchmark builds a ~1M-entry store across many
targets, times the operations the service actually performs — cold
load + single-target lookup, cold append, flat->sharded migration —
and asserts the headline speedup (>= 5x on cold load).  The figures
are written to ``BENCH_store.json`` in the test's temporary directory,
or to the path named by ``REPRO_BENCH_STORE_OUT`` (CI sets it to upload
them as an artifact), so a test run writes no tracked file.

Entry count: ``REPRO_BENCH_STORE_ENTRIES`` when set, else 1M with
timing enabled and 20k in smoke runs (``--benchmark-disable``), which
checks the invariants without the wait.
"""

import json
import os
import time
from pathlib import Path

from repro.api import Plan, Session, Target
from repro.models import ConvLayerSpec
from repro.profiling import ProfileStore, layer_spec_fingerprint
from repro.profiling.store import STORE_VERSION

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


def _build_flat_store(path, entries):
    """Synthesize a flat store of ~``entries`` measurement entries.

    Lines are written directly (the wire format is public) so building
    the fixture does not dominate the benchmark; append throughput is
    measured separately through :meth:`ProfileStore.record`.
    """

    records_per_target = max(1, entries // (len(TARGETS) * len(COUNTS)))
    written = 0
    with path.open("w", encoding="utf-8") as handle:
        for device, library in TARGETS:
            for group in range(records_per_target):
                # Distinct in_channels -> distinct group fingerprints.
                spec = BASE_LAYER.with_in_channels(8 + group)
                payload = _record_payload(
                    device, library, spec, median=1.0 + group
                )
                handle.write(json.dumps(payload) + "\n")
                written += len(COUNTS)
    return written


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
    from repro.profiling import Measurement

    measurements = [
        Measurement(
            layer_name=spec.name, out_channels=count, device_name=device,
            library_name=library, median_time_ms=2.0, min_time_ms=1.0,
            max_time_ms=4.0, runs=RUNS, job_count=1,
        )
        for count in COUNTS[:16]
    ]
    start = time.perf_counter()
    store.record(device, library, RUNS, spec, measurements)
    return time.perf_counter() - start


def test_store_sharded_vs_flat_at_scale(benchmark, tmp_path):
    """Sharded cold load/lookup/append beat the flat baseline (>= 5x load)."""

    env_entries = os.environ.get("REPRO_BENCH_STORE_ENTRIES")
    if env_entries is not None:
        target_entries = int(env_entries)
    elif benchmark.disabled:
        target_entries = 20_000
    else:
        target_entries = 1_000_000

    flat_path = tmp_path / "profiles.jsonl"
    start = time.perf_counter()
    entries = _build_flat_store(flat_path, target_entries)
    build_seconds = time.perf_counter() - start
    probe_device, probe_library = TARGETS[-1]
    probe_spec = BASE_LAYER.with_in_channels(8)

    # Flat baseline: cold load + lookup parses the whole file; a cold
    # append pays the same full parse before it can index the record.
    flat_cold_seconds, flat_found = _cold_lookup_seconds(
        flat_path, probe_device, probe_library, probe_spec
    )
    flat_append_seconds = _cold_append_seconds(flat_path, *TARGETS[0])
    flat_entry_count = len(ProfileStore(flat_path))

    # Migrate in place: the flat file becomes the sharded directory.
    migrator = ProfileStore(flat_path)
    start = time.perf_counter()
    migrator.compact(shard=True)
    migrate_seconds = time.perf_counter() - start
    assert migrator.layout == "sharded"
    assert len(migrator) == flat_entry_count  # every entry preserved

    # Sharded: the same operations touch one shard out of 64.
    sharded_cold_seconds, sharded_found = _cold_lookup_seconds(
        flat_path, probe_device, probe_library, probe_spec
    )
    sharded_append_seconds = _cold_append_seconds(flat_path, *TARGETS[0])
    assert {c: m.as_dict() for c, m in sharded_found.items()} == {
        c: m.as_dict() for c, m in flat_found.items()
    }

    def sharded_cold_lookup():
        return _cold_lookup_seconds(
            flat_path, probe_device, probe_library, probe_spec
        )

    benchmark.pedantic(sharded_cold_lookup, rounds=1, iterations=1)

    cold_load_speedup = flat_cold_seconds / sharded_cold_seconds
    append_speedup = flat_append_seconds / sharded_append_seconds
    figures = {
        "entries": entries,
        "targets": len(TARGETS),
        "build_seconds": round(build_seconds, 4),
        "build_entries_per_second": round(entries / build_seconds, 1),
        "flat_cold_load_seconds": round(flat_cold_seconds, 4),
        "sharded_cold_load_seconds": round(sharded_cold_seconds, 4),
        "cold_load_speedup": round(cold_load_speedup, 2),
        "flat_cold_append_seconds": round(flat_append_seconds, 4),
        "sharded_cold_append_seconds": round(sharded_append_seconds, 4),
        "append_speedup": round(append_speedup, 2),
        "migrate_seconds": round(migrate_seconds, 4),
        "timing_enabled": not benchmark.disabled,
    }
    benchmark.extra_info.update(figures)
    out = os.environ.get("REPRO_BENCH_STORE_OUT") or tmp_path / "BENCH_store.json"
    Path(out).write_text(
        json.dumps(figures, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    # The wall-clock gates only apply when benchmarking is enabled:
    # smoke runs (--benchmark-disable) check the invariants, not timing.
    if not benchmark.disabled:
        assert cold_load_speedup >= 5.0, (
            f"sharded cold load only {cold_load_speedup:.1f}x faster "
            f"({flat_cold_seconds:.3f}s flat vs {sharded_cold_seconds:.3f}s sharded)"
        )
        assert append_speedup > 1.0, (
            f"sharded cold append not faster ({flat_append_seconds:.3f}s flat "
            f"vs {sharded_append_seconds:.3f}s sharded)"
        )


def test_migrated_store_replays_a_plan_with_zero_simulations(tmp_path):
    """A resubmitted plan against a migrated store simulates nothing."""

    store_path = tmp_path / "profiles.jsonl"
    layer = BASE_LAYER.with_in_channels(16)
    plan = Plan()
    step = plan.sweep(Target("hikey-970", "acl-gemm"), layer, sweep_step=4)
    first = Session(store=str(store_path)).execute(plan)

    ProfileStore(store_path).compact(shard=True)

    replay = Session(store=str(store_path))
    replayed = replay.execute(plan)
    assert replay.simulation_count() == 0
    assert first[step.id] == replayed[step.id]
