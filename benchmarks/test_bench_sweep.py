"""Batched vs scalar staircase sweep: the ablation behind `measure_many`.

The paper's staircase and heatmap experiments profile every channel
count of a layer with repeated runs.  The scalar path plans each
channel count and simulates each (channel count, run) configuration one
Python call at a time, a batch of one per call; the batched path costs
the whole sweep in one vectorized
:func:`repro.gpusim.batch.simulate_batch` call.
This benchmark times both on the full ResNet-50 layer-16 ablation sweep
and asserts the headline speedup (>= 5x).
"""

import statistics
import time

from repro.gpusim import DEVICES, GpuSimulator
from repro.libraries import LIBRARIES
from repro.models import MODELS
from repro.profiling import DEFAULT_RUNS, ProfileRunner
from repro.profiling.noise import noise_matrix, noise_prefix

#: The ablation sweep: every channel count of ResNet-50 layer 16.
SWEEP = list(range(1, 129))


def _scalar_sweep(device, library, spec, runs):
    """The per-configuration measurement loop: one simulation per (count, run)."""

    simulator = GpuSimulator(device)
    prefix = noise_prefix(device, library.name, spec.name)
    medians = {}
    for channels in SWEEP:
        plan = library.plan_with_channels(spec, channels, device)
        noise = noise_matrix([prefix + plan.notes], runs)[0]
        times = [simulator.simulate(plan).total_time_ms * noise[run] for run in range(runs)]
        medians[channels] = statistics.median(times)
    return medians


def test_sweep_batched_vs_scalar(benchmark):
    """The batched sweep engine is >= 5x faster than the scalar path."""

    device = DEVICES.get("hikey-970")
    library = LIBRARIES.create("acl-gemm")
    spec = MODELS.create("resnet50").conv_layer(16).spec

    # Warm both code paths (imports, numpy dispatch tables) off the clock.
    _scalar_sweep(device, library, spec, 1)
    ProfileRunner(device=device, library=library, runs=1).measure_many(spec, SWEEP[:8])

    start = time.perf_counter()
    scalar_medians = _scalar_sweep(device, library, spec, DEFAULT_RUNS)
    scalar_seconds = time.perf_counter() - start

    def batched_sweep():
        runner = ProfileRunner(device=device, library=library, runs=DEFAULT_RUNS)
        return runner.measure_many(spec, SWEEP)

    start = time.perf_counter()
    measurements = batched_sweep()
    batched_seconds = time.perf_counter() - start
    benchmark.pedantic(batched_sweep, rounds=1, iterations=1)

    speedup = scalar_seconds / batched_seconds
    benchmark.extra_info["scalar_seconds"] = round(scalar_seconds, 4)
    benchmark.extra_info["batched_seconds"] = round(batched_seconds, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    # Same sweep, same medians (up to floating-point summation order).
    for measurement in measurements:
        expected = scalar_medians[measurement.out_channels]
        assert abs(measurement.median_time_ms - expected) <= 1e-9 * expected

    # The wall-clock gate only applies when benchmarking is enabled:
    # smoke runs (--benchmark-disable) check equivalence, not timing.
    if not benchmark.disabled:
        assert speedup >= 5.0, (
            f"batched sweep only {speedup:.1f}x faster "
            f"({scalar_seconds:.3f}s scalar vs {batched_seconds:.3f}s batched)"
        )
