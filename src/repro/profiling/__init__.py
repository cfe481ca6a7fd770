"""Profiling: kernel event capture, median-of-N measurement, latency tables.

For cached cross-call profiling, prefer :meth:`repro.api.Session.profile_layer`
(the canonical entry point) over driving :class:`ProfileRunner` directly;
``ProfileRunner.for_target`` builds a runner from a :class:`repro.api.Target`.
Sweeps go through the vectorized batch path
(:meth:`ProfileRunner.measure_many`) and come back as one columnar
:class:`Sweep`; a :class:`ProfileStore` makes them persistent across
processes.
"""

from .events import KernelEvent, ProfiledRun
from .latency_table import (
    LatencyTable,
    LatencyTableError,
    build_latency_table,
    prune_distances,
    sweep_counts,
)
from .profilers import (
    CudaEventProfiler,
    OpenCLProfiler,
    noise_factors,
    profile_runs,
    profiler_for_device,
)
from .runner import DEFAULT_RUNS, Measurement, MeasurementError, ProfileRunner, Sweep
from .store import STORE_VERSION, ProfileStore, ProfileStoreError, layer_spec_fingerprint

__all__ = [
    "CudaEventProfiler",
    "DEFAULT_RUNS",
    "KernelEvent",
    "LatencyTable",
    "LatencyTableError",
    "Measurement",
    "MeasurementError",
    "OpenCLProfiler",
    "ProfileRunner",
    "ProfileStore",
    "ProfileStoreError",
    "ProfiledRun",
    "STORE_VERSION",
    "Sweep",
    "build_latency_table",
    "layer_spec_fingerprint",
    "noise_factors",
    "profile_runs",
    "profiler_for_device",
    "prune_distances",
    "sweep_counts",
]
