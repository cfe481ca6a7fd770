"""Profiling: median-of-N measurement, latency tables and the profile store.

For cached cross-call profiling, prefer :meth:`repro.api.Session.profile_layer`
(the canonical entry point) over driving :class:`ProfileRunner` directly;
``ProfileRunner.for_target`` builds a runner from a :class:`repro.api.Target`.
Sweeps go through the vectorized batch path
(:meth:`ProfileRunner.measure_layers`, several layers at once;
:meth:`ProfileRunner.measure_many` for one) and come back as one
columnar :class:`Sweep` per layer; a :class:`ProfileStore` makes them
persistent across processes.
"""

from .latency_table import (
    LatencyTable,
    LatencyTableError,
    build_latency_table,
    prune_distances,
    sweep_counts,
)
from .runner import DEFAULT_RUNS, Measurement, MeasurementError, ProfileRunner, Sweep
from .store import STORE_VERSION, ProfileStore, ProfileStoreError, layer_spec_fingerprint

__all__ = [
    "DEFAULT_RUNS",
    "LatencyTable",
    "LatencyTableError",
    "Measurement",
    "MeasurementError",
    "ProfileRunner",
    "ProfileStore",
    "ProfileStoreError",
    "STORE_VERSION",
    "Sweep",
    "build_latency_table",
    "layer_spec_fingerprint",
    "prune_distances",
    "sweep_counts",
]
