"""Measurement runner: median-of-N latency measurements per configuration.

``ProfileRunner`` is the reproduction of the paper's measurement
protocol (Section III-D): for each (device, library, layer, channel
count) configuration, run the layer several times and report the median.

Sweeps are batched: :meth:`ProfileRunner.measure_many` plans every
requested channel count with one ``plan_counts`` call (a
:class:`~repro.gpusim.batch.KernelBatch` of flat arrays), costs all of
them in one vectorized :func:`~repro.gpusim.batch.simulate_batch` call
and applies the repetition noise as a single array operation, so a full
staircase sweep is one NumPy pass instead of ``channels x runs`` scalar
simulations.
Results are memoised in-process and — when a
:class:`~repro.profiling.store.ProfileStore` is attached — persisted
across processes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from typing import TYPE_CHECKING

import numpy as np

from ..gpusim.batch import simulate_batch
from ..gpusim.device import DEVICES, DeviceSpec
from ..libraries.base import LIBRARIES, ConvolutionLibrary
from ..models.layers import ConvLayerSpec
from ..obs.metrics import COUNT_BUCKETS, default_registry
from .profilers import noise_matrix, noise_prefix

_SIMULATIONS = default_registry().counter(
    "repro_profile_simulations_total",
    "Configurations that actually hit the simulator (cache/store hits excluded).",
    labelnames=("device", "library"),
)
_BATCH_SIZE = default_registry().histogram(
    "repro_profile_batch_size",
    "Configurations per vectorized simulate_batch call.",
    buckets=COUNT_BUCKETS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.target import Target
    from .store import ProfileStore

#: Number of repetitions per configuration (the paper reports the median
#: of 10 runs).
DEFAULT_RUNS = 10

#: Default bound on memoised measurements per runner.  At ~200 bytes per
#: measurement this caps a runner's cache in the tens of megabytes while
#: holding far more configurations than the full model zoo sweeps need.
DEFAULT_MEASUREMENT_CACHE_ENTRIES = 65536


class MeasurementError(ValueError):
    """Raised when a measurement is structurally invalid."""


def check_measurement(
    layer_name: str,
    out_channels: int,
    median_time_ms: float,
    min_time_ms: float,
    max_time_ms: float,
    runs: int,
) -> None:
    """Raise :class:`MeasurementError` unless the fields form a valid measurement.

    The one copy of the rules: :class:`Measurement` construction and the
    profile store's line parser (which fills columns without building
    objects) both call it.
    """

    if runs < 1:
        raise MeasurementError(
            f"{layer_name}: a measurement needs at least one run, got {runs}"
        )
    if min_time_ms <= 0:
        # A zero-time run would make ``spread`` infinite and poison
        # every downstream stability report; reject it at the source.
        raise MeasurementError(
            f"{layer_name} at {out_channels} channels: non-positive "
            f"minimum run time {min_time_ms} ms"
        )
    if not min_time_ms <= median_time_ms <= max_time_ms:
        raise MeasurementError(
            f"{layer_name} at {out_channels} channels: inconsistent "
            f"run times (min={min_time_ms}, median={median_time_ms}, "
            f"max={max_time_ms})"
        )


@dataclass(frozen=True)
class Measurement:
    """Median latency of one measured layer configuration."""

    layer_name: str
    out_channels: int
    device_name: str
    library_name: str
    median_time_ms: float
    min_time_ms: float
    max_time_ms: float
    runs: int
    job_count: int

    def __post_init__(self) -> None:
        check_measurement(
            self.layer_name, self.out_channels, self.median_time_ms,
            self.min_time_ms, self.max_time_ms, self.runs,
        )

    @property
    def spread(self) -> float:
        """Max/min ratio across the repeated runs (measurement stability).

        Always finite: construction rejects non-positive run times.
        """

        return self.max_time_ms / self.min_time_ms

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready payload, one key per field.

        The profile store writes measurements as columns; this row form is
        what its lines use for a measurement that does not fit the columns.
        """

        return {
            "layer_name": self.layer_name,
            "out_channels": self.out_channels,
            "device_name": self.device_name,
            "library_name": self.library_name,
            "median_time_ms": self.median_time_ms,
            "min_time_ms": self.min_time_ms,
            "max_time_ms": self.max_time_ms,
            "runs": self.runs,
            "job_count": self.job_count,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Measurement":
        return cls(**payload)


def checked_measurement(
    layer_name: str,
    out_channels: int,
    device_name: str,
    library_name: str,
    median_time_ms: float,
    min_time_ms: float,
    max_time_ms: float,
    runs: int,
    job_count: int,
) -> Measurement:
    """A :class:`Measurement` of fields that already passed :func:`check_measurement`.

    Fills the instance dict directly, as unpickling does, instead of
    paying the frozen dataclass ``__init__`` (about four times the cost)
    and its re-check.
    """

    measurement = object.__new__(Measurement)
    fields = measurement.__dict__
    fields["layer_name"] = layer_name
    fields["out_channels"] = out_channels
    fields["device_name"] = device_name
    fields["library_name"] = library_name
    fields["median_time_ms"] = median_time_ms
    fields["min_time_ms"] = min_time_ms
    fields["max_time_ms"] = max_time_ms
    fields["runs"] = runs
    fields["job_count"] = job_count
    return measurement


@dataclass
class ProfileRunner:
    """Measure layer latencies on a (device, library) pair with caching.

    ``store`` optionally backs the in-memory cache with a persistent
    :class:`~repro.profiling.store.ProfileStore`; ``simulations`` counts
    the configurations that actually hit the simulator (cache and store
    hits do not).  The measurement cache holds at most
    ``max_cache_entries`` entries (oldest-inserted evicted first; pass
    ``None`` for unbounded), so a long-lived runner cannot grow without
    limit.

    Runners are thread-safe: measurement and adoption are
    serialized per runner, so concurrent plan steps hammering the same
    (device, library) pair simulate each configuration exactly once and
    record it to the store exactly once.
    """

    device: DeviceSpec
    library: ConvolutionLibrary
    runs: int = DEFAULT_RUNS
    store: Optional["ProfileStore"] = None
    simulations: int = 0
    max_cache_entries: Optional[int] = DEFAULT_MEASUREMENT_CACHE_ENTRIES
    #: Measurement-noise stream seed; 0 is the historical default stream.
    #: Two runners with the same seed produce bitwise-identical
    #: measurements without sharing a store.
    seed: int = 0
    _cache: "OrderedDict[Tuple[str, int], Measurement]" = field(
        default_factory=OrderedDict, repr=False
    )
    #: Serializes cache mutation, simulation and store traffic; RLock so
    #: the public entry points may call each other.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    @classmethod
    def create(
        cls, device: str, library: str, runs: int = DEFAULT_RUNS, seed: int = 0
    ) -> "ProfileRunner":
        """Build a runner from device and library names."""

        return cls(
            device=DEVICES.get(device),
            library=LIBRARIES.create(library),
            runs=runs,
            seed=seed,
        )

    @classmethod
    def for_target(
        cls,
        target: "Target",
        store: Optional["ProfileStore"] = None,
        seed: int = 0,
    ) -> "ProfileRunner":
        """Build a runner for a :class:`repro.api.Target`."""

        return cls(
            device=target.device_spec,
            library=target.create_library(),
            runs=target.runs,
            store=store,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _layer_key(layer: ConvLayerSpec) -> str:
        """The layer half of a cache key ``(layer key, channel count)``."""

        return (
            f"{layer.name}|{layer.in_channels}|{layer.kernel_size}|{layer.stride}|"
            f"{layer.padding}|{layer.input_hw}"
        )

    def measure(self, layer: ConvLayerSpec, out_channels: Optional[int] = None) -> Measurement:
        """Median latency of a layer pruned to ``out_channels`` filters."""

        channels = layer.out_channels if out_channels is None else out_channels
        with self._lock:
            cached = self._cache.get((self._layer_key(layer), channels))
            if cached is not None:
                return cached
            return self.measure_many(layer, [channels])[0]

    def measure_many(
        self, layer: ConvLayerSpec, channel_counts: Iterable[int]
    ) -> List[Measurement]:
        """Measure the layer at each channel count in one batched pass.

        The returned list is aligned with ``channel_counts`` (duplicates
        included).  Counts already in the in-memory cache or the
        attached profile store are served from there; only the rest is
        simulated — in a single vectorized
        :func:`~repro.gpusim.batch.simulate_batch` call.
        """

        requested = [int(count) for count in channel_counts]
        for count in requested:
            if count < 1:
                raise ValueError(f"out_channels must be >= 1, got {count}")
        with self._lock:
            # Resolve against a local view so results survive even when
            # the bounded cache evicts entries of this very sweep.
            resolved: Dict[int, Measurement] = {}
            missing = []
            key = self._layer_key(layer)
            for count in dict.fromkeys(requested):
                cached = self._cache.get((key, count))
                if cached is not None:
                    resolved[count] = cached
                else:
                    missing.append(count)
            if missing and self.store is not None:
                stored, missing = self.store.lookup(
                    self.device.name, self.library.name, self.runs, layer, missing,
                    seed=self.seed,
                )
                resolved.update(stored)
                self._remember(key, stored.items())
            if missing:
                fresh = self._measure_batch(layer, missing)
                resolved.update(zip(missing, fresh))
                self._remember(key, zip(missing, fresh))
                if self.store is not None:
                    self.store.record(
                        self.device.name, self.library.name, self.runs, layer, fresh,
                        seed=self.seed,
                    )
            return [resolved[count] for count in requested]

    def _remember(self, key: str, measurements: Iterable[Tuple[int, Measurement]]) -> None:
        """Cache ``(count, measurement)`` pairs of one layer, evicting the oldest."""

        self._cache.update(((key, count), measurement) for count, measurement in measurements)
        if self.max_cache_entries is not None:
            while len(self._cache) > self.max_cache_entries:
                self._cache.popitem(last=False)

    def _measure_batch(
        self, layer: ConvLayerSpec, channel_counts: List[int]
    ) -> List[Measurement]:
        """Simulate the given channel counts of one layer in one vectorized pass.

        Per-configuration times are bitwise identical however counts are
        grouped into batches: the cost model is elementwise over kernels
        and the noise stream is counter-based per configuration.
        """

        batch = self.library.plan_counts(layer, channel_counts, self.device)
        prefix = noise_prefix(self.device, self.library.name, layer.name)
        noise = noise_matrix(
            [prefix + notes for notes in batch.notes], self.runs, seed=self.seed
        )
        times_ms = simulate_batch(batch, self.device).total_time_ms[:, np.newaxis] * noise
        medians = np.median(times_ms, axis=1).tolist()
        minima = times_ms.min(axis=1).tolist()
        maxima = times_ms.max(axis=1).tolist()
        self.simulations += len(batch)
        _SIMULATIONS.inc(len(batch), device=self.device.name, library=self.library.name)
        _BATCH_SIZE.observe(len(batch))
        measurements = []
        for count, median, minimum, maximum, jobs in zip(
            channel_counts, medians, minima, maxima, batch.job_counts.tolist()
        ):
            check_measurement(layer.name, count, median, minimum, maximum, self.runs)
            measurements.append(checked_measurement(
                layer.name, count, self.device.name, self.library.name,
                median, minimum, maximum, self.runs, jobs,
            ))
        return measurements

    # ------------------------------------------------------------------
    # Executor support: cross-process adoption
    # ------------------------------------------------------------------
    def pending_counts(self, layer: ConvLayerSpec, channel_counts: Iterable[int]) -> List[int]:
        """Channel counts not served by the cache or the attached store.

        Store hits found along the way are pulled into the in-memory
        cache, so a subsequent :meth:`measure_many` over the same counts
        touches the simulator only for the returned ones.
        """

        with self._lock:
            key = self._layer_key(layer)
            missing = [
                count
                for count in dict.fromkeys(int(count) for count in channel_counts)
                if self._cache.get((key, count)) is None
            ]
            if missing and self.store is not None:
                stored, missing = self.store.lookup(
                    self.device.name, self.library.name, self.runs, layer, missing,
                    seed=self.seed,
                )
                self._remember(key, stored.items())
            return missing

    def adopt(self, layer: ConvLayerSpec, measurements: Iterable[Measurement]) -> int:
        """Inject measurements made elsewhere (e.g. a worker process).

        Already-cached configurations are ignored; fresh ones enter the
        in-memory cache and, when a store is attached, are persisted as
        if this runner had measured them.  Returns the number adopted.
        """

        with self._lock:
            key = self._layer_key(layer)
            fresh = [
                measurement
                for measurement in measurements
                if self._cache.get((key, measurement.out_channels)) is None
            ]
            self._remember(key, ((m.out_channels, m) for m in fresh))
            if fresh and self.store is not None:
                self.store.record(
                    self.device.name, self.library.name, self.runs, layer, fresh,
                    seed=self.seed,
                )
            return len(fresh)

    # ------------------------------------------------------------------
    def measure_channels(
        self, layer: ConvLayerSpec, channel_counts: List[int]
    ) -> List[Measurement]:
        """Measure the layer at each of the given channel counts."""

        return self.measure_many(layer, channel_counts)

    def sweep(
        self,
        layer: ConvLayerSpec,
        min_channels: int = 1,
        max_channels: Optional[int] = None,
        step: int = 1,
    ) -> List[Measurement]:
        """Measure a full channel sweep (the staircase figures)."""

        upper = layer.out_channels if max_channels is None else max_channels
        if upper > layer.out_channels:
            raise ValueError(
                f"cannot sweep beyond the layer's {layer.out_channels} channels"
            )
        counts = list(range(min_channels, upper + 1, step))
        if counts and counts[-1] != upper:
            counts.append(upper)
        return self.measure_many(layer, counts)

    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)
