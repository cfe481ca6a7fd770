"""Measurement runner: median-of-N latency measurements per configuration.

``ProfileRunner`` is the reproduction of the paper's measurement
protocol (Section III-D): for each (device, library, layer, channel
count) configuration, run the layer several times and report the median.

A layer's channel sweep is one :class:`Sweep`: the constants (layer,
device, library, runs) once and parallel NumPy columns of counts,
median/min/max times and job counts.  :meth:`ProfileRunner.measure_layers`
is the one measurement path: it takes several layers, each with its
channel counts, plans each layer's missing counts with one
``plan_counts`` call (a :class:`~repro.gpusim.batch.KernelBatch` of flat
arrays) and costs them with one vectorized
:func:`~repro.gpusim.batch.simulate_batch` call, then draws the
repetition noise, reduces the runs and checks the times once over every
layer's configurations, so no per-configuration object is built.  :meth:`ProfileRunner.measure_many`
is its one-layer case, and :class:`Measurement` is the view of one
configuration (``sweep[i]``, :meth:`ProfileRunner.measure`).  Sweeps are
memoised in-process, one per layer, and — when a
:class:`~repro.profiling.store.ProfileStore` is attached — persisted
across processes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from typing import TYPE_CHECKING

import numpy as np

from ..gpusim.batch import simulate_batch
from ..gpusim.device import DEVICES, DeviceSpec
from ..libraries.base import LIBRARIES, ConvolutionLibrary
from ..models.layers import ConvLayerSpec
from ..obs.metrics import COUNT_BUCKETS, default_registry
from .noise import noise_matrix, noise_prefix

_SIMULATIONS = default_registry().counter(
    "repro_profile_simulations_total",
    "Configurations that actually hit the simulator (cache/store hits excluded).",
    labelnames=("device", "library"),
)
_BATCH_SIZE = default_registry().histogram(
    "repro_profile_batch_size",
    "Configurations simulated per runner measurement batch (all its layers).",
    buckets=COUNT_BUCKETS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.target import Target
    from .store import ProfileStore

#: Number of repetitions per configuration (the paper reports the median
#: of 10 runs).
DEFAULT_RUNS = 10

#: Default bound on memoised configurations per runner.  A cached sweep
#: costs about 40 bytes per configuration (five 8-byte columns), so this
#: caps a runner's cache at a few megabytes while holding far more
#: configurations than the full model zoo sweeps need.
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

    The rules for one configuration; :func:`check_sweep` applies the
    same rules to a whole sweep as array comparisons.
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


#: The varying fields of a sweep, as :meth:`Sweep.as_columns` names them.
_COLUMNS = ("out_channels", "median_time_ms", "min_time_ms", "max_time_ms", "job_count")
_CONSTANTS = ("layer_name", "device_name", "library_name", "runs")
_measurement_values = attrgetter(*Measurement.__dataclass_fields__)
_STR, _INT, _FLOAT = {str}, {int}, {float}


def count_array(channel_counts: Iterable[int]) -> np.ndarray:
    """Channel counts as a flat int64 array (an int64 array passes uncopied)."""

    if isinstance(channel_counts, np.ndarray):
        return channel_counts.astype(np.int64, copy=False).reshape(-1)
    return np.fromiter(channel_counts, np.int64)


def distinct_counts(channel_counts: Iterable[int]) -> np.ndarray:
    """Channel counts as an ascending int64 array without repeats.

    Sort-based: ``np.unique`` takes a slower hash path for integers.
    """

    counts = np.sort(count_array(channel_counts))
    return np.concatenate((counts[:1], counts[1:][counts[1:] != counts[:-1]]))


def _joined(arrays: List[np.ndarray]) -> np.ndarray:
    """The arrays end to end; the array itself when there is one."""

    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _column_arrays(counts, median, minimum, maximum, job_count) -> Tuple[np.ndarray, ...]:
    """A sweep's columns from sequences: int64 counts and job counts, float64 times."""

    times = (np.array(column, dtype=np.float64) for column in (median, minimum, maximum))
    return (np.array(counts, dtype=np.int64), *times, np.array(job_count, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Sweep:
    """Measurements of one layer on one target, as parallel columns.

    The constants (``layer_name``, ``device_name``, ``library_name``,
    ``runs``) hold for every entry; ``counts`` and ``job_count`` are
    int64 arrays and ``median``/``minimum``/``maximum`` float64 arrays
    of times in ms, one element per entry.  ``sweep[i]`` is entry ``i``
    as a :class:`Measurement`, and iterating yields every entry so.  A
    count may repeat; its last entry is the one that counts.  :meth:`of`
    and :meth:`concat` refuse measurements that mix constants or whose
    values do not have their column's type, so a sweep is one layer on
    one target by construction.
    """

    layer_name: Optional[str]
    device_name: Optional[str]
    library_name: Optional[str]
    runs: Optional[int]
    counts: np.ndarray
    median: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    job_count: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index: int) -> Measurement:
        return Measurement(
            self.layer_name, int(self.counts[index]), self.device_name, self.library_name,
            float(self.median[index]), float(self.minimum[index]),
            float(self.maximum[index]), self.runs, int(self.job_count[index]),
        )

    def __iter__(self) -> Iterator[Measurement]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sweep):
            return NotImplemented
        return list(self) == list(other)

    @property
    def constants(self) -> Tuple[Optional[str], Optional[str], Optional[str], Optional[int]]:
        return (self.layer_name, self.device_name, self.library_name, self.runs)

    @property
    def columns(self) -> Tuple[np.ndarray, ...]:
        """``(counts, median, minimum, maximum, job_count)``."""

        return (self.counts, self.median, self.minimum, self.maximum, self.job_count)

    def expect(self, *constants: Any) -> "Sweep":
        """This sweep, unless it is non-empty and its :attr:`constants`
        are not ``constants`` (:class:`MeasurementError`)."""

        if len(self) and self.constants != constants:
            raise MeasurementError(f"measurements of {self.constants}, {constants} was expected")
        return self

    def at(self, count: int) -> Measurement:
        """The measurement of ``count`` (its last entry); ``KeyError`` if absent."""

        positions = np.flatnonzero(self.counts == count)
        if not positions.size:
            raise KeyError(count)
        return self[positions[-1]]

    def take(self, positions: np.ndarray) -> "Sweep":
        """The entries at ``positions`` (non-negative indices), in that order."""

        return Sweep(*self.constants, *(column[positions] for column in self.columns))

    def _positions(self, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(where each count's entry is; whether it is held), for a
        non-empty sweep in ascending count order with one entry per count."""

        positions = np.searchsorted(self.counts, counts)
        return positions, self.counts[np.minimum(positions, len(self) - 1)] == counts

    def select(self, counts: np.ndarray) -> Tuple["Sweep", np.ndarray]:
        """(the entries at ``counts``, in their order; the counts not held).

        For a sweep in ascending count order with one entry per count.
        """

        if not len(self):
            return self, counts
        positions, held = self._positions(counts)
        return self.take(positions[held]), counts[~held]

    def lacks(self, counts: np.ndarray) -> np.ndarray:
        """The ``counts`` not held, as :meth:`select` finds them, with no copy of the entries."""

        return counts[~self._positions(counts)[1]] if len(self) else counts

    def sorted(self) -> "Sweep":
        """The entries in ascending count order, one per count (the last).

        A sweep already in that order is returned as it is.
        """

        if (self.counts[1:] > self.counts[:-1]).all():
            return self
        order = np.argsort(self.counts, kind="stable")
        counts = self.counts[order]
        last = np.ones(len(counts), dtype=bool)
        last[:-1] = counts[1:] != counts[:-1]
        return self.take(order[last])

    @classmethod
    def concat(cls, parts: Iterable["Sweep"]) -> "Sweep":
        """The entries of ``parts`` in order.

        Raises :class:`MeasurementError` unless every non-empty part has
        the same constants.
        """

        parts = [part for part in parts if len(part)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return _EMPTY
        constants = parts[0].constants
        for part in parts[1:]:
            part.expect(*constants)
        return cls(*constants, *map(np.concatenate, zip(*(part.columns for part in parts))))

    @classmethod
    def of(cls, measurements: Iterable[Measurement]) -> "Sweep":
        """Measurements of one layer on one target as one sweep, in order.

        Raises :class:`MeasurementError` if they mix constants, or if a
        field does not have its column's type (``str`` names, ``int``
        counts, runs and job counts, ``float`` times).
        """

        rows = list(map(_measurement_values, measurements))
        if not rows:
            return cls(None, None, None, None, *_column_arrays((), (), (), (), ()))
        layer, counts, device, library, median, minimum, maximum, runs, jobs = zip(*rows)
        _check_types(layer[0], (*layer, *device, *library), (*counts, *runs, *jobs),
                     (*median, *minimum, *maximum))
        if len({*zip(layer, device, library, runs)}) > 1:
            raise MeasurementError(f"{layer[0]}: measurements of several layers or targets")
        return cls(
            layer[0], device[0], library[0], runs[0],
            *_column_arrays(counts, median, minimum, maximum, jobs),
        )

    def as_columns(self) -> Dict[str, Any]:
        """JSON-ready form: the constants once and five parallel lists.

        The lists hold Python ``int`` counts and job counts and ``float``
        times (``tolist``, so every value is written exactly).  The
        empty ``strays`` list keeps the line form older readers expect.
        """

        return {
            **dict(zip(_CONSTANTS, self.constants)),
            **{name: column.tolist() for name, column in zip(_COLUMNS, self.columns)},
            "strays": [],
        }

    @classmethod
    def from_columns(cls, payload: Mapping[str, Any]) -> "Sweep":
        """The sweep :meth:`as_columns` wrote, checked.

        Raises ``KeyError``, ``TypeError`` or ``ValueError`` (including
        :class:`MeasurementError`) unless the lists are equally long
        lists of ``int`` counts and job counts and ``float`` times under
        ``str`` names and an ``int`` run count, ``strays`` is empty, and
        every entry passes :func:`check_sweep`.
        """

        columns = [payload[name] for name in _COLUMNS]
        constants = tuple(payload[name] for name in _CONSTANTS)
        if payload["strays"] != []:
            raise MeasurementError("a sweep holds one layer on one target: no strays")
        if {*map(type, columns)} != {list}:
            raise TypeError("columns must be lists")
        counts, median, minimum, maximum, job_count = columns
        size = len(counts)
        if not len(median) == len(minimum) == len(maximum) == len(job_count) == size:
            raise ValueError("column lengths differ")
        if size:
            _check_types(constants[0], constants[:3], (constants[3], *counts, *job_count),
                         (*median, *minimum, *maximum))
        sweep = cls(*constants, *_column_arrays(*columns))
        check_sweep(sweep)
        return sweep


def _check_types(layer: Any, names: Iterable[Any], ints: Iterable[Any], floats: Iterable[Any]) -> None:
    """Raise :class:`MeasurementError` unless ``names`` are ``str``,
    ``ints`` ``int`` and ``floats`` ``float`` (no ``bool``, no NumPy scalar)."""

    types = ({*map(type, names)}, {*map(type, ints)}, {*map(type, floats)})
    if types != (_STR, _INT, _FLOAT):
        raise MeasurementError(f"{layer}: a value does not have its column's type")


#: A sweep of no configurations: what a layer not measured yet has cached.
_EMPTY = Sweep.of(())


def _valid_times(median: np.ndarray, minimum: np.ndarray, maximum: np.ndarray) -> np.ndarray:
    """Per entry: positive minimum and ``minimum <= median <= maximum`` (NaN fails)."""

    return (minimum > 0) & (minimum <= median) & (median <= maximum)


def check_sweep(sweep: Sweep) -> None:
    """Raise :class:`MeasurementError` unless every entry is a valid measurement.

    :func:`check_measurement` as whole-column comparisons, run once per
    sweep; NaN fails them.
    """

    if not len(sweep):
        return
    if sweep.runs < 1:
        raise MeasurementError(
            f"{sweep.layer_name}: a measurement needs at least one run, got {sweep.runs}"
        )
    minimum, median, maximum = sweep.minimum, sweep.median, sweep.maximum
    valid = _valid_times(median, minimum, maximum)
    if not valid.all():
        bad = np.flatnonzero(~valid)[0]
        raise MeasurementError(
            f"{sweep.layer_name} at {sweep.counts[bad]} channels: non-positive or "
            f"inconsistent run times (min={minimum[bad]}, median={median[bad]}, "
            f"max={maximum[bad]})"
        )


@dataclass
class ProfileRunner:
    """Measure layer latencies on a (device, library) pair with caching.

    ``store`` optionally backs the in-memory cache with a persistent
    :class:`~repro.profiling.store.ProfileStore`; ``simulations`` counts
    the configurations that actually hit the simulator (cache and store
    hits do not).  The cache holds one sorted :class:`Sweep` per layer
    and at most ``max_cache_entries`` configurations across them: whole
    sweeps are evicted, least recently extended first (pass ``None``
    for unbounded), so a long-lived runner cannot grow without limit.
    A sweep enters the cache only once the attached store has recorded
    it, so a failed append is retried, not served.

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
    _cache: "OrderedDict[Tuple[object, ...], Sweep]" = field(default_factory=OrderedDict, repr=False)
    #: Configurations across the cached sweeps.
    _cached: int = field(default=0, repr=False)
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
    def _layer_key(layer: ConvLayerSpec) -> Tuple[object, ...]:
        """The cache key of a layer's sweep: every spec field but ``out_channels``.

        ``out_channels`` is the swept quantity: a 64-filter spec measured
        at 32 filters is the 32-filter spec.
        """

        return (
            layer.name, layer.in_channels, layer.kernel_size, layer.stride,
            layer.padding, layer.input_hw, layer.groups, layer.bias,
        )

    def measure(self, layer: ConvLayerSpec, out_channels: Optional[int] = None) -> Measurement:
        """Median latency of a layer pruned to ``out_channels`` filters."""

        channels = layer.out_channels if out_channels is None else out_channels
        with self._lock:
            cached = self._cache.get(self._layer_key(layer), _EMPTY)
            if channels in cached.counts:
                return cached.at(channels)
            return self.measure_many(layer, [channels])[0]

    def measure_many(self, layer: ConvLayerSpec, channel_counts: Iterable[int]) -> Sweep:
        """Measure the layer at each channel count in one batched pass.

        The returned sweep is aligned with ``channel_counts`` (duplicates
        included): :meth:`measure_layers` for one layer.
        """

        return self.measure_layers([(layer, channel_counts)])[0]

    def measure_layers(
        self, requests: Iterable[Tuple[ConvLayerSpec, Iterable[int]]]
    ) -> List[Sweep]:
        """Measure several layers, each at its channel counts, as one batch.

        Returns one sweep per ``(layer, channel_counts)`` request, each
        aligned with its counts (duplicates included).  Counts already
        in the in-memory cache or the attached profile store are served
        from there; the rest of every layer is simulated in one pass: a
        ``plan_counts`` and :func:`~repro.gpusim.batch.simulate_batch`
        call per layer, then one noise draw, one median/min/max and one
        check over all their configurations.  A layer requested twice is
        measured once, at the union of its counts.  The results are
        bitwise those of measuring each layer alone, and the store gets
        the fresh sweeps in layer order, as separate calls would record
        them.
        """

        keyed = []
        for layer, counts in requests:
            counts = count_array(counts)
            if counts.size and counts.min() < 1:
                raise ValueError(f"out_channels must be >= 1, got {counts[counts < 1][0]}")
            keyed.append((self._layer_key(layer), layer, counts))
        with self._lock:
            wanted: Dict[Tuple[object, ...], Tuple[ConvLayerSpec, List[np.ndarray]]] = {}
            for key, layer, counts in keyed:
                if counts.size:
                    wanted.setdefault(key, (layer, []))[1].append(counts)
            sweeps: Dict[Tuple[object, ...], Sweep] = {}
            pending = []
            for key, (layer, parts) in wanted.items():
                cached = self._cache.get(key, _EMPTY)
                missing = cached.lacks(_joined(parts))
                if missing.size:
                    stored, missing = self._stored(layer, distinct_counts(missing))
                    pending.append((key, layer, [cached, stored], missing))
                else:
                    sweeps[key] = cached
            work = [(layer, missing) for _, layer, _, missing in pending if missing.size]
            fresh = iter(self._simulate(work) if work else ())
            for key, layer, known, missing in pending:
                # Kept here, so each result survives the others' evictions.
                sweeps[key] = self._remember(layer, known, next(fresh) if missing.size else _EMPTY)
            return [
                sweeps[key].take(np.searchsorted(sweeps[key].counts, counts))
                if counts.size else _EMPTY
                for key, _, counts in keyed
            ]

    def _stored(
        self, layer: ConvLayerSpec, counts: np.ndarray
    ) -> Tuple[Sweep, np.ndarray]:
        """(the attached store's sweep of ``counts``; the counts it lacks)."""

        if self.store is None:
            return _EMPTY, counts
        found, missing = self.store.lookup(
            self.device.name, self.library.name, self.runs, layer, counts, seed=self.seed,
        )
        return found, np.array(missing, dtype=np.int64)

    def _remember(self, layer: ConvLayerSpec, known: List[Sweep], fresh: Sweep = _EMPTY) -> Sweep:
        """Cache ``known`` and ``fresh`` (disjoint) as the layer's sorted sweep.

        ``fresh`` is recorded to the attached store first, so a failed
        append leaves nothing cached that the store lacks.  Whole sweeps
        are evicted, least recently extended first.
        """

        if len(fresh) and self.store is not None:
            self.store.record(
                self.device.name, self.library.name, self.runs, layer, fresh, seed=self.seed,
            )
        sweep = Sweep.concat([*known, fresh]).sorted().expect(
            layer.name, self.device.name, self.library.name, self.runs
        )
        key = self._layer_key(layer)
        previous = self._cache.pop(key, _EMPTY)
        self._cache[key] = sweep
        self._cached += len(sweep) - len(previous)
        if self.max_cache_entries is not None:
            while self._cached > self.max_cache_entries:
                _, evicted = self._cache.popitem(last=False)
                self._cached -= len(evicted)
        return sweep

    def _simulate(self, work: List[Tuple[ConvLayerSpec, np.ndarray]]) -> List[Sweep]:
        """One fresh sweep per ``(layer, distinct counts)`` pair (at least one
        pair, none empty), simulated together.

        Each layer is planned and costed on its own; the noise is one
        draw over every layer's note table (its indices offset per
        layer) and the times are reduced and checked once.
        Per-configuration times are bitwise identical however counts are
        grouped into batches: the cost model is elementwise over kernels
        and the noise stream is counter-based per configuration.
        """

        totals, jobs, materials, index = [], [], [], []
        for layer, counts in work:
            batch = self.library.plan_counts(layer, counts, self.device)
            prefix = noise_prefix(self.device, self.library.name, layer.name)
            index.append(batch.note_index + len(materials))
            materials += [prefix + note for note in batch.note_table]
            totals.append(simulate_batch(batch, self.device).total_time_ms)
            jobs.append(batch.job_counts)
        noise = noise_matrix(materials, self.runs, seed=self.seed, index=_joined(index))
        times_ms = _joined(totals)[:, np.newaxis] * noise
        columns = (
            _joined([counts for _, counts in work]), np.median(times_ms, axis=1),
            times_ms.min(axis=1), times_ms.max(axis=1),
            _joined(jobs).astype(np.int64, copy=False),
        )
        self.simulations += len(times_ms)
        _SIMULATIONS.inc(len(times_ms), device=self.device.name, library=self.library.name)
        _BATCH_SIZE.observe(len(times_ms))
        sweeps, stop = [], 0
        for layer, counts in work:
            start, stop = stop, stop + len(counts)
            sweeps.append(Sweep(
                layer.name, self.device.name, self.library.name, self.runs,
                *(column[start:stop] for column in columns),
            ))
        if not _valid_times(*columns[1:4]).all():
            for sweep in sweeps:
                check_sweep(sweep)  # raises, naming the first bad layer
        return sweeps

    # ------------------------------------------------------------------
    def sweep(
        self,
        layer: ConvLayerSpec,
        min_channels: int = 1,
        max_channels: Optional[int] = None,
        step: int = 1,
    ) -> Sweep:
        """Measure a full channel sweep (the staircase figures)."""

        from .latency_table import sweep_counts  # latency_table imports this module

        upper = layer.out_channels if max_channels is None else max_channels
        if upper > layer.out_channels:
            raise ValueError(
                f"cannot sweep beyond the layer's {layer.out_channels} channels"
            )
        return self.measure_many(layer, sweep_counts(upper, step=step, start=min_channels))

    def cache_size(self) -> int:
        """Configurations held in the cache."""

        with self._lock:
            return self._cached
