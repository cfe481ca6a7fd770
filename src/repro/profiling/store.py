"""Persistent on-disk profile store: measurements that outlive the process.

Every profile used to die with the Python process, so each CLI
invocation and every experiment script re-simulated thousands of
(device, library, layer, channel count) configurations from scratch.
:class:`ProfileStore` persists measured sweeps
(:class:`~repro.profiling.runner.Sweep`) to a directory of JSON-lines
shards so that repeated
invocations reuse them: a :class:`~repro.api.Session` built with
``store=PATH`` (or the ``repro-experiments --profile-store PATH`` flag)
reads existing measurements before touching the simulator and appends
whatever it had to measure fresh.

Layout
------
``PATH`` is a *directory* holding one JSONL shard per ``(device,
library)`` pair plus a ``_store.json`` marker::

    PATH/
      _store.json                      # {"layout": "sharded", ...}
      mali-g72__acl-gemm--5f0c1a2b.jsonl
      jetson-tx2__cudnn--91d24c03.jsonl

Shard file names are ``slug(device)__slug(library)--digest8.jsonl``;
the digest keys the exact ``(device, library)`` pair so two targets
whose slugs collide still get distinct shards.  Opening a missing path
creates the directory and its marker, and an empty directory is
adopted; a non-empty directory without the marker is rejected loudly.

The in-memory read-through tier loads **one shard per first touch** of
a ``(device, library)`` target instead of parsing the whole store,
appends land on the shard's own file (writers on different targets
never contend on one ``flock``/inode), and ``compact()`` rewrites each
shard independently.

Resident index
--------------
A store object is meant to live long (the service keeps one for all of
its jobs), so after the first load it never re-parses a shard.  Each
loaded shard keeps a cursor ``(st_dev, st_ino, bytes consumed)``; every
lookup ``fstat``s the shard file and parses only the complete lines
appended since, by this object or any other process.  A new inode or a
shorter file means a compaction happened elsewhere, and the shard's
index is rebuilt from scratch.  A final line still missing its
newline (an append in flight, or a crash mid-append) is left for a later
lookup.  So a long-lived object sees every complete line on disk at each
lookup, exactly like a freshly opened one.

The index is columnar: each group is one
:class:`~repro.profiling.runner.Sweep` in ascending count order, five
NumPy columns, about 40 bytes per entry.  A line parses into a sweep,
checked whole-column by :meth:`~repro.profiling.runner.Sweep.from_columns`,
and is merged into its group, last writer wins.
:meth:`ProfileStore.lookup` answers with a :class:`Sweep` sliced from
the group's columns at the requested counts, and
:meth:`ProfileStore.record` takes one, so neither path builds an object
per entry.  A group is one layer on one target: a line whose
measurements name another layer, target or run count than its key is
skipped and counted like any other bad line.

A profile store is a cache: every measurement is the median of
repeated runs of a deterministic configuration, so a line this build
cannot read is re-measured to the same value.  A path that is a regular
file (the layout before store directories) is refused with a
:class:`ProfileStoreError`; move it aside and the store re-measures.

File format
-----------
One JSON object per line, append-only.  Each line records one measured
sweep under its grouping key, in columns::

    {"v": 2, "device": "mali-g72", "library": "acl-gemm", "runs": 3,
     "seed": 0, "spec": {...layer spec fields...}, "spec_hash": "4f0c...",
     "measurements": {
       "layer_name": "resnet50.conv16", "device_name": "mali-g72",
       "library_name": "acl-gemm", "runs": 3,
       "out_channels": [1, 2, ...], "median_time_ms": [0.61, 0.62, ...],
       "min_time_ms": [...], "max_time_ms": [...], "job_count": [...],
       "strays": []}}

* ``measurements`` is :meth:`Sweep.as_columns`: the constants once and
  the varying fields as parallel lists of JSON numbers (``int`` counts
  and job counts, ``float`` times).  The constants are the line's spec
  ``name``, ``device``, ``library`` and ``runs``.  ``strays`` is always
  written empty (older builds kept measurements that did not fit the
  columns there); a line with a non-empty ``strays`` list is skipped.
* ``v`` is :data:`STORE_VERSION`.  Lines of any other version (the
  row-form version 1 included, or a build with a different
  measurement model) are skipped and counted on load — stale entries
  invalidate themselves and are simply re-measured and re-appended;
  :meth:`ProfileStore.compact` drops them.
* The grouping key is ``(device, library, runs, seed, spec_hash)``
  where ``spec_hash`` fingerprints every latency-relevant layer-spec
  field *except* ``out_channels`` (the swept quantity) and ``seed`` is
  the measurement-noise stream seed (absent means 0, the historical
  stream), so differently-seeded sessions sharing one file never serve
  each other's perturbations.
* Lines that fail to parse are skipped and counted (a truncated final
  line from a killed process does not poison the store; the next append
  starts on a fresh line instead of being glued onto it).

Multi-thread and multi-process safety
-------------------------------------
Within one process, every index read/mutation happens under an internal
lock, so one store object may serve concurrent threads (the service's
job workers share one) without lost updates or torn counters.  Across processes:

Appends happen as a single :func:`write` of the whole line under an
advisory ``flock`` (where the platform provides one), so two processes
recording into the same shard cannot interleave partial lines.  After
acquiring the lock — and on platforms *without* ``flock`` too — the
handle's inode is re-checked against the path, closing the window where
a concurrent :meth:`compact`'s :func:`os.replace` orphaned the open
file and a write there would be silently lost.  Reads never lock: a
torn or foreign line is simply skipped.  Later records of the same
configuration supersede earlier ones on load (last wins);
:meth:`compact` rewrites each shard atomically with one line per group,
dropping superseded duplicates.

Observability
-------------
The module-level metrics (``repro_store_appends_total``,
``repro_store_reloads_total``, ``repro_store_skipped_lines_total``,
``repro_store_compactions_total`` and the ``repro_store_file_bytes``
gauge) are labeled by ``store`` (the store path) and ``shard``, so
several store objects in one process — the service's resident store
next to a script's own, parallel tests — report into distinct series instead of clobbering one
process-wide value.  ``repro_store_reloads_total`` counts full parses
of a shard (first touch, or a rebuild after a foreign compaction);
catching up on appended lines does not count.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import re
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

try:  # pragma: no cover - platform-dependent
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..models.layers import ConvLayerSpec
from ..obs.metrics import default_registry
from .runner import Sweep, count_array

_STORE_APPENDS = default_registry().counter(
    "repro_store_appends_total",
    "Sweep records appended to a profile store shard.",
    labelnames=("store", "shard"),
)
_STORE_RELOADS = default_registry().counter(
    "repro_store_reloads_total",
    "Shard loads into a store's in-memory read-through index.",
    labelnames=("store", "shard"),
)
_STORE_SKIPPED = default_registry().counter(
    "repro_store_skipped_lines_total",
    "Unreadable, torn or other-version lines skipped while loading a shard.",
    labelnames=("store", "shard"),
)
_STORE_COMPACTIONS = default_registry().counter(
    "repro_store_compactions_total",
    "Atomic compact() rewrites of a profile store shard.",
    labelnames=("store", "shard"),
)
_STORE_FILE_BYTES = default_registry().gauge(
    "repro_store_file_bytes",
    "Size of a profile store shard after the most recent append/compact.",
    labelnames=("store", "shard"),
)

#: Bump whenever the measurement model changes (simulator cost formulas,
#: noise model, Measurement schema): old lines are skipped on load.
#: Version 2 is the columnar line.
STORE_VERSION = 2

#: Marker file distinguishing a store directory from an arbitrary
#: directory (which is still rejected).
STORE_MARKER = "_store.json"

_GroupKey = Tuple[str, str, int, int, str]

_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")


class ProfileStoreError(ValueError):
    """Raised for unusable store paths or malformed store operations."""


@functools.lru_cache(maxsize=4096)
def layer_spec_fingerprint(spec: ConvLayerSpec) -> str:
    """Stable hash of the latency-relevant spec fields, minus ``out_channels``.

    ``out_channels`` is the swept quantity — measurements at different
    channel counts of the same base layer share one group.  Memoised on
    the frozen spec: every store lookup and record asks for it.
    """

    payload = spec.as_dict()
    del payload["out_channels"]
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def shard_id_for(device: str, library: str) -> str:
    """The shard a ``(device, library)`` pair's records live in.

    Human-readable slugs plus an 8-hex digest of the exact pair, so
    targets whose slugs collide still map to distinct shards.
    """

    digest = hashlib.sha256(
        json.dumps([device, library]).encode("utf-8")
    ).hexdigest()[:8]
    device_slug = _SLUG_RE.sub("_", device) or "_"
    library_slug = _SLUG_RE.sub("_", library) or "_"
    return f"{device_slug}__{library_slug}--{digest}"


#: What a line that is not a valid record raises while being parsed.
_UNREADABLE = (ValueError, KeyError, TypeError, AttributeError, OverflowError)


def _parse_line(line: bytes) -> Tuple[dict, _GroupKey, Sweep]:
    """One store line as (payload, group key, its checked sweep).

    Raises one of :data:`_UNREADABLE` for a line to skip: not JSON, not
    a record, a version other than :data:`STORE_VERSION`, a missing or
    malformed column, any entry :meth:`Sweep.from_columns` would reject,
    or measurements of another layer or target than the line's key.
    One bad entry skips its whole line.
    """

    payload = json.loads(line)
    if payload.get("v") != STORE_VERSION:
        raise ValueError("incompatible store version")
    key = (
        payload["device"],
        payload["library"],
        int(payload["runs"]),
        int(payload.get("seed", 0)),
        payload["spec_hash"],
    )
    sweep = Sweep.from_columns(payload["measurements"])
    sweep.expect(payload["spec"]["name"], *key[:3])
    return payload, key, sweep


#: Group key -> the group's sweep: ascending counts, one entry per count.
_Index = Dict[_GroupKey, Sweep]


def _fill(index: _Index, key: _GroupKey, sweep: Sweep) -> int:
    """Merge one line's checked sweep into its group, last writer wins.

    Returns the number of counts the group did not hold before.  Raises
    :class:`MeasurementError`, leaving the group as it was, if the
    sweep's constants are not the group's.
    """

    if not len(sweep):
        return 0
    group = index.get(key) or Sweep.of(())
    merged = index[key] = Sweep.concat([group, sweep]).sorted()
    return len(merged) - len(group)


def _line(key: _GroupKey, spec: Any, sweep: Sweep) -> str:
    """One columnar store line (with its newline) for ``sweep`` under ``key``."""

    return json.dumps({
        "v": STORE_VERSION,
        "device": key[0],
        "library": key[1],
        "runs": key[2],
        "seed": key[3],
        "spec": spec,
        "spec_hash": key[4],
        "measurements": sweep.as_columns(),
    }) + "\n"


def _open_locked(path: Path, open_append: Callable[[Path], Any]):
    """Open ``path`` with ``open_append`` under an advisory exclusive lock.

    After acquiring the lock the handle's inode is re-checked against
    the path: a concurrent compaction may have :func:`os.replace`'d the
    file while this writer was blocked, in which case the lock was won
    on the orphaned old inode and a write there would be lost.  On
    mismatch, reopen and retry.  The re-check runs even where ``fcntl``
    is unavailable: without it the window between open and write is
    merely narrowed, not closed, but an append can no longer land on a
    file that was already orphaned when the handle was opened.
    """

    while True:
        handle = open_append(path)
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            current = os.stat(path)
        except FileNotFoundError:
            fresh = False
        else:
            held = os.fstat(handle.fileno())
            fresh = (held.st_ino, held.st_dev) == (current.st_ino, current.st_dev)
        if fresh:
            return handle
        _unlock_and_close(handle)


def _unlock_and_close(handle) -> None:
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    handle.close()


def _write_marker(directory: Path) -> None:
    """Atomically write a store directory's ``_store.json`` marker."""

    payload = json.dumps(
        {"layout": "sharded", "store_version": STORE_VERSION}, sort_keys=True
    )
    fd, tmp_name = tempfile.mkstemp(prefix=STORE_MARKER + ".", dir=str(directory))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as tmp:
            tmp.write(payload + "\n")
        os.replace(tmp_name, directory / STORE_MARKER)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ProfileStore:
    """Append-only JSONL store of measurements, indexed in memory.

    ``path`` is a store directory, created with its ``_store.json``
    marker if missing.  An empty directory is adopted; a non-empty one
    without the marker, or a regular file, is refused with a
    :class:`ProfileStoreError`.  ``layout`` only accepts ``"sharded"``,
    the one layout there is.

    A shard's file is parsed on the first lookup that touches its
    ``(device, library)`` target; every later lookup first catches up
    on the complete lines appended since (by any process), and rebuilds
    the shard only if another object compacted it.  So one long-lived
    object serves as fresh an answer as a newly opened one, without
    re-parsing.  Records appended through :meth:`record` update
    both the shard file and the index.  ``hits`` / ``misses`` count
    per-configuration lookups, ``writes`` counts appended measurements,
    ``skipped_lines`` the unreadable lines met while loading.
    """

    def __init__(self, path: Union[str, Path], layout: str = "sharded") -> None:
        if layout != "sharded":
            raise ProfileStoreError(
                f"unknown store layout {layout!r} (the only layout is 'sharded')"
            )
        self.path = Path(path)
        self._store_label = str(self.path)
        #: shard id -> group key -> columnar group, loaded lazily one
        #: shard at a time.
        self._indexes: Dict[str, _Index] = {}
        #: shard id -> (st_dev, st_ino, bytes parsed) of its file: where
        #: the next catch-up resumes.
        self._cursors: Dict[str, Tuple[int, int, int]] = {}
        #: Running count of entries across *loaded* shards, so ``len``
        #: and ``stats()`` never re-sum the index.
        self._entry_count = 0
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.skipped_lines = 0
        # Guards the in-memory indexes and the counters against
        # concurrent scheduler threads; the shard files themselves are
        # flock-guarded separately.
        self._lock = threading.RLock()
        self._open_directory()

    def _open_directory(self) -> None:
        """Create or adopt the store directory and its marker."""

        if self.path.is_file():
            raise ProfileStoreError(
                f"profile store path {self.path} is a file, not a store "
                "directory; pass a directory (created if missing)"
            )
        if (self.path / STORE_MARKER).exists():
            return
        if self.path.is_dir() and any(self.path.iterdir()):
            raise ProfileStoreError(
                f"profile store path {self.path} is a directory "
                f"(not a profile store: no {STORE_MARKER} marker)"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        _write_marker(self.path)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _shard_path(self, shard: str) -> Path:
        return self.path / (shard + ".jsonl")

    def _shard_ids_on_disk(self) -> List[str]:
        return sorted(entry.stem for entry in self.path.glob("*.jsonl"))

    def _skip_line(self, shard: str, count: int = 1) -> None:
        self.skipped_lines += count
        _STORE_SKIPPED.inc(count, store=self._store_label, shard=shard)

    def _load_shard(self, shard: str) -> _Index:
        """One shard's index, caught up with every complete line on disk.

        The first call parses the whole file; later calls resume at the
        shard's cursor and parse only lines appended since.  A different
        inode or a shorter file (a compaction by another object)
        rebuilds the index from scratch; so does a file that
        vanished.  A final line without its newline is not consumed.
        """

        index = self._indexes.get(shard)
        cursor = self._cursors.get(shard)
        try:
            handle = self._shard_path(shard).open("rb")
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            if index is None or cursor is not None:
                self._reset_shard(shard)
            return self._indexes[shard]
        with handle:
            held = os.fstat(handle.fileno())
            if index is None or (
                cursor is not None
                and (cursor[:2] != (held.st_dev, held.st_ino) or cursor[2] > held.st_size)
            ):
                index = self._reset_shard(shard)
                offset = 0
            else:
                offset = cursor[2] if cursor is not None else 0
            if held.st_size > offset:
                handle.seek(offset)
                added = 0
                for line in handle:
                    if not line.endswith(b"\n"):
                        break  # an append still in flight, or torn
                    offset += len(line)
                    if not line.strip():
                        continue
                    try:
                        _, key, sweep = _parse_line(line)
                        added += _fill(index, key, sweep)
                    except _UNREADABLE:
                        self._skip_line(shard)
                self._entry_count += added
            self._cursors[shard] = (held.st_dev, held.st_ino, offset)
        return index

    def _reset_shard(self, shard: str) -> _Index:
        """Drop a shard's index and cursor for a parse from scratch."""

        old = self._indexes.get(shard)
        if old is not None:
            self._entry_count -= sum(len(group) for group in old.values())
        self._cursors.pop(shard, None)
        index = self._indexes[shard] = {}
        _STORE_RELOADS.inc(store=self._store_label, shard=shard)
        return index

    def __len__(self) -> int:
        """Number of stored (configuration -> measurement) entries.

        Catches every shard on disk up first, so it counts entries
        appended by other processes too.
        """

        with self._lock:
            for shard in self._shard_ids_on_disk():
                self._load_shard(shard)
            return self._entry_count

    # ------------------------------------------------------------------
    # Lookup and record
    # ------------------------------------------------------------------
    @staticmethod
    def _key(
        device: str, library: str, runs: int, spec: ConvLayerSpec, seed: int = 0
    ) -> _GroupKey:
        return (device, library, runs, seed, layer_spec_fingerprint(spec))

    def lookup(
        self,
        device: str,
        library: str,
        runs: int,
        spec: ConvLayerSpec,
        channel_counts: Iterable[int],
        seed: int = 0,
    ) -> Tuple[Sweep, List[int]]:
        """Split channel counts into (stored sweep, counts still to measure).

        The stored sweep is sliced straight from the group's columns, in
        request order; the counts still to measure keep theirs.

        Only the ``(device, library)`` shard is loaded — a cold
        single-target lookup against a million-entry sharded store
        parses one shard, not the whole store — and a warm one parses
        only the lines appended to that shard since the last lookup.
        """

        counts = count_array(channel_counts)
        with self._lock:
            index = self._load_shard(shard_id_for(device, library))
            group = index.get(self._key(device, library, runs, spec, seed)) or Sweep.of(())
            found, missing = group.select(counts)
            self.hits += len(found)
            self.misses += len(missing)
            return found, missing.tolist()

    def record(
        self,
        device: str,
        library: str,
        runs: int,
        spec: ConvLayerSpec,
        sweep: Sweep,
        seed: int = 0,
    ) -> None:
        """Append one measured sweep to its shard file and the index.

        The whole record is written as a single line in one ``write``
        call under an advisory lock, so concurrent writers sharing the
        shard cannot interleave partial lines.  Writers on different
        targets append to different shard files and never contend.  If
        the shard ends in a torn line (a writer died mid-append), the
        record starts with a newline so it is not glued onto it.  A
        sweep of another layer, target or run count than the key raises
        :class:`~repro.profiling.runner.MeasurementError` and writes
        nothing.
        """

        if not len(sweep.expect(spec.name, device, library, runs)):
            return
        key = self._key(device, library, runs, spec, seed)
        data = _line(key, spec.as_dict(), sweep).encode("utf-8")
        shard = shard_id_for(device, library)
        with self._lock:
            handle = _open_locked(self._shard_path(shard), self._open_append)
            try:
                held = os.fstat(handle.fileno())
                if held.st_size:
                    handle.seek(held.st_size - 1)
                    if handle.read(1) != b"\n":
                        data = b"\n" + data
                handle.write(data)
                handle.flush()
                end = handle.tell()
            finally:
                _unlock_and_close(handle)
            _STORE_FILE_BYTES.set(end, store=self._store_label, shard=shard)
            _STORE_APPENDS.inc(store=self._store_label, shard=shard)
            index = self._indexes.get(shard)
            cursor = self._cursors.get(shard)
            start = end - len(data)
            at_cursor = cursor == (held.st_dev, held.st_ino, start) or (
                cursor is None and start == 0
            )
            if index is not None and at_cursor:
                # The line landed exactly at the cursor: index it without
                # reading it back, and move the cursor past it.
                self._entry_count += _fill(index, key, sweep)
                self._cursors[shard] = (held.st_dev, held.st_ino, end)
            else:
                self._load_shard(shard)  # catches up through this line
            self.writes += len(sweep)

    def _open_append(self, path: Path):
        """Open one shard for appending (a seam the race tests hook).

        Readable too, so :meth:`record` can check the last byte.
        """

        return path.open("ab+")

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the store with one line per group, dropping duplicates.

        Each shard file is re-read from disk under the advisory lock
        (picking up records appended by other processes since this
        store's last catch-up), deduplicated with last-writer-wins
        semantics, written to a temporary file in the same directory
        and atomically swapped in with :func:`os.replace`.  Returns the
        number of superseded or unreadable measurement entries dropped.
        """

        with self._lock:
            dropped = 0
            for shard in self._shard_ids_on_disk():
                dropped += self._compact_shard_locked(shard)
            self._entry_count = sum(
                len(group)
                for index in self._indexes.values()
                for group in index.values()
            )
            return dropped

    def _compact_shard_locked(self, shard: str) -> int:
        path = self._shard_path(shard)
        if not path.exists():
            self._indexes[shard] = {}
            self._cursors.pop(shard, None)
            return 0
        lock_handle = _open_locked(path, self._open_append)
        try:
            index, specs, total_entries, skipped = _read_groups(path)
            if skipped:
                self._skip_line(shard, skipped)
            fd, tmp_name = tempfile.mkstemp(
                prefix=path.name + ".", suffix=".compact", dir=str(path.parent),
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as tmp:
                    cursor = _write_groups(tmp, index, specs)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        finally:
            _unlock_and_close(lock_handle)
        self._indexes[shard] = index
        self._cursors[shard] = cursor
        _STORE_COMPACTIONS.inc(store=self._store_label, shard=shard)
        _STORE_FILE_BYTES.set(
            path.stat().st_size, store=self._store_label, shard=shard
        )
        kept = sum(len(group) for group in index.values())
        return total_entries - kept

    def file_stats(self) -> Dict[str, Any]:
        """On-disk statistics of the store, read fresh from disk.

        Returns ``lines`` (non-empty lines across shard files), ``unreadable`` (lines
        skipped as torn/foreign/stale), ``measurements`` (total
        measurement entries across readable lines, duplicates
        included), ``entries`` (distinct configurations after last-wins
        dedup), ``superseded`` (``measurements + unreadable - entries``
        — what :meth:`compact` would drop), ``bytes`` (total shard-file
        size), ``by_target`` — a ``"library@device"``-keyed breakdown
        of ``entries``/``measurements`` per target, which is how the
        concurrency tests prove each configuration was simulated exactly
        once (``measurements == entries`` target by target) — and
        ``shards``, the same figures keyed per shard file.  The call
        does not disturb the in-memory index or the hit/miss counters.
        """

        with self._lock:
            stats: Dict[str, Any] = {
                "lines": 0, "unreadable": 0, "measurements": 0,
                "entries": 0, "superseded": 0, "bytes": 0,
                "by_target": {}, "shards": {},
            }
            for shard in self._shard_ids_on_disk():
                path = self._shard_path(shard)
                if not path.is_file():
                    continue
                per_shard: Dict[str, Any] = {
                    "file": path.name, "bytes": path.stat().st_size,
                    "lines": 0, "unreadable": 0, "measurements": 0,
                    "entries": 0, "superseded": 0,
                }
                counts: Dict[_GroupKey, set] = {}
                with path.open("rb") as handle:
                    for line in handle:
                        if not line.strip():
                            continue
                        per_shard["lines"] += 1
                        try:
                            _, key, sweep = _parse_line(line)
                        except _UNREADABLE:
                            per_shard["unreadable"] += 1
                            continue
                        per_shard["measurements"] += len(sweep)
                        target = f"{key[1]}@{key[0]}"  # library@device
                        per_target = stats["by_target"].setdefault(
                            target, {"entries": 0, "measurements": 0}
                        )
                        per_target["measurements"] += len(sweep)
                        counts.setdefault(key, set()).update(sweep.counts.tolist())
                for key, group in counts.items():
                    per_shard["entries"] += len(group)
                    stats["by_target"][f"{key[1]}@{key[0]}"]["entries"] += len(group)
                per_shard["superseded"] = (
                    per_shard["measurements"] + per_shard["unreadable"]
                    - per_shard["entries"]
                )
                for figure in ("lines", "unreadable", "measurements",
                               "entries", "superseded", "bytes"):
                    stats[figure] += per_shard[figure]
                stats["shards"][shard] = per_shard
            return stats

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "entries": len(self),
                "skipped_lines": self.skipped_lines,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ProfileStore path={str(self.path)!r} "
            f"entries={len(self)} hits={self.hits} misses={self.misses} "
            f"writes={self.writes}>"
        )



def _read_groups(path: Path) -> Tuple[_Index, Dict[_GroupKey, Any], int, int]:
    """Parse one JSONL file into (index, last spec per key, raw entries,
    unreadable lines).  An unreadable line counts as one raw entry, so
    ``raw entries - kept entries`` is what a rewrite drops."""

    index: _Index = {}
    specs: Dict[_GroupKey, Any] = {}
    total_entries = skipped = 0
    with path.open("rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                payload, key, sweep = _parse_line(line)
                _fill(index, key, sweep)
            except _UNREADABLE:
                skipped += 1
                continue
            total_entries += len(sweep)
            specs[key] = payload["spec"]
    return index, specs, total_entries + skipped, skipped


def _write_groups(
    handle, index: _Index, specs: Dict[_GroupKey, Any]
) -> Tuple[int, int, int]:
    """Write one columnar line per group; returns the file's new cursor."""

    for key, group in index.items():
        handle.write(_line(key, specs[key], group))
    handle.flush()
    written = os.fstat(handle.fileno())
    return written.st_dev, written.st_ino, written.st_size


__all__ = [
    "STORE_MARKER",
    "STORE_VERSION",
    "ProfileStore",
    "ProfileStoreError",
    "layer_spec_fingerprint",
    "shard_id_for",
]
