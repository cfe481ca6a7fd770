"""Deterministic measurement noise: a counter-based splitmix64 stream.

Each measured configuration is seeded from its material string (see
:func:`noise_prefix`) and gets one multiplicative factor close to 1.0
per run, so "median of 10 runs" (the paper's methodology, Section
III-D) is meaningful and reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional

import numpy as np

from ..gpusim.device import DeviceSpec

#: Relative standard deviation of the multiplicative measurement noise.
MEASUREMENT_NOISE_STD = 0.02


def noise_prefix(device: DeviceSpec, library: str, layer_name: str) -> str:
    """Seed material shared by every count of a sweep.

    A configuration's material is this prefix plus its plan's ``notes``.
    """

    return f"{device.name}/{library}/{layer_name}/"


#: splitmix64 constants (Steele et al., "Fast splittable pseudorandom
#: number generators") — a counter-based generator whose draws are pure
#: integer mixing, so whole (configuration x run) matrices vectorize.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise over a uint64 array."""

    z = (x ^ (x >> np.uint64(30))) * _SPLITMIX_MUL1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MUL2
    return z ^ (z >> np.uint64(31))


def check_seed(seed: object) -> int:
    """Return ``seed`` if it is a stream seed, else raise :class:`ValueError`.

    A stream seed is an ``int`` in ``[0, 2**64)``: :func:`_seed_of`
    mixes it modulo 2**64, so a larger seed would silently reproduce a
    smaller one's measurements while the store keyed them apart.
    """

    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


def _seed_of(seed_material: str, seed: int = 0) -> int:
    """Per-configuration splitmix64 seed, optionally forked by a stream seed.

    ``seed == 0`` (the default) reproduces the historical stream exactly;
    any other value splits off an independent but equally deterministic
    stream, so two sessions built with the same seed see identical
    measurements without sharing a profile store.  A plain ``int`` in
    ``[0, 2**64)``: :func:`noise_matrix` builds one ``uint64`` array from
    them, with no NumPy scalar per material.
    """

    digest = hashlib.sha256(seed_material.encode("utf-8")).digest()
    value = int.from_bytes(digest[:8], "little")
    if seed:
        # The splitmix64 finalizer in plain Python ints: scalar NumPy
        # uint64 multiplies warn on (expected, harmless) overflow.
        mask = 2**64 - 1
        z = (value + seed * int(_SPLITMIX_GAMMA)) & mask
        z = ((z ^ (z >> 30)) * int(_SPLITMIX_MUL1)) & mask
        z = ((z ^ (z >> 27)) * int(_SPLITMIX_MUL2)) & mask
        value = z ^ (z >> 31)
    return value


def _factors_from_seeds(seeds: np.ndarray, runs: int) -> np.ndarray:
    """(len(seeds), runs) noise factor matrix from per-configuration seeds.

    Two counter-derived uniforms per run are turned into a standard
    normal via Box-Muller; run ``i`` of a configuration depends only on
    (seed, i), so any prefix of the run sequence is stable.
    """

    counters = np.arange(1, 2 * runs + 1, dtype=np.uint64)
    mixed = _splitmix64(seeds[:, np.newaxis] + _SPLITMIX_GAMMA * counters)
    # Top 53 bits, shifted into (0, 1] so the log below is always finite.
    uniform = ((mixed >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u1, u2 = uniform[:, 0::2], uniform[:, 1::2]
    normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return 1.0 + MEASUREMENT_NOISE_STD * normal


def noise_matrix(
    seed_materials: Iterable[str],
    runs: int,
    seed: int = 0,
    index: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Noise factors for many configurations at once, one row each.

    The measurement runner uses this to perturb a whole sweep in one
    array operation.  Each distinct material is hashed once and its row
    broadcast to every configuration that shares it.  With ``index``,
    ``seed_materials`` is a table of distinct materials and
    configuration ``i`` has material ``index[i]``; without, one material
    per configuration.
    """

    if index is None:
        rows: Dict[str, int] = {}
        index = [rows.setdefault(material, len(rows)) for material in seed_materials]
        seed_materials = rows
    if not len(index):
        return np.zeros((0, runs))
    seeds = np.array([_seed_of(material, seed) for material in seed_materials], dtype=np.uint64)
    return _factors_from_seeds(seeds, runs)[index]
