"""Channel importance criteria.

Section II-B of the paper prunes channels *sequentially* (always the
highest-indexed ones) because the runtime of the pruned layer does not
depend on which channels are removed, only on how many remain.  Real
pruning pipelines remove the *least important* channels; this module
provides both the paper's sequential criterion and the standard
magnitude-based criteria so the performance-aware optimiser can be
combined with an accuracy-motivated selection.

A criterion ranks the output channels of a convolutional layer and
returns the indices to *keep* for a requested count.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Type

import numpy as np

from ..api.registry import Registry, UnknownPluginError
from ..models.layers import ConvLayerSpec
from ..nn.tensor import conv_weights, seed_from_name


class CriterionError(ValueError):
    """Raised for invalid keep-counts or unknown criterion names."""


class UnknownCriterionError(CriterionError, UnknownPluginError):
    """Raised when a criterion name is not registered.

    Subclasses both :class:`CriterionError` (the historical type raised
    for unknown names) and the shared
    :class:`~repro.api.registry.UnknownPluginError`.
    """


class ImportanceCriterion(abc.ABC):
    """Base class: ranks channels and selects which to keep."""

    name: str = ""

    @abc.abstractmethod
    def scores(self, spec: ConvLayerSpec, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Importance score per output channel (higher = more important)."""

    def keep_channels(
        self,
        spec: ConvLayerSpec,
        keep: int,
        weights: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Indices of the ``keep`` most important channels, ascending.

        The returned indices are sorted so that the pruned layer keeps
        the original channel order — the "re-indexing" the paper
        describes maps kept channel ``i`` to its position in this list.
        """

        if not 1 <= keep <= spec.out_channels:
            raise CriterionError(
                f"cannot keep {keep} channels of a layer with {spec.out_channels}"
            )
        channel_scores = np.asarray(self.scores(spec, weights), dtype=float)
        if channel_scores.shape != (spec.out_channels,):
            raise CriterionError(
                f"{self.name}: expected {spec.out_channels} scores, "
                f"got shape {channel_scores.shape}"
            )
        # Stable selection: ties resolved by channel index.
        order = np.lexsort((np.arange(spec.out_channels), -channel_scores))
        kept = sorted(int(index) for index in order[:keep])
        return kept


class SequentialCriterion(ImportanceCriterion):
    """Remove the highest-indexed channels first (the paper's choice).

    Runtime is independent of which channels are removed, so the paper
    "eliminate[s] channels sequentially for [the] inference time
    analysis".
    """

    name = "sequential"

    def scores(self, spec: ConvLayerSpec, weights: Optional[np.ndarray] = None) -> np.ndarray:
        return np.arange(spec.out_channels, 0, -1, dtype=float)


class L1NormCriterion(ImportanceCriterion):
    """Keep the channels with the largest L1 weight norm."""

    name = "l1"
    _order = 1

    def scores(self, spec: ConvLayerSpec, weights: Optional[np.ndarray] = None) -> np.ndarray:
        if weights is None:
            weights = conv_weights(spec)
        flat = np.abs(weights.reshape(weights.shape[0], -1)) ** self._order
        return flat.sum(axis=1) ** (1.0 / self._order)


class L2NormCriterion(L1NormCriterion):
    """Keep the channels with the largest L2 weight norm."""

    name = "l2"
    _order = 2


class RandomCriterion(ImportanceCriterion):
    """Keep a random (but deterministic per layer) subset of channels."""

    name = "random"

    def scores(self, spec: ConvLayerSpec, weights: Optional[np.ndarray] = None) -> np.ndarray:
        rng = np.random.default_rng(seed_from_name(spec.name + ".random-criterion"))
        return rng.random(spec.out_channels)


#: The unified criterion registry (see :mod:`repro.api.registry`);
#: entries are :class:`ImportanceCriterion` subclasses, instantiated per
#: lookup via ``CRITERIA.create(name)``.
CRITERIA: Registry[Type[ImportanceCriterion]] = Registry(
    "criterion", error_cls=UnknownCriterionError
)

for _criterion in (SequentialCriterion, L1NormCriterion, L2NormCriterion, RandomCriterion):
    CRITERIA.register(_criterion)
del _criterion


def available_criteria() -> List[str]:
    """Names of the registered importance criteria, sorted."""

    return CRITERIA.available()

