"""Serializable pruning jobs and results.

A :class:`PruningRequest` is everything needed to reproduce one pruning
run — model, :class:`~repro.api.target.Target`, strategy and its
parameters — and a :class:`PruningReport` is everything a caller needs
back.  Both round-trip through plain JSON (``to_json``/``from_json``),
so a future HTTP or queue service can ship jobs and results verbatim
without touching the in-process objects.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

from ..core.criteria import CRITERIA
from ..models.zoo import MODELS, shared_network
from .target import Target, TargetError, TargetLike

#: Strategies :class:`repro.api.Session` knows how to execute.
STRATEGIES: Tuple[str, ...] = ("performance-aware", "uninstructed", "latency-budget")

#: Strategies parameterised by a compression fraction.
_FRACTION_STRATEGIES = ("performance-aware", "uninstructed")


class RequestError(ValueError):
    """Raised when a pruning request is structurally invalid."""


def _is_int(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_int(value: Any, name: str, error: Type[ValueError] = RequestError) -> int:
    """``value`` as an int, or ``error`` naming ``name``.

    ``int()`` would read ``"4"`` as 4 and ``4.5`` as 4, and raise
    ``TypeError`` on a list.
    """

    if _is_int(value):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def require_int_list(
    value: Any, name: str, error: Type[ValueError] = RequestError
) -> List[int]:
    """``value`` as a list of ints, or ``error`` naming ``name``.

    Only a list or tuple of integers (not bools) passes: ``int()`` over
    the items would read the string ``"12"`` as ``[1, 2]`` and ``64.5``
    as ``64``.
    """

    if isinstance(value, (list, tuple)) and all(_is_int(item) for item in value):
        return [int(item) for item in value]
    raise error(f"{name} must be a list of integers, got {value!r}")


def require_real(value: Any, name: str) -> float:
    """``value`` if it is a real number (not a bool), else :class:`RequestError`.

    A string or list would raise ``TypeError`` from a range check.
    """

    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise RequestError(f"{name} must be a real number, got {value!r}")


def require_conv_layers(
    model: str, indices: List[int], name: str, error: Type[ValueError] = RequestError
) -> None:
    """Raise ``error`` naming ``name`` unless every index is a conv layer of ``model``.

    Checked against the process-wide zoo network (built once), so a job
    naming a layer the model lacks is refused before it runs.
    """

    network = shared_network(model)
    unknown = sorted(set(indices).difference(network.conv_indices))
    if unknown:
        raise error(
            f"{name} {unknown} are not conv layers of {model}; "
            f"its conv layer indices are {network.conv_layer_indices}"
        )


@dataclass(frozen=True)
class PruningRequest:
    """One pruning job: compress ``model`` for ``target`` with ``strategy``.

    Strategies
    ----------
    ``"performance-aware"``
        Prune roughly ``fraction`` of each layer, snapped to the right
        edge of its latency plateau (the paper's proposal).
    ``"uninstructed"``
        The baseline: uniform pruning by ``fraction`` with no knowledge
        of the target.
    ``"latency-budget"``
        Greedy latency-per-accuracy compression until the summed layer
        latency fits ``latency_budget_ms``.
    """

    model: str
    target: Target
    strategy: str = "performance-aware"
    fraction: Optional[float] = None
    latency_budget_ms: Optional[float] = None
    criterion: str = "sequential"
    sweep_step: int = 1
    layer_indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "target", Target.of(self.target))
        except TargetError as error:
            raise RequestError(str(error)) from error
        try:
            object.__setattr__(self, "model", MODELS.canonical(self.model))
            object.__setattr__(self, "criterion", CRITERIA.canonical(self.criterion))
        except KeyError as error:
            raise RequestError(str(error.args[0] if error.args else error)) from error
        for name in ("fraction", "latency_budget_ms"):
            if getattr(self, name) is not None:
                require_real(getattr(self, name), name)
        if self.strategy not in STRATEGIES:
            raise RequestError(
                f"unknown strategy {self.strategy!r}; available: {list(STRATEGIES)}"
            )
        if self.strategy in _FRACTION_STRATEGIES:
            if self.fraction is None:
                raise RequestError(f"strategy {self.strategy!r} requires a fraction")
            if not 0.0 < self.fraction < 1.0:
                raise RequestError(
                    f"fraction must be in (0, 1), got {self.fraction}"
                )
        if self.strategy == "latency-budget":
            if self.latency_budget_ms is None:
                raise RequestError("strategy 'latency-budget' requires latency_budget_ms")
            if not (math.isfinite(self.latency_budget_ms) and self.latency_budget_ms > 0):
                raise RequestError(
                    f"latency_budget_ms must be finite and positive, "
                    f"got {self.latency_budget_ms}"
                )
        if require_int(self.sweep_step, "sweep_step") < 1:
            raise RequestError(f"sweep_step must be >= 1, got {self.sweep_step}")
        if self.layer_indices is not None:
            indices = require_int_list(self.layer_indices, "layer_indices")
            require_conv_layers(self.model, indices, "layer_indices")
            object.__setattr__(self, "layer_indices", tuple(indices))

    # ------------------------------------------------------------------
    def with_strategy(self, strategy: str) -> "PruningRequest":
        """The same job under a different strategy (for comparisons)."""

        return replace(self, strategy=strategy)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "model": self.model,
            "target": self.target.to_dict(),
            "strategy": self.strategy,
            "criterion": self.criterion,
            "sweep_step": self.sweep_step,
        }
        if self.fraction is not None:
            payload["fraction"] = self.fraction
        if self.latency_budget_ms is not None:
            payload["latency_budget_ms"] = self.latency_budget_ms
        if self.layer_indices is not None:
            payload["layer_indices"] = list(self.layer_indices)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PruningRequest":
        try:
            model = payload["model"]
            target = payload["target"]
        except KeyError as error:
            raise RequestError(f"request payload missing key {error.args[0]!r}") from error
        return cls(
            model=model,
            target=target,
            strategy=payload.get("strategy", "performance-aware"),
            fraction=payload.get("fraction"),
            latency_budget_ms=payload.get("latency_budget_ms"),
            criterion=payload.get("criterion", "sequential"),
            sweep_step=payload.get("sweep_step", 1),
            layer_indices=payload.get("layer_indices"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PruningRequest":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class PruningReport:
    """The result of executing one :class:`PruningRequest`."""

    model: str
    target: Target
    strategy: str
    channels: Mapping[int, int]
    latency_ms: float
    baseline_latency_ms: float
    predicted_accuracy: float
    baseline_accuracy: float

    @property
    def speedup(self) -> float:
        return self.baseline_latency_ms / self.latency_ms

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.predicted_accuracy

    @classmethod
    def from_outcome(cls, request: PruningRequest, outcome) -> "PruningReport":
        """Build a report from a legacy :class:`PruningOutcome`."""

        return cls(
            model=request.model,
            target=request.target,
            strategy=request.strategy,
            channels=dict(outcome.channels),
            latency_ms=outcome.latency_ms,
            baseline_latency_ms=outcome.baseline_latency_ms,
            predicted_accuracy=outcome.predicted_accuracy,
            baseline_accuracy=outcome.baseline_accuracy,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "model": self.model,
            "target": self.target.to_dict(),
            "strategy": self.strategy,
            "channels": {str(index): count for index, count in sorted(self.channels.items())},
            "latency_ms": self.latency_ms,
            "baseline_latency_ms": self.baseline_latency_ms,
            "predicted_accuracy": self.predicted_accuracy,
            "baseline_accuracy": self.baseline_accuracy,
            "speedup": self.speedup,
            "accuracy_drop": self.accuracy_drop,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PruningReport":
        return cls(
            model=payload["model"],
            target=Target.of(payload["target"]),
            strategy=payload["strategy"],
            channels={int(index): int(count) for index, count in payload["channels"].items()},
            latency_ms=payload["latency_ms"],
            baseline_latency_ms=payload["baseline_latency_ms"],
            predicted_accuracy=payload["predicted_accuracy"],
            baseline_accuracy=payload["baseline_accuracy"],
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PruningReport":
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        """One-line human-readable digest."""

        return (
            f"{self.model} on {self.target.label} [{self.strategy}]: "
            f"{self.latency_ms:.2f} ms ({self.speedup:.2f}x, "
            f"accuracy drop {self.accuracy_drop:.3f})"
        )


@dataclass(frozen=True)
class ComparisonReport:
    """Reports for the same request under several strategies."""

    request: PruningRequest
    reports: Mapping[str, PruningReport]

    def __getitem__(self, strategy: str) -> PruningReport:
        return self.reports[strategy]

    @property
    def latency_advantage(self) -> float:
        """How much faster performance-aware is than uninstructed (>1 wins)."""

        aware = self.reports["performance-aware"]
        naive = self.reports["uninstructed"]
        return naive.latency_ms / aware.latency_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request": self.request.to_dict(),
            "reports": {name: report.to_dict() for name, report in self.reports.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ComparisonReport":
        return cls(
            request=PruningRequest.from_dict(payload["request"]),
            reports={
                name: PruningReport.from_dict(report)
                for name, report in payload["reports"].items()
            },
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ComparisonReport":
        return cls.from_dict(json.loads(text))


__all__ = [
    "STRATEGIES",
    "ComparisonReport",
    "PruningReport",
    "PruningRequest",
    "RequestError",
]
