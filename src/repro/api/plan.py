"""Declarative, JSON-serializable experiment plans.

A :class:`Plan` is an ordered list of :class:`Step` jobs — ``profile``,
``sweep``, ``prune``, ``compare`` and ``figure`` — that
:meth:`~repro.api.Session.execute` runs in plan order, in the calling
process or inside the service's job queue.  Steps share data only
through the session that runs them (its measurement memo, noise stream
and store), so a later step reuses what an earlier one measured.  Like
:class:`~repro.api.pipeline.PruningRequest`, a plan round-trips through
plain JSON (``to_json``/``from_json``) so jobs can be shipped to the
``repro-experiments run-plan`` CLI, a queue or another machine
verbatim::

    plan = Plan()
    plan.sweep(["acl-gemm@hikey-970", "cudnn@jetson-tx2"], layer)
    plan.prune(PruningRequest("resnet50", target, fraction=0.25))
    Plan.from_json(plan.to_json())  # == plan

Validation happens *up front*, at build/parse time: unknown targets,
models, experiments, strategies, figure options, step fields and
duplicate step ids all raise :class:`PlanError` before anything is
simulated.
"""

from __future__ import annotations

import inspect
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from ..models.layers import ConvLayerSpec, LayerSpecError
from ..models.zoo import MODELS
from .pipeline import (
    STRATEGIES, PruningRequest, require_conv_layers, require_int, require_int_list,
)
from .target import Target, TargetLike, coerce_targets

#: Step kinds a plan may contain, in the order they usually appear.
STEP_KINDS: Tuple[str, ...] = ("profile", "sweep", "prune", "compare", "figure")

#: Plan wire-format version.
PLAN_VERSION = 1


class PlanError(ValueError):
    """Raised when a plan or one of its steps is structurally invalid."""


@dataclass(frozen=True)
class Step:
    """One job of a plan: its id, kind and parameters.

    ``params`` is the normalized, JSON-ready form produced by the plan
    builders (targets as dicts, layer specs as dicts); treat it as
    read-only.
    """

    id: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "kind": self.kind, "params": self.params}


def _spec_from(value: Union[ConvLayerSpec, Mapping[str, Any]]) -> ConvLayerSpec:
    if isinstance(value, ConvLayerSpec):
        return value
    if isinstance(value, Mapping):
        try:
            return ConvLayerSpec.from_dict(dict(value))
        except (LayerSpecError, TypeError) as error:
            raise PlanError(f"invalid layer spec payload: {error}") from error
    raise PlanError(f"cannot interpret {value!r} as a layer spec")


def _canonical_model(model: str) -> str:
    try:
        return MODELS.canonical(model)
    except KeyError as error:
        raise PlanError(str(error.args[0] if error.args else error)) from error


def _experiment(experiment_id: str) -> Tuple[str, Any]:
    """An experiment's canonical id and its registered generator."""

    # Imported lazily: repro.experiments sits above repro.api.
    from ..experiments.registry import EXPERIMENTS

    try:
        canonical = EXPERIMENTS.canonical(experiment_id)
    except KeyError as error:
        raise PlanError(str(error.args[0] if error.args else error)) from error
    return canonical, EXPERIMENTS.get(canonical)


def _coerce_sweep_step(value: Any) -> int:
    step = require_int(value, "sweep_step", PlanError)
    if step < 1:
        raise PlanError(f"sweep_step must be >= 1, got {value!r}")
    return step


class Plan:
    """An ordered, validated list of :class:`Step` jobs.

    Steps are added through the builder helpers (:meth:`profile`,
    :meth:`sweep`, :meth:`prune`, :meth:`compare`, :meth:`figure`) or
    :meth:`add`; execution happens through
    :meth:`repro.api.Session.execute`.
    """

    def __init__(self, steps: Iterable[Step] = ()) -> None:
        self._steps: "OrderedDict[str, Step]" = OrderedDict()
        self._kind_counts: Dict[str, int] = {}
        for step in steps:
            self.add(step)

    # ------------------------------------------------------------------
    # Step access
    # ------------------------------------------------------------------
    @property
    def steps(self) -> Tuple[Step, ...]:
        """The steps in insertion (= execution) order."""

        return tuple(self._steps.values())

    def step(self, step_id: str) -> Step:
        try:
            return self._steps[step_id]
        except KeyError:
            raise PlanError(
                f"unknown step id {step_id!r}; available: {list(self._steps)}"
            ) from None

    def __iter__(self) -> Iterator[Step]:
        return iter(self._steps.values())

    def __len__(self) -> int:
        return len(self._steps)

    def __contains__(self, step_id: object) -> bool:
        return step_id in self._steps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Plan):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = [step.kind for step in self]
        return f"<Plan steps={len(self)} kinds={kinds}>"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _next_id(self, kind: str) -> str:
        while True:
            self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
            candidate = f"{kind}-{self._kind_counts[kind]}"
            if candidate not in self._steps:
                return candidate

    def add(self, step: Step) -> Step:
        """Validate a step and append it to the plan."""

        if not isinstance(step.id, str) or not step.id:
            raise PlanError(f"step ids must be non-empty strings, got {step.id!r}")
        if step.id in self._steps:
            raise PlanError(f"duplicate step id {step.id!r}")
        if step.kind not in STEP_KINDS:
            raise PlanError(
                f"unknown step kind {step.kind!r}; available: {list(STEP_KINDS)}"
            )
        validator = _STEP_VALIDATORS[step.kind]
        normalized = Step(id=step.id, kind=step.kind, params=validator(step.params))
        self._steps[normalized.id] = normalized
        return normalized

    # ------------------------------------------------------------------
    # Builder helpers (one per step kind)
    # ------------------------------------------------------------------
    # Each helper only resolves its argument *shape* (single values vs
    # collections); :meth:`add` runs the per-kind validator, the one
    # place where params are checked and normalized to their JSON form.
    def profile(
        self,
        target: TargetLike,
        model: str,
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
        *,
        step_id: Optional[str] = None,
    ) -> Step:
        """Add a step profiling every (selected) conv layer of a model."""

        params: Dict[str, Any] = {
            "target": target, "model": model, "sweep_step": sweep_step,
        }
        if layer_indices is not None:
            params["layer_indices"] = list(layer_indices)
        return self.add(Step(
            id=step_id or self._next_id("profile"), kind="profile", params=params,
        ))

    def sweep(
        self,
        targets,
        layers,
        channel_counts: Optional[Iterable[int]] = None,
        sweep_step: int = 1,
        *,
        step_id: Optional[str] = None,
    ) -> Step:
        """Add a step fanning one layer set across several targets."""

        if isinstance(layers, (ConvLayerSpec, Mapping)):
            layers = [layers]
        params: Dict[str, Any] = {
            "targets": coerce_targets(targets),
            "layers": list(layers),
            "sweep_step": sweep_step,
        }
        if channel_counts is not None:
            params["channel_counts"] = list(channel_counts)
        return self.add(Step(
            id=step_id or self._next_id("sweep"), kind="sweep", params=params,
        ))

    def prune(
        self,
        request: Union[PruningRequest, Mapping[str, Any]],
        *,
        step_id: Optional[str] = None,
    ) -> Step:
        """Add a step executing one serializable pruning job."""

        return self.add(Step(
            id=step_id or self._next_id("prune"), kind="prune",
            params={"request": request},
        ))

    def compare(
        self,
        request: Union[PruningRequest, Mapping[str, Any]],
        strategies: Sequence[str] = ("performance-aware", "uninstructed"),
        *,
        step_id: Optional[str] = None,
    ) -> Step:
        """Add a step running one job under several strategies."""

        return self.add(Step(
            id=step_id or self._next_id("compare"), kind="compare",
            params={"request": request, "strategies": list(strategies)},
        ))

    def figure(
        self,
        experiment_id: str,
        *,
        step_id: Optional[str] = None,
        **options: Any,
    ) -> Step:
        """Add a step regenerating one registered paper figure or table.

        ``options`` are forwarded to the experiment generator (for
        example ``runs=3, step=4`` to coarsen a sweep figure); a name
        the generator does not take raises :class:`PlanError`.
        """

        params: Dict[str, Any] = {"experiment": experiment_id}
        if options:
            params["options"] = dict(options)
        return self.add(Step(
            id=step_id or self._next_id("figure"), kind="figure", params=params,
        ))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": PLAN_VERSION,
            "steps": [step.to_dict() for step in self],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Plan":
        if not isinstance(payload, Mapping):
            raise PlanError(f"plan payload must be a mapping, got {type(payload).__name__}")
        unknown = set(payload) - {"version", "steps"}
        if unknown:
            raise PlanError(f"unknown plan fields: {sorted(unknown)}")
        version = payload.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise PlanError(
                f"unsupported plan version {version!r} (this build reads {PLAN_VERSION})"
            )
        steps = payload.get("steps")
        if not isinstance(steps, Sequence) or isinstance(steps, (str, bytes)):
            raise PlanError("plan payload needs a 'steps' list")
        plan = cls()
        for entry in steps:
            if not isinstance(entry, Mapping):
                raise PlanError(f"plan steps must be mappings, got {entry!r}")
            unknown = set(entry) - {"id", "kind", "params"}
            if unknown:
                raise PlanError(f"unknown step fields: {sorted(unknown)}")
            try:
                step_id = entry["id"]
                kind = entry["kind"]
            except KeyError as error:
                raise PlanError(
                    f"step payload missing key {error.args[0]!r}"
                ) from error
            plan.add(Step(id=step_id, kind=kind, params=entry.get("params", {})))
        return plan

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise PlanError(f"plan is not valid JSON: {error}") from error
        return cls.from_dict(payload)


def _request_payload(request: Union[PruningRequest, Mapping[str, Any]]) -> Dict[str, Any]:
    """Normalize (and thereby validate) a pruning request payload."""

    if isinstance(request, Mapping):
        request = PruningRequest.from_dict(request)
    elif not isinstance(request, PruningRequest):
        raise PlanError(f"cannot interpret {request!r} as a PruningRequest")
    return request.to_dict()


# ----------------------------------------------------------------------
# Per-kind parameter validators (used by Plan.add, hence by from_dict)
# ----------------------------------------------------------------------
def _validate_profile(params: Mapping[str, Any]) -> Dict[str, Any]:
    _require_keys("profile", params, {"target", "model"}, {"layer_indices", "sweep_step"})
    normalized: Dict[str, Any] = {
        "target": Target.of(params["target"]).to_dict(),
        "model": _canonical_model(params["model"]),
        "sweep_step": _coerce_sweep_step(params.get("sweep_step", 1)),
    }
    if params.get("layer_indices") is not None:
        indices = require_int_list(params["layer_indices"], "profile layer_indices", PlanError)
        require_conv_layers(normalized["model"], indices, "profile layer_indices", PlanError)
        normalized["layer_indices"] = indices
    return normalized


def _validate_sweep(params: Mapping[str, Any]) -> Dict[str, Any]:
    _require_keys("sweep", params, {"targets", "layers"}, {"channel_counts", "sweep_step"})
    targets = [Target.of(entry) for entry in params["targets"]]
    specs = [_spec_from(entry) for entry in params["layers"]]
    if not targets:
        raise PlanError("sweep needs at least one target")
    if not specs:
        raise PlanError("sweep needs at least one layer")
    by_name: Dict[str, ConvLayerSpec] = {}
    for spec in specs:
        if by_name.setdefault(spec.name, spec) != spec:
            raise PlanError(
                f"sweep got two different layer specs named {spec.name!r}"
            )
    normalized: Dict[str, Any] = {
        "targets": [target.to_dict() for target in targets],
        "layers": [spec.as_dict() for spec in by_name.values()],
        "sweep_step": _coerce_sweep_step(params.get("sweep_step", 1)),
    }
    if params.get("channel_counts") is not None:
        counts = sorted(set(require_int_list(
            params["channel_counts"], "sweep channel_counts", PlanError
        )))
        for spec in by_name.values():
            outside = [count for count in counts if not 1 <= count <= spec.out_channels]
            if outside:
                raise PlanError(
                    f"sweep channel_counts {outside} are outside 1..{spec.out_channels}, "
                    f"the output channels of layer {spec.name!r}"
                )
        normalized["channel_counts"] = counts
    return normalized


def _validate_prune(params: Mapping[str, Any]) -> Dict[str, Any]:
    _require_keys("prune", params, {"request"}, set())
    return {"request": _request_payload(params["request"])}


def _validate_compare(params: Mapping[str, Any]) -> Dict[str, Any]:
    _require_keys("compare", params, {"request"}, {"strategies"})
    strategies = list(params.get("strategies", ("performance-aware", "uninstructed")))
    if not strategies:
        raise PlanError("compare needs at least one strategy")
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise PlanError(
                f"unknown strategy {strategy!r}; available: {list(STRATEGIES)}"
            )
    return {"request": _request_payload(params["request"]), "strategies": strategies}


def _validate_figure(params: Mapping[str, Any]) -> Dict[str, Any]:
    _require_keys("figure", params, {"experiment"}, {"options"})
    experiment, generator = _experiment(params["experiment"])
    normalized: Dict[str, Any] = {"experiment": experiment}
    options = params.get("options")
    if options:
        if not isinstance(options, Mapping):
            raise PlanError(f"figure options must be a mapping, got {options!r}")
        try:
            inspect.signature(generator).bind_partial(session=None, **options)
        except TypeError as error:
            raise PlanError(f"figure {experiment!r} options: {error}") from error
        normalized["options"] = dict(options)
    return normalized


def _require_keys(
    kind: str, params: Mapping[str, Any], required: set, optional: set
) -> None:
    if not isinstance(params, Mapping):
        raise PlanError(f"{kind} params must be a mapping, got {type(params).__name__}")
    missing = required - set(params)
    if missing:
        raise PlanError(f"{kind} step missing required params: {sorted(missing)}")
    unknown = set(params) - required - optional
    if unknown:
        raise PlanError(f"{kind} step got unknown params: {sorted(unknown)}")


_STEP_VALIDATORS = {
    "profile": _validate_profile,
    "sweep": _validate_sweep,
    "prune": _validate_prune,
    "compare": _validate_compare,
    "figure": _validate_figure,
}


__all__ = ["PLAN_VERSION", "STEP_KINDS", "Plan", "PlanError", "Step"]
