"""``repro.api`` — the canonical front door to the reproduction.

Most users need exactly four names::

    from repro.api import Session, Target, PruningRequest, PruningReport

    session = Session()
    target = Target("hikey-970", "acl-gemm")
    report = session.prune(PruningRequest("resnet50", target, fraction=0.25))

* :class:`Target` — a validated, hashable (device, library) pair.
* :class:`Session` — per-target memoising runners plus ``prune``/``compare``.
* :class:`PruningRequest` / :class:`PruningReport` — JSON-serializable
  job and result objects a service can ship verbatim.
* :class:`Registry` — the one plugin-registry idiom backing the device,
  library, criterion, model and experiment registries.
* :class:`Plan` — declarative, JSON-serializable lists of steps that
  :meth:`Session.execute` runs in plan order, with store-checkpointed
  results.

Attributes are resolved lazily (PEP 562) so that low-level modules can
import :mod:`repro.api.registry` without dragging in the whole package
— the registry is the foundation everything else is built on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .registry import Registry, RegistryError, UnknownPluginError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import (
        STRATEGIES,
        ComparisonReport,
        PruningReport,
        PruningRequest,
        RequestError,
    )
    from .plan import PLAN_VERSION, STEP_KINDS, Plan, PlanError, Step
    from .session import (
        ExecutionError,
        Session,
        SweepTable,
        UnknownExecutorError,
    )
    from .target import (
        DEFAULT_TARGET_RUNS,
        Target,
        TargetError,
        coerce_targets,
        default_targets,
        iter_all_targets,
    )

#: Lazily-imported public attributes: name -> submodule.
_LAZY_ATTRS = {
    "Target": "target",
    "TargetError": "target",
    "TargetLike": "target",
    "DEFAULT_TARGET_RUNS": "target",
    "coerce_targets": "target",
    "default_targets": "target",
    "iter_all_targets": "target",
    "Session": "session",
    "SweepTable": "session",
    "PruningRequest": "pipeline",
    "PruningReport": "pipeline",
    "ComparisonReport": "pipeline",
    "RequestError": "pipeline",
    "STRATEGIES": "pipeline",
    "Plan": "plan",
    "PlanError": "plan",
    "Step": "plan",
    "STEP_KINDS": "plan",
    "PLAN_VERSION": "plan",
    "ExecutionError": "session",
    "UnknownExecutorError": "session",
}

__all__ = [
    "ComparisonReport",
    "DEFAULT_TARGET_RUNS",
    "ExecutionError",
    "PLAN_VERSION",
    "Plan",
    "PlanError",
    "PruningReport",
    "PruningRequest",
    "Registry",
    "RegistryError",
    "RequestError",
    "STEP_KINDS",
    "STRATEGIES",
    "Session",
    "Step",
    "SweepTable",
    "Target",
    "TargetError",
    "TargetLike",
    "UnknownExecutorError",
    "UnknownPluginError",
    "coerce_targets",
    "default_targets",
    "iter_all_targets",
]


def __getattr__(name: str):
    module_name = _LAZY_ATTRS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
