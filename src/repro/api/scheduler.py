"""Dependency-aware scheduling over :class:`~repro.api.plan.Plan` graphs.

A plan carries an explicit dependency graph, but execution used to be
flat insertion order: every step waited for *all* earlier steps, even
ones it did not depend on.  This module turns the graph into the
schedule every executor backend shares:

* :func:`wavefronts` — the topological wavefront view: wave 0 holds the
  steps with no dependencies, wave *N* the steps whose latest
  dependency lives in wave *N - 1*.  Steps within a wavefront are
  mutually independent, so a backend may prefetch or dispatch them
  together.
* :func:`scheduled_order` — the flattened wavefront order, a
  deterministic topological order used by the serial paths (and the
  service queue's per-step execution).

Scheduling never changes results: measurement noise is counter-based on
the configuration itself (see :mod:`repro.profiling.profilers`), so any
dependency-respecting order produces bitwise-identical measurements.

Plans are acyclic by construction (:meth:`Plan.add` only accepts
dependencies on steps already present), so one pass in plan order
assigns every step its wave.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..obs.metrics import COUNT_BUCKETS, default_registry
from .plan import Plan, Step

_WAVE_WIDTH = default_registry().histogram(
    "repro_scheduler_wave_width",
    "Mutually independent steps per topological wavefront.",
    buckets=COUNT_BUCKETS,
)


def wavefronts(plan: Plan) -> Tuple[Tuple[Step, ...], ...]:
    """The plan's topological wavefronts.

    A step without dependencies sits in wave 0, any other step one wave
    after its latest dependency.  Steps within one wavefront are
    mutually independent and may run concurrently; waves are ordered.
    Within a wave, plan insertion order is preserved, so the flattened
    result (:func:`scheduled_order`) is deterministic.
    """

    wave_of: Dict[str, int] = {}
    waves: List[List[Step]] = []
    for step in plan:
        wave = 1 + max((wave_of[dep] for dep in step.depends_on), default=-1)
        wave_of[step.id] = wave
        if wave == len(waves):
            waves.append([])
        waves[wave].append(step)
    for wave in waves:
        _WAVE_WIDTH.observe(len(wave))
    return tuple(tuple(wave) for wave in waves)


def scheduled_order(plan: Plan) -> Tuple[Step, ...]:
    """Flattened wavefront order: a deterministic topological order."""

    return tuple(step for wave in wavefronts(plan) for step in wave)


__all__ = ["scheduled_order", "wavefronts"]
