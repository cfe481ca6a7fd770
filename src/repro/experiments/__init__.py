"""Experiment generators: one per paper figure/table, plus proposal studies.

Generators live in the unified :data:`EXPERIMENTS` registry; they share
one :class:`repro.api.Session` (see :func:`repro.experiments.base.default_session`)
so repeated runs reuse layer measurements.
"""

from .base import ExperimentResult, default_session
from .registry import (
    EXPERIMENTS,
    UnknownExperimentError,
    available_experiments,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "UnknownExperimentError",
    "available_experiments",
    "default_session",
    "run_experiment",
]
