"""Registry mapping experiment identifiers to their generator functions.

Experiments live in the unified :data:`EXPERIMENTS` registry (see
:mod:`repro.api.registry`), preserving the paper's figure/table order
rather than sorting alphabetically.
"""

from __future__ import annotations

from typing import Callable, List

from ..api.registry import Registry, UnknownPluginError
from . import figures, proposal, tables
from .base import ExperimentResult

ExperimentFn = Callable[..., ExperimentResult]


class UnknownExperimentError(UnknownPluginError):
    """Raised when an experiment identifier is not registered."""


#: The unified experiment registry, in the paper's presentation order.
EXPERIMENTS: Registry[ExperimentFn] = Registry(
    "experiment", error_cls=UnknownExperimentError, sort_names=False
)

for _fn in (
    # Paper figures.
    figures.fig01, figures.fig02, figures.fig03, figures.fig04, figures.fig05,
    figures.fig06, figures.fig07, figures.fig08, figures.fig09, figures.fig10,
    figures.fig11, figures.fig12, figures.fig13, figures.fig14, figures.fig15,
    figures.fig16, figures.fig17, figures.fig18, figures.fig19, figures.fig20,
    # Paper tables.
    tables.table1, tables.table2, tables.table3, tables.table4, tables.table5,
    # Section V proposal and ablations.
    proposal.proposal_comparison,
    proposal.proposal_pareto,
    proposal.ablation_criteria,
    proposal.ablation_dispatch_overhead,
):
    EXPERIMENTS.register(_fn)
del _fn


def available_experiments() -> List[str]:
    """All registered experiment identifiers, in a stable order."""

    return EXPERIMENTS.available()


def run_experiment(experiment_id: str, session=None, **kwargs) -> ExperimentResult:
    """Run one experiment by identifier.

    ``session`` scopes the experiment's measurements to an explicit
    :class:`repro.api.Session` (its noise seed, profile store and
    runners); every registered generator must accept it.  When omitted,
    the generator falls back to the shared convenience session
    (:func:`repro.experiments.base.default_session`).
    """

    fn = EXPERIMENTS.get(experiment_id)
    if session is None:
        return fn(**kwargs)
    return fn(session=session, **kwargs)
