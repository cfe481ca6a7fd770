"""Core contribution: performance-aware channel pruning.

Importance criteria live in the unified :data:`CRITERIA` registry
(``CRITERIA.create(name)``).  For the high-level pruning workflow, start at
:mod:`repro.api` (``Session.prune`` wraps
:class:`PerformanceAwarePruner`).
"""

from .accuracy_model import DEFAULT_BASELINES, AccuracyModel, default_accuracy_model
from .design import (
    ChannelRecommendation,
    DesignSpaceExplorer,
    LibraryRanking,
    best_library_for_layer,
    iter_default_targets,
    recommend_channel_counts,
)
from .criteria import (
    CRITERIA,
    CriterionError,
    ImportanceCriterion,
    L1NormCriterion,
    L2NormCriterion,
    RandomCriterion,
    SequentialCriterion,
    UnknownCriterionError,
    available_criteria,
)
from .perf_aware import (
    LayerProfile,
    OptimizationError,
    PerformanceAwarePruner,
    PruningOutcome,
    StrategyComparison,
)
from .pruner import ChannelPruner, LayerPruning, PruningError, PruningPlan
from .search import Candidate, PruningSearch, pareto_frontier
from .staircase import (
    Plateau,
    StaircaseAnalysis,
    Step,
    analyze_table,
    cluster_levels,
    detect_plateaus,
    detect_steps,
    optimal_pruning_levels,
)

__all__ = [
    "CRITERIA",
    "AccuracyModel",
    "UnknownCriterionError",
    "Candidate",
    "ChannelPruner",
    "ChannelRecommendation",
    "CriterionError",
    "DesignSpaceExplorer",
    "LibraryRanking",
    "best_library_for_layer",
    "iter_default_targets",
    "recommend_channel_counts",
    "DEFAULT_BASELINES",
    "ImportanceCriterion",
    "L1NormCriterion",
    "L2NormCriterion",
    "LayerProfile",
    "LayerPruning",
    "OptimizationError",
    "PerformanceAwarePruner",
    "Plateau",
    "PruningError",
    "PruningOutcome",
    "PruningPlan",
    "PruningSearch",
    "RandomCriterion",
    "SequentialCriterion",
    "StaircaseAnalysis",
    "Step",
    "StrategyComparison",
    "analyze_table",
    "available_criteria",
    "cluster_levels",
    "default_accuracy_model",
    "detect_plateaus",
    "detect_steps",
    "optimal_pruning_levels",
    "pareto_frontier",
]
