"""Experiment result container and shared helpers.

Every figure and table of the paper's evaluation is reproduced by a
generator function returning an :class:`ExperimentResult`: structured
data (ready for plotting or assertion), a rendered text report, the key
metrics our run produced and what the paper reported for the same
quantity.  EXPERIMENTS.md is generated from these results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..analysis.curves import LatencyCurve, latency_curve
from ..analysis.speedup import SpeedupMatrix, speedup_matrix
from ..api.session import Session
from ..api.target import Target
from ..models.graph import ConvLayerRef
from ..models.zoo import profiled_layer_refs
from ..profiling.latency_table import sweep_counts
from ..profiling.runner import ProfileRunner


@dataclass
class ExperimentResult:
    """Reproduction of one paper figure or table."""

    experiment_id: str
    title: str
    description: str
    data: Dict[str, Any]
    text: str
    measured: Dict[str, float] = field(default_factory=dict)
    paper: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-paragraph paper-vs-measured summary."""

        lines = [f"{self.experiment_id}: {self.title}"]
        for key in sorted(set(self.measured) | set(self.paper)):
            measured = self.measured.get(key)
            expected = self.paper.get(key)
            measured_text = "n/a" if measured is None else f"{measured:.2f}"
            expected_text = "n/a" if expected is None else f"{expected:.2f}"
            lines.append(f"  {key}: paper={expected_text} measured={measured_text}")
        return "\n".join(lines)


#: One session shared by experiment generators that are not handed an
#: explicit ``session=``: sweeps over twenty figures reuse its runners'
#: layer measurements instead of re-profiling per figure.  This is a
#: *convenience default only* — plan ``figure`` steps and the CLI pass
#: their own session, so nothing in the execution path depends on
#: process-global state.
_SESSION = Session()


def default_session() -> Session:
    """The convenience session used when no explicit ``session=`` is given."""

    return _SESSION


def resolve_session(session: Optional[Session]) -> Session:
    """An explicit session if given, else the shared convenience default."""

    return session if session is not None else _SESSION


def execute_plan(plan, session: Optional[Session] = None):
    """Execute a :class:`repro.api.Plan` against a session.

    Experiment generators build declarative plans and hand them here.
    Without an explicit ``session`` the shared convenience session is
    used.
    """

    return resolve_session(session).execute(plan)


def make_runner(
    device: str, library: str, runs: int = 5, session: Optional[Session] = None
) -> ProfileRunner:
    """A session's shared (memoising) profile runner for a (device, library) pair."""

    return resolve_session(session).runner(Target(device, library, runs=runs))


def resnet_layer(index: int, session: Optional[Session] = None) -> ConvLayerRef:
    """A profiled ResNet-50 layer reference by paper index."""

    return resolve_session(session).network("resnet50").conv_layer(index)


def heatmap_experiment(
    experiment_id: str,
    title: str,
    description: str,
    model: str,
    library: str,
    device: str,
    prune_distances,
    metric: str,
    paper: Optional[Dict[str, float]] = None,
    runs: int = 3,
    layer_filter: Optional[Callable[[ConvLayerRef], bool]] = None,
    session: Optional[Session] = None,
) -> ExperimentResult:
    """Build a heatmap-style experiment (Figures 1, 6, 8-11, 13, 16, 17, 19)."""

    refs = profiled_layer_refs(model)
    if layer_filter is not None:
        refs = [ref for ref in refs if layer_filter(ref)]
    runner = make_runner(device, library, runs=runs, session=session)
    matrix = speedup_matrix(runner, refs, prune_distances, metric=metric)
    measured = {
        "max_value": matrix.max_value,
        "min_value": matrix.min_value,
    }
    data = {
        "layer_labels": matrix.layer_labels,
        "prune_distances": matrix.prune_distances,
        "rows": {distance: matrix.row(distance) for distance in matrix.prune_distances},
        "metric": matrix.metric,
        "device": matrix.device_name,
        "library": matrix.library_name,
    }
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        description=description,
        data=data,
        text=matrix.format(),
        measured=measured,
        paper=paper or {},
    )


def sweep_experiment(
    experiment_id: str,
    title: str,
    description: str,
    layer_index: int,
    library: str,
    device: str,
    paper: Optional[Dict[str, float]] = None,
    runs: int = 5,
    step: int = 1,
    min_channels: int = 1,
    extra_channels=(),
    model: str = "resnet50",
    session: Optional[Session] = None,
) -> ExperimentResult:
    """Build a latency-vs-channels sweep experiment (the line figures)."""

    ref = resolve_session(session).network(model).conv_layer(layer_index)
    runner = make_runner(device, library, runs=runs, session=session)
    counts = sweep_counts(ref.spec.out_channels, step=step, start=min_channels)
    curve = latency_curve(
        runner, ref.spec, ref.label, channel_counts=(*counts, *extra_channels)
    )
    fast, slow, gap = curve.largest_adjacent_gap()
    measured = {
        "min_time_ms": curve.min_time_ms,
        "max_time_ms": curve.max_time_ms,
        "spread": curve.spread,
        "largest_adjacent_gap": gap,
    }
    data = {
        "layer": ref.label,
        "device": curve.device_name,
        "library": curve.library_name,
        "channel_counts": list(curve.channel_counts),
        "times_ms": list(curve.times_ms),
        "largest_gap": {"fast_channels": fast, "slow_channels": slow, "ratio": gap},
    }
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        description=description,
        data=data,
        text=curve.format(),
        measured=measured,
        paper=paper or {},
    )


__all__ = [
    "ExperimentResult",
    "LatencyCurve",
    "SpeedupMatrix",
    "default_session",
    "execute_plan",
    "heatmap_experiment",
    "make_runner",
    "resnet_layer",
    "resolve_session",
    "sweep_experiment",
]
