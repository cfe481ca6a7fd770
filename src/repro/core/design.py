"""Design-space exploration: choosing layer sizes for a target platform.

Beyond pruning existing networks, the paper's second implication
(Section I) is that *designing new architectures* for a specific device
should pick convolutional layer sizes that sit in the sweet spots of the
library/hardware combination.  This module provides that exploration:

* :func:`recommend_channel_counts` — the channel counts of a layer shape
  that give the most filters per millisecond on a target (the "right
  side of a performance step", ranked);
* :func:`best_library_for_layer` — which library/device pair runs a
  given layer fastest (Section V: "no optimal library exists to
  outperform across all neural network layers");
* :class:`DesignSpaceExplorer` — sweeps a layer template over several
  targets and summarises where the sweet spots fall on each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..gpusim.device import DEVICES, DeviceSpec
from ..libraries.base import LIBRARIES, ConvolutionLibrary
from ..models.layers import ConvLayerSpec
from ..profiling.latency_table import build_latency_table
from ..profiling.runner import ProfileRunner
from .staircase import analyze_table


@dataclass(frozen=True)
class ChannelRecommendation:
    """One recommended channel count for a layer shape on a target."""

    out_channels: int
    time_ms: float
    channels_per_ms: float
    device_name: str
    library_name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.out_channels} channels @ {self.time_ms:.2f} ms "
            f"({self.channels_per_ms:.1f} ch/ms, {self.library_name} on {self.device_name})"
        )


@dataclass(frozen=True)
class LibraryRanking:
    """Latency of one layer across several (device, library) targets."""

    layer_name: str
    entries: Tuple[Tuple[str, str, float], ...]

    @property
    def best(self) -> Tuple[str, str, float]:
        """(device, library, time_ms) of the fastest target."""

        return min(self.entries, key=lambda entry: entry[2])

    def time_for(self, device_name: str, library_name: str) -> float:
        for device, library, time_ms in self.entries:
            if device == device_name and library == library_name:
                return time_ms
        raise KeyError(f"no entry for {library_name} on {device_name}")


def _resolve_target(
    device: "DeviceSpec | str", library: "ConvolutionLibrary | str | None", runs: int
) -> ProfileRunner:
    """Build a runner from a Target, or from legacy device/library values."""

    from ..api.target import Target  # local import: api sits above core

    if isinstance(device, Target):
        if library is not None:
            raise TypeError("pass either a Target or a (device, library) pair, not both")
        return ProfileRunner.for_target(device)
    if library is None:
        raise TypeError("a Target or a (device, library) pair is required")
    device_spec = DEVICES.get(device) if isinstance(device, str) else device
    library_model = LIBRARIES.create(library) if isinstance(library, str) else library
    return ProfileRunner(device=device_spec, library=library_model, runs=runs)


def recommend_channel_counts(
    layer_template: ConvLayerSpec,
    device: DeviceSpec | str,
    library: ConvolutionLibrary | str | None = None,
    max_channels: Optional[int] = None,
    top_k: int = 5,
    runs: int = 3,
) -> List[ChannelRecommendation]:
    """Channel counts that maximise filters-per-millisecond on a target.

    ``layer_template`` fixes the layer shape (input channels, kernel,
    stride, spatial size); the search sweeps its output channel count up
    to ``max_channels`` (default: the template's own count), keeps only
    plateau right-edges (adding channels beyond them is free until the
    next step) and ranks them by channels per millisecond.

    The target may be a single :class:`repro.api.Target` passed as
    ``device`` (leaving ``library`` unset) or the legacy pair of values.
    A :class:`Target` carries its own measurement protocol, so its
    ``runs`` wins over the ``runs`` parameter; the parameter applies to
    name/spec pairs.
    """

    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    upper = layer_template.out_channels if max_channels is None else max_channels
    if upper < 1:
        raise ValueError(f"max_channels must be >= 1, got {upper}")
    template = layer_template.with_out_channels(upper)
    runner = _resolve_target(device, library, runs)
    table = build_latency_table(runner, template, range(1, upper + 1))
    edges = analyze_table(table).right_edges
    recommendations = [
        ChannelRecommendation(
            out_channels=channels,
            time_ms=time_ms,
            channels_per_ms=channels / time_ms,
            device_name=runner.device.name,
            library_name=runner.library.name,
        )
        for channels, time_ms in zip(edges.tolist(), table.times_ms(edges).tolist())
    ]
    recommendations.sort(key=lambda rec: (-rec.channels_per_ms, rec.time_ms))
    return recommendations[:top_k]


def best_library_for_layer(
    layer: ConvLayerSpec,
    targets: Sequence[Tuple[str, str]],
    runs: int = 3,
) -> LibraryRanking:
    """Rank (device, library) targets by latency for one layer."""

    if not targets:
        raise ValueError("targets must not be empty")
    entries = []
    for target in targets:
        runner = _resolve_runner_for(target, runs)
        measurement = runner.measure(layer)
        entries.append((runner.device.name, runner.library.name, measurement.median_time_ms))
    return LibraryRanking(layer_name=layer.name, entries=tuple(entries))


def _resolve_runner_for(target, runs: int) -> ProfileRunner:
    """Accept a Target or a (device, library) pair from a targets sequence.

    A :class:`Target` carries its own measurement protocol, so its
    ``runs`` wins; the ``runs`` parameter applies to bare name pairs.
    """

    from ..api.target import Target

    if isinstance(target, Target):
        return ProfileRunner.for_target(target)
    device_name, library_name = target
    return _resolve_target(device_name, library_name, runs)


@dataclass
class DesignSpaceExplorer:
    """Sweep a layer template across several targets and compare sweet spots."""

    targets: Sequence[Tuple[str, str]]
    runs: int = 3

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("targets must not be empty")

    def explore(
        self,
        layer_template: ConvLayerSpec,
        max_channels: Optional[int] = None,
        top_k: int = 3,
    ) -> Dict[Tuple[str, str], List[ChannelRecommendation]]:
        """Top channel-count recommendations per target.

        ``targets`` entries may be ``(device, library)`` pairs (measured
        with the explorer's ``runs``) or :class:`repro.api.Target`
        objects (measured with their own ``runs``); keys of the returned
        mapping are always canonical ``(device, library)`` name pairs.
        """

        from ..api.target import Target

        exploration: Dict[Tuple[str, str], List[ChannelRecommendation]] = {}
        for entry in self.targets:
            target = entry if isinstance(entry, Target) else Target.of(tuple(entry), runs=self.runs)
            exploration[(target.device, target.library)] = recommend_channel_counts(
                layer_template, target,
                max_channels=max_channels, top_k=top_k, runs=self.runs,
            )
        return exploration

    def sweet_spots_differ(
        self, layer_template: ConvLayerSpec, max_channels: Optional[int] = None
    ) -> bool:
        """True when the best channel count is target-dependent.

        This is the concrete form of the paper's conclusion that networks
        should be specialised per runtime environment.
        """

        exploration = self.explore(layer_template, max_channels=max_channels, top_k=1)
        best_counts = {
            recommendations[0].out_channels
            for recommendations in exploration.values()
            if recommendations
        }
        return len(best_counts) > 1

    def format_report(
        self, layer_template: ConvLayerSpec, max_channels: Optional[int] = None
    ) -> str:
        """Human-readable comparison of sweet spots across targets."""

        exploration = self.explore(layer_template, max_channels=max_channels, top_k=3)
        lines = [
            f"Design-space exploration for {layer_template.name} "
            f"(in={layer_template.in_channels}, k={layer_template.kernel_size}, "
            f"hw={layer_template.input_hw})"
        ]
        for (device, library), recommendations in exploration.items():
            lines.append(f"  {library} on {device}:")
            for rec in recommendations:
                lines.append(
                    f"    {rec.out_channels:>5} channels  {rec.time_ms:>8.2f} ms  "
                    f"{rec.channels_per_ms:>7.1f} ch/ms"
                )
        return "\n".join(lines)


def iter_default_targets() -> Iterable[Tuple[str, str]]:
    """The paper's four (device, library) evaluation targets."""

    yield ("hikey-970", "acl-gemm")
    yield ("hikey-970", "acl-direct")
    yield ("hikey-970", "tvm")
    yield ("jetson-tx2", "cudnn")
