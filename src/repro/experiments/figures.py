"""Generators for every figure of the paper's evaluation (Figures 1-20).

Each ``figNN`` function regenerates the data behind the corresponding
figure: the same layer(s), the same library and device, the same pruning
distances.  Absolute milliseconds come from the analytical simulator, so
they are not expected to match the authors' boards; the *shape* metrics
(step positions and ratios, number of levels, slowdown/speedup factors)
are what EXPERIMENTS.md compares against the paper.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.speedup import (
    FIGURE1_PRUNE_DISTANCES,
    PAPER_PRUNE_DISTANCES,
    TVM_PRUNE_DISTANCES,
)
from ..analysis.curves import curve_from_table
from ..api.session import Session
from ..api.target import Target
from ..core.staircase import cluster_levels
from ..gpusim.metrics import relative_system_counters
from ..gpusim.simulator import GpuSimulator
from ..gpusim.device import DEVICES
from ..libraries.base import LIBRARIES
from .base import (
    ExperimentResult,
    execute_plan,
    heatmap_experiment,
    resnet_layer,
    sweep_experiment,
)


# ---------------------------------------------------------------------------
# Heatmap figures
# ---------------------------------------------------------------------------
def fig01(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 1: maximum slowdown per ResNet-50 layer, ACL GEMM on Mali G72."""

    return heatmap_experiment(
        "fig01",
        "Potential slowdown of pruned ResNet-50 layers (ACL GEMM, Mali G72)",
        "Maximum slowdown over pruning distances 1..d for each profiled layer; "
        "the paper reports up to ~2x slowdown when pruning only 12% of channels.",
        model="resnet50",
        library="acl-gemm",
        device="hikey-970",
        prune_distances=FIGURE1_PRUNE_DISTANCES,
        metric="slowdown",
        paper={"max_value": 1.9, "min_value": 0.8},
        runs=runs,
        session=session,
    )


def fig06(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 6: speedups per ResNet-50 layer and distance, cuDNN on Jetson TX2."""

    return heatmap_experiment(
        "fig06",
        "Speedups from pruning ResNet-50 layers (cuDNN, Jetson TX2)",
        "Maximum speedup within each pruning distance; the paper reports 1.0x "
        "for small distances and up to 3.3x at a distance of 127 channels.",
        model="resnet50",
        library="cudnn",
        device="jetson-tx2",
        prune_distances=PAPER_PRUNE_DISTANCES,
        metric="speedup",
        paper={"max_value": 3.3, "min_value": 1.0},
        runs=runs,
        session=session,
    )


def fig08(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 8: speedups per VGG-16 layer, cuDNN on Jetson TX2."""

    return heatmap_experiment(
        "fig08",
        "Speedups from pruning VGG-16 layers (cuDNN, Jetson TX2)",
        "The paper reports up to 2.8x at a pruning distance of 127 channels.",
        model="vgg16",
        library="cudnn",
        device="jetson-tx2",
        prune_distances=PAPER_PRUNE_DISTANCES,
        metric="speedup",
        paper={"max_value": 2.8, "min_value": 0.9},
        runs=runs,
        session=session,
    )


def fig09(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 9: speedups per AlexNet layer, cuDNN on Jetson TX2."""

    return heatmap_experiment(
        "fig09",
        "Speedups from pruning AlexNet layers (cuDNN, Jetson TX2)",
        "The paper reports modest speedups (up to 1.4x).",
        model="alexnet",
        library="cudnn",
        device="jetson-tx2",
        prune_distances=PAPER_PRUNE_DISTANCES,
        metric="speedup",
        paper={"max_value": 1.4, "min_value": 1.0},
        runs=runs,
        session=session,
    )


def fig10(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 10: speedups per ResNet-50 layer, ACL Direct on HiKey 970."""

    return heatmap_experiment(
        "fig10",
        "Speedups from pruning ResNet-50 layers (ACL Direct convolution, HiKey 970)",
        "Pruning one channel causes slowdowns as low as 0.2x for 1x1 layers; "
        "deep pruning reaches ~17x.",
        model="resnet50",
        library="acl-direct",
        device="hikey-970",
        prune_distances=PAPER_PRUNE_DISTANCES,
        metric="speedup",
        paper={"max_value": 16.9, "min_value": 0.2},
        runs=runs,
        session=session,
    )


def fig11(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 11: speedups per VGG-16 layer, ACL Direct on HiKey 970."""

    return heatmap_experiment(
        "fig11",
        "Speedups from pruning VGG-16 layers (ACL Direct convolution, HiKey 970)",
        "The paper reports up to 14.7x at a pruning distance of 127 channels.",
        model="vgg16",
        library="acl-direct",
        device="hikey-970",
        prune_distances=PAPER_PRUNE_DISTANCES,
        metric="speedup",
        paper={"max_value": 14.7, "min_value": 0.8},
        runs=runs,
        session=session,
    )


def fig13(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 13: speedups per ResNet-50 layer, ACL GEMM on HiKey 970."""

    return heatmap_experiment(
        "fig13",
        "Speedups from pruning ResNet-50 layers (ACL GEMM, HiKey 970)",
        "No slowdowns near the original size; up to ~5x at a distance of 127.",
        model="resnet50",
        library="acl-gemm",
        device="hikey-970",
        prune_distances=PAPER_PRUNE_DISTANCES,
        metric="speedup",
        paper={"max_value": 5.2, "min_value": 0.8},
        runs=runs,
        session=session,
    )


def fig16(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 16: speedups per VGG-16 layer, ACL GEMM on HiKey 970."""

    return heatmap_experiment(
        "fig16",
        "Speedups from pruning VGG-16 layers (ACL GEMM, HiKey 970)",
        "The paper reports up to 4.2x at a pruning distance of 127 channels.",
        model="vgg16",
        library="acl-gemm",
        device="hikey-970",
        prune_distances=PAPER_PRUNE_DISTANCES,
        metric="speedup",
        paper={"max_value": 4.2, "min_value": 1.0},
        runs=runs,
        session=session,
    )


def fig17(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 17: speedups per AlexNet layer, ACL GEMM on HiKey 970."""

    return heatmap_experiment(
        "fig17",
        "Speedups from pruning AlexNet layers (ACL GEMM, HiKey 970)",
        "The paper reports up to 2.5x at a pruning distance of 127 channels.",
        model="alexnet",
        library="acl-gemm",
        device="hikey-970",
        prune_distances=PAPER_PRUNE_DISTANCES,
        metric="speedup",
        paper={"max_value": 2.5, "min_value": 1.0},
        runs=runs,
        session=session,
    )


def fig19(runs: int = 3, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 19: speedups per ResNet-50 layer, TVM on HiKey 970."""

    return heatmap_experiment(
        "fig19",
        "Speedups from pruning ResNet-50 layers (TVM, HiKey 970)",
        "TVM's untuned fallbacks cause near-zero 'speedups' (dramatic slowdowns) "
        "for some layers and distances, and up to ~14x speedups for others.",
        model="resnet50",
        library="tvm",
        device="hikey-970",
        prune_distances=TVM_PRUNE_DISTANCES,
        metric="speedup",
        paper={"max_value": 13.9, "min_value": 0.0},
        runs=runs,
        session=session,
    )


# ---------------------------------------------------------------------------
# Latency-vs-channels sweep figures
# ---------------------------------------------------------------------------
def fig02(runs: int = 5, step: int = 1, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 2: staircase for a large ResNet-50 layer, cuDNN on Jetson TX2."""

    return sweep_experiment(
        "fig02",
        "Staircase of inference time vs channels (ResNet-50 L26, cuDNN, Jetson TX2)",
        "A ~1000-filter layer shows a clean staircase: latency falls in steps as "
        "channels are pruned.",
        layer_index=26,
        library="cudnn",
        device="jetson-tx2",
        paper={"spread": 8.0},
        runs=runs,
        step=step,
        session=session,
    )


def fig03(runs: int = 5, step: int = 1, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 3: two parallel staircases, ResNet-50 L16, ACL GEMM on HiKey 970."""

    return sweep_experiment(
        "fig03",
        "Two parallel staircases (ResNet-50 L16, ACL GEMM, HiKey 970)",
        "The ACL GEMM kernel-split heuristic creates a second, slower staircase.",
        layer_index=16,
        library="acl-gemm",
        device="hikey-970",
        paper={"spread": 6.0},
        runs=runs,
        step=step,
        min_channels=16,
        session=session,
    )


def fig04(runs: int = 5, step: int = 1, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 4: cuDNN staircase for ResNet-50 L16 on Jetson TX2 (1.3x step)."""

    result = sweep_experiment(
        "fig04",
        "cuDNN staircase with a 1.3x step (ResNet-50 L16, Jetson TX2)",
        "Latency is flat above 97 channels, drops at 96 and again at 64.",
        layer_index=16,
        library="cudnn",
        device="jetson-tx2",
        runs=runs,
        step=step,
        extra_channels=(64, 96, 97, 128),
        session=session,
    )
    counts = result.data["channel_counts"]
    times = result.data["times_ms"]
    series = dict(zip(counts, times))
    result.measured["step_ratio_96"] = series[128] / series[96]
    result.paper["step_ratio_96"] = 1.3
    result.measured["step_ratio_64"] = series[96] / series[64]
    return result


def fig05(runs: int = 5, step: int = 1, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 5: cuDNN staircase for ResNet-50 L14 (512 filters) on Jetson TX2."""

    return sweep_experiment(
        "fig05",
        "cuDNN staircase with uneven steps (ResNet-50 L14, Jetson TX2)",
        "More stairs than Figure 4 (larger layer) with uneven gaps between them.",
        layer_index=14,
        library="cudnn",
        device="jetson-tx2",
        paper={"spread": 7.0},
        runs=runs,
        step=step,
        session=session,
    )


def fig07(runs: int = 5, step: int = 1, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 7: the same staircase on the Jetson Nano (ResNet-50 L14).

    The comparison is expressed as a declarative one-step
    :class:`repro.api.Plan` fanning one layer across both Jetson
    targets, run by :meth:`Session.execute` — the same JSON-serializable
    job ``repro-experiments run-plan`` runs.
    """

    from ..api.plan import Plan

    ref = resnet_layer(14, session=session)
    nano = Target("jetson-nano", "cudnn", runs=runs)
    tx2 = Target("jetson-tx2", "cudnn", runs=runs)
    plan = Plan()
    sweep_step_node = plan.sweep((nano, tx2), ref.spec, sweep_step=step)
    table = execute_plan(plan, session=session)[sweep_step_node.id]
    curve = curve_from_table(table.profile(nano, ref.spec.name).table, ref.label)
    tx2_curve = curve_from_table(table.profile(tx2, ref.spec.name).table, ref.label)

    fast, slow, gap = curve.largest_adjacent_gap()
    measured = {
        "min_time_ms": curve.min_time_ms,
        "max_time_ms": curve.max_time_ms,
        "spread": curve.spread,
        "largest_adjacent_gap": gap,
        "nano_vs_tx2_scaling": curve.max_time_ms / tx2_curve.max_time_ms,
    }
    data = {
        "layer": ref.label,
        "device": curve.device_name,
        "library": curve.library_name,
        "channel_counts": list(curve.channel_counts),
        "times_ms": list(curve.times_ms),
        "largest_gap": {"fast_channels": fast, "slow_channels": slow, "ratio": gap},
        "tx2_reference_max_ms": tx2_curve.max_time_ms,
        "per_target_rows": list(table.rows),
    }
    return ExperimentResult(
        experiment_id="fig07",
        title="cuDNN staircase on the Jetson Nano (ResNet-50 L14)",
        description=(
            "The Nano shows the same pattern as the TX2, scaled by its lower "
            "compute throughput (similar GPU architectures)."
        ),
        data=data,
        text=curve.format(),
        measured=measured,
        paper={"nano_vs_tx2_scaling": 3.5},
    )


def fig12(runs: int = 5, step: int = 1, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 12: three alternating execution levels, ACL Direct, HiKey 970."""

    result = sweep_experiment(
        "fig12",
        "Three execution levels (ResNet-50 L14, ACL Direct convolution, HiKey 970)",
        "The workgroup-size heuristic produces three alternating latency levels.",
        layer_index=14,
        library="acl-direct",
        device="hikey-970",
        paper={"level_ratio": 1.9, "levels": 3.0},
        runs=runs,
        step=step,
        min_channels=64,
        session=session,
    )
    times = result.data["times_ms"]
    tail = times[-min(len(times), 96):]
    levels = cluster_levels(tail, relative_tolerance=0.15)
    result.measured["levels"] = float(len(levels))
    result.measured["level_ratio"] = max(levels) / min(levels)
    result.data["level_times_ms"] = levels
    return result


def fig14(runs: int = 5, step: int = 1, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 14: ACL GEMM parallel staircases with annotated points (L16)."""

    result = sweep_experiment(
        "fig14",
        "ACL GEMM parallel staircases with vec4 groups (ResNet-50 L16, HiKey 970)",
        "Channels 93-96 run much faster than 92 or 97; 78 runs 1.83x faster "
        "than 76 despite having more channels.",
        layer_index=16,
        library="acl-gemm",
        device="hikey-970",
        runs=runs,
        step=step,
        min_channels=16,
        extra_channels=(76, 78, 92, 93, 96, 97),
        session=session,
    )
    series = dict(zip(result.data["channel_counts"], result.data["times_ms"]))
    result.measured["gap_92_vs_93"] = series[92] / series[93]
    result.measured["gap_97_vs_96"] = series[97] / series[96]
    result.measured["speedup_78_vs_76"] = series[76] / series[78]
    result.paper.update(
        {"gap_92_vs_93": 23.0 / 14.0, "gap_97_vs_96": 23.0 / 14.0, "speedup_78_vs_76": 1.83}
    )
    return result


def fig15(runs: int = 5, step: int = 4, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 15: large latency gap between 2024 and 2036 channels (L45)."""

    result = sweep_experiment(
        "fig15",
        "Large gap between nearby channel counts (ResNet-50 L45, ACL GEMM, HiKey 970)",
        "The paper measures 19.69 ms at 2036 channels vs 7.67 ms at 2024 (2.57x).",
        layer_index=45,
        library="acl-gemm",
        device="hikey-970",
        runs=runs,
        step=step,
        min_channels=1024,
        extra_channels=(2024, 2036),
        session=session,
    )
    series = dict(zip(result.data["channel_counts"], result.data["times_ms"]))
    result.measured["gap_2036_vs_2024"] = series[2036] / series[2024]
    result.paper["gap_2036_vs_2024"] = 2.57
    return result


def fig20(runs: int = 5, step: int = 1, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 20: TVM fallback spikes for ResNet-50 L14 on HiKey 970."""

    result = sweep_experiment(
        "fig20",
        "TVM untuned-configuration spikes (ResNet-50 L14, HiKey 970)",
        "Most channel counts use a tuned schedule; a significant fraction fall "
        "back to a direct-convolution-style schedule roughly 10x slower.",
        layer_index=14,
        library="tvm",
        device="hikey-970",
        paper={"local_spike_ratio": 10.5},
        runs=runs,
        step=step,
        session=session,
    )
    times = result.data["times_ms"]
    # Spikes are measured against the tuned neighbourhood (window of 17
    # points), since the absolute time also grows with the channel count.
    spike = 1.0
    slow_points = 0
    for index, time in enumerate(times):
        window = times[max(0, index - 8): index + 9]
        local_floor = min(window)
        spike = max(spike, time / local_floor)
        if time > 3.0 * local_floor:
            slow_points += 1
    result.measured["local_spike_ratio"] = spike
    result.measured["fallback_fraction"] = slow_points / len(times)
    result.data["fallback_fraction"] = result.measured["fallback_fraction"]
    return result


# ---------------------------------------------------------------------------
# Figure 18: system-level counters from the GPU simulator
# ---------------------------------------------------------------------------
def fig18(runs: int = 5, session: Optional[Session] = None) -> ExperimentResult:
    """Figure 18: relative system-level counters for 92/93/96/97 channels."""

    ref = resnet_layer(16, session=session)
    device = DEVICES.get("hikey-970")
    library = LIBRARIES.create("acl-gemm")
    simulator = GpuSimulator(device)
    results = {}
    for channels in (92, 93, 96, 97):
        plan = library.plan_with_channels(ref.spec, channels, device)
        results[f"{channels} Channels"] = simulator.simulate(plan)
    rows = relative_system_counters(results, baseline_label="93 Channels")

    lines = [
        "Relative system-level results (baseline: 93 channels)",
        f"{'Configuration':>16} {'Jobs':>6} {'CtrlRd':>8} {'CtrlWr':>8} {'IRQs':>6} {'Runtime':>9}",
    ]
    data: Dict[str, Dict[str, float]] = {}
    for row in rows:
        data[row.label] = row.as_dict()
        lines.append(
            f"{row.label:>16} {row.jobs:>6.2f} {row.control_register_reads:>8.2f} "
            f"{row.control_register_writes:>8.2f} {row.interrupts:>6.2f} {row.runtime:>9.2f}"
        )

    measured = {
        "jobs_92_relative": data["92 Channels"]["jobs"],
        "jobs_97_relative": data["97 Channels"]["jobs"],
        "jobs_96_relative": data["96 Channels"]["jobs"],
        "runtime_92_relative": data["92 Channels"]["runtime"],
        "runtime_97_relative": data["97 Channels"]["runtime"],
    }
    paper = {
        "jobs_92_relative": 2.0,
        "jobs_97_relative": 2.0,
        "jobs_96_relative": 1.0,
        "runtime_92_relative": 23.0 / 14.0,
        "runtime_97_relative": 23.0 / 14.0,
    }
    return ExperimentResult(
        experiment_id="fig18",
        title="Relative system-level counters for the GEMM split (ResNet-50 L16)",
        description=(
            "Extra GPU jobs are dispatched for 92 and 97 channels; control register "
            "traffic and interrupts scale with the job count, and runtime roughly "
            "doubles relative to the single-job configurations (93 and 96 channels)."
        ),
        data={"relative": data, "runs": runs},
        text="\n".join(lines),
        measured=measured,
        paper=paper,
    )
