"""Benchmarks for the paper's Section V proposal: performance-aware pruning."""

from conftest import run_benchmarked

from repro.api import Target
from repro.core import PerformanceAwarePruner
from repro.models import MODELS


def test_proposal_comparison(benchmark):
    """Performance-aware vs uninstructed pruning across all four targets."""

    result = run_benchmarked(benchmark, "proposal_comparison", fraction=0.12, runs=1)
    rows = result.data["rows"]
    assert any(row["uninstructed_speedup"] < 1.0 for row in rows)
    assert all(row["aware_speedup"] >= 0.999 for row in rows)


def test_proposal_pareto_frontier(benchmark):
    """Profiling collapses the search space to a latency/accuracy frontier."""

    result = run_benchmarked(benchmark, "proposal_pareto", runs=1)
    assert result.measured["frontier_size"] >= 1
    assert result.measured["best_speedup"] > 1.5


def test_latency_budget_compression(benchmark):
    """Greedy latency-budget compression of a ResNet-50 layer subset."""

    network = MODELS.create("resnet50")
    layer_indices = [15, 16, 24]

    def compress():
        pruner = PerformanceAwarePruner(Target("hikey-970", "acl-gemm", runs=1))
        baseline = pruner.network_latency_ms(network, layer_indices=layer_indices)
        return pruner.prune_for_latency(
            network, baseline * 0.75, layer_indices=layer_indices
        ), baseline

    (outcome, baseline) = benchmark.pedantic(compress, rounds=1, iterations=1)
    assert outcome.latency_ms <= baseline * 0.7525
    assert outcome.predicted_accuracy > 0.5


def test_layer_profile_sweep(benchmark):
    """Cost of profiling one 512-filter layer across every channel count."""

    network = MODELS.create("resnet50")
    layer = network.conv_layer(14).spec

    def sweep():
        pruner = PerformanceAwarePruner(Target("jetson-tx2", "cudnn", runs=3))
        return pruner.profile_layer(layer, 14)

    profile = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(profile.table) == 512
