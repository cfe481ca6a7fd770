"""Tests for the Session: cache behaviour and the pruning pipeline."""

import pytest

from repro.api import PruningRequest, Session, Target
from repro.core import PerformanceAwarePruner
from repro.models import ConvLayerSpec, MODELS

TARGET = Target("hikey-970", "acl-gemm")

#: A small layer so full sweeps stay fast.
SMALL_LAYER = ConvLayerSpec(
    name="test.session.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)


@pytest.fixture()
def session():
    return Session()


class TestProfileCache:
    def test_same_layer_twice_is_one_miss_one_hit(self, session):
        first = session.profile_layer(TARGET, SMALL_LAYER)
        second = session.profile_layer(TARGET, SMALL_LAYER)
        assert second is first
        stats = session.cache_stats
        assert (stats.misses, stats.hits, stats.evictions) == (1, 1, 0)

    def test_different_targets_do_not_share_entries(self, session):
        session.profile_layer(TARGET, SMALL_LAYER)
        session.profile_layer(Target("odroid-xu4", "acl-gemm"), SMALL_LAYER)
        assert session.cache_stats.misses == 2
        assert session.cache_stats.hits == 0

    def test_different_runs_are_different_targets(self, session):
        session.profile_layer(TARGET, SMALL_LAYER)
        session.profile_layer(TARGET.with_runs(5), SMALL_LAYER)
        assert session.cache_stats.misses == 2

    def test_different_sweeps_are_different_entries(self, session):
        session.profile_layer(TARGET, SMALL_LAYER, sweep_step=1)
        session.profile_layer(TARGET, SMALL_LAYER, sweep_step=4)
        session.profile_layer(TARGET, SMALL_LAYER, channel_counts=[8, 16, 24])
        assert session.cache_stats.misses == 3

    @pytest.mark.parametrize("step", [0, -4])
    def test_sweep_step_below_one_is_rejected(self, session, step):
        layer16 = MODELS.create("resnet50").conv_layer(16).spec
        with pytest.raises(ValueError, match="sweep step must be >= 1"):
            session.profile_layer(TARGET, layer16, sweep_step=step)
        assert session.cache_stats.misses == 0

    def test_lru_eviction_counts(self):
        session = Session(max_cache_entries=1)
        other = ConvLayerSpec(
            name="test.session.conv2", in_channels=16, out_channels=24,
            kernel_size=1, stride=1, padding=0, input_hw=14,
        )
        session.profile_layer(TARGET, SMALL_LAYER)
        session.profile_layer(TARGET, other)        # evicts SMALL_LAYER
        session.profile_layer(TARGET, SMALL_LAYER)  # miss again
        stats = session.cache_stats
        assert stats.evictions == 2
        assert stats.misses == 3

    def test_invalid_max_cache_entries(self):
        with pytest.raises(ValueError):
            Session(max_cache_entries=0)

    def test_clear_cache_resets_everything(self, session):
        session.profile_layer(TARGET, SMALL_LAYER)
        session.clear_cache()
        assert session.cache_size() == 0
        assert session.cache_stats.as_dict() == {"hits": 0, "misses": 0, "evictions": 0}

    def test_hit_rate(self, session):
        assert session.cache_stats.hit_rate == 0.0
        session.profile_layer(TARGET, SMALL_LAYER)
        session.profile_layer(TARGET, SMALL_LAYER)
        assert session.cache_stats.hit_rate == 0.5

    def test_latency_table_and_staircase_share_the_profile(self, session):
        table = session.latency_table(TARGET, SMALL_LAYER)
        analysis = session.staircase(TARGET, SMALL_LAYER)
        assert session.cache_stats.misses == 1
        assert session.cache_stats.hits == 1
        assert table.max_channels == SMALL_LAYER.out_channels
        assert analysis.level_count >= 1


class TestResolution:
    def test_runner_is_shared_per_target(self, session):
        assert session.runner(TARGET) is session.runner(("hikey-970", "acl-gemm"))
        assert session.runner(TARGET) is not session.runner(TARGET.with_runs(9))

    def test_network_is_cached(self, session):
        assert session.network("resnet50") is session.network("resnet")

    def test_pruner_is_cached_per_target_and_criterion(self, session):
        assert session.pruner(TARGET) is session.pruner(TARGET)
        assert session.pruner(TARGET) is not session.pruner(TARGET, criterion="l1")

    def test_pruner_shares_session_runner(self, session):
        assert session.pruner(TARGET).runner is session.runner(TARGET)


class TestPruningPipeline:
    def test_prune_matches_legacy_pruner_on_resnet50(self, session):
        request = PruningRequest(
            "resnet50", TARGET, fraction=0.28, layer_indices=(15, 16)
        )
        report = session.prune(request)

        legacy = PerformanceAwarePruner("hikey-970", "acl-gemm", runs=3)
        outcome = legacy.prune_performance_aware_fraction(
            MODELS.create("resnet50"), 0.28, [15, 16]
        )
        assert report.channels == outcome.channels
        assert report.latency_ms == pytest.approx(outcome.latency_ms, rel=1e-12)
        assert report.baseline_latency_ms == pytest.approx(
            outcome.baseline_latency_ms, rel=1e-12
        )
        assert report.predicted_accuracy == pytest.approx(
            outcome.predicted_accuracy, rel=1e-12
        )

    def test_uninstructed_strategy_matches_legacy(self, session):
        request = PruningRequest(
            "resnet50", TARGET, strategy="uninstructed",
            fraction=0.28, layer_indices=(15, 16),
        )
        report = session.prune(request)
        legacy = PerformanceAwarePruner("hikey-970", "acl-gemm", runs=3)
        outcome = legacy.prune_uninstructed(MODELS.create("resnet50"), 0.28, [15, 16])
        assert report.channels == outcome.channels
        assert report.latency_ms == pytest.approx(outcome.latency_ms, rel=1e-12)

    def test_latency_budget_strategy(self, session):
        baseline = session.prune(
            PruningRequest("resnet50", TARGET, fraction=0.28, layer_indices=(16,))
        ).baseline_latency_ms
        request = PruningRequest(
            "resnet50", TARGET, strategy="latency-budget",
            latency_budget_ms=baseline * 0.8, layer_indices=(16,),
        )
        report = session.prune(request)
        assert report.latency_ms <= baseline * 0.8

    def test_compare_runs_both_strategies(self, session):
        request = PruningRequest(
            "resnet50", TARGET, fraction=0.28, layer_indices=(16,)
        )
        comparison = session.compare(request)
        assert set(comparison.reports) == {"performance-aware", "uninstructed"}
        # Layer 16 pruned to 92 channels lands past a step: the
        # performance-aware strategy must win (the paper's Figure 1).
        assert comparison.latency_advantage > 1.0

    def test_compare_rejects_empty_strategies(self, session):
        request = PruningRequest("resnet50", TARGET, fraction=0.28)
        with pytest.raises(ValueError):
            session.compare(request, strategies=())

    def test_coarse_sweep_does_not_poison_later_fine_sweep(self, session):
        """Profiles are cached per sweep_step, not just per layer."""

        coarse = PruningRequest(
            "resnet50", TARGET, fraction=0.5, layer_indices=(16,), sweep_step=9
        )
        fine = PruningRequest(
            "resnet50", TARGET, fraction=0.4, layer_indices=(16,), sweep_step=1
        )
        session.prune(coarse)
        report = session.prune(fine)
        legacy = PerformanceAwarePruner("hikey-970", "acl-gemm", runs=3)
        outcome = legacy.prune_performance_aware_fraction(
            MODELS.create("resnet50"), 0.4, [16]
        )
        assert report.channels == outcome.channels

    def test_off_grid_naive_target_with_coarse_sweep(self, session):
        """A sweep grid that misses the naive target must not crash."""

        request = PruningRequest(
            "resnet50", TARGET, fraction=0.28, layer_indices=(16,), sweep_step=16
        )
        report = session.prune(request)
        assert 1 <= report.channels[16] <= 128

    def test_repeated_requests_reuse_the_pruner_cache(self, session):
        request = PruningRequest(
            "resnet50", TARGET, fraction=0.28, layer_indices=(16,)
        )
        first = session.prune(request)
        second = session.prune(request)
        assert first.channels == second.channels
        assert first.latency_ms == second.latency_ms
