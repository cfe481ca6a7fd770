"""Tests for the performance-aware pruning optimiser and the search utilities."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.api import Plan, PruningRequest, Session, Target
from repro.core import (
    Candidate,
    ChannelPruner,
    OptimizationError,
    PerformanceAwarePruner,
    PruningSearch,
    pareto_frontier,
)
from repro.core.staircase import DEFAULT_STEP_THRESHOLD
from repro.models import MODELS
from repro.profiling import ProfileRunner, sweep_counts


@pytest.fixture(scope="module")
def gemm_pruner():
    """ACL GEMM on the HiKey 970: the target with parallel staircases."""

    return PerformanceAwarePruner(Target("hikey-970", "acl-gemm", runs=2))


@pytest.fixture(scope="module")
def cudnn_pruner():
    return PerformanceAwarePruner(Target("jetson-tx2", "cudnn", runs=2))


@pytest.fixture(scope="module")
def resnet():
    return MODELS.create("resnet50")


class TestConstruction:
    def test_takes_a_target_only(self):
        with pytest.raises(TypeError, match="takes a Target"):
            PerformanceAwarePruner("hikey-970", "acl-gemm")

    def test_default_runner_is_the_targets(self):
        target = Target("jetson-tx2", "cudnn", runs=4)
        runner = PerformanceAwarePruner(target).runner
        assert (runner.device.name, runner.library.name, runner.runs) == (
            "jetson-tx2", "cudnn", 4
        )


class TestLayerProfiles:
    def test_profile_contains_all_channel_counts(self, gemm_pruner, layer16):
        profile = gemm_pruner.profile_layer(layer16, 16)
        assert len(profile.table) == 128
        assert profile.original_time_ms > 0

    def test_a_repeated_profile_is_served_by_the_runner(self, gemm_pruner, layer16):
        first = gemm_pruner.profile_layer(layer16, 16)
        simulated = gemm_pruner.runner.simulations
        second = gemm_pruner.profile_layer(layer16, 16)
        assert gemm_pruner.runner.simulations == simulated
        assert second.table.as_series() == first.table.as_series()

    def test_the_cache_keys_on_the_whole_spec(self, layer16):
        """A spec differing only in ``in_channels`` gets its own profile."""

        pruner = PerformanceAwarePruner(Target("hikey-970", "acl-gemm"))
        narrow = replace(layer16, in_channels=layer16.in_channels // 2)
        wide_profile = pruner.profile_layer(layer16)
        narrow_profile = pruner.profile_layer(narrow)
        truth = Session().profile_layer(Target("hikey-970", "acl-gemm"), narrow)
        assert narrow_profile.original_time_ms == truth.original_time_ms
        assert narrow_profile.original_time_ms < wide_profile.original_time_ms
        simulated = pruner.runner.simulations
        assert pruner.profile_layer(narrow, sweep_step=1).table.as_series() == (
            narrow_profile.table.as_series()
        )
        assert pruner.runner.simulations == simulated

    def test_empty_sweep_rejected_up_front(self, gemm_pruner, layer16):
        with pytest.raises(OptimizationError, match="empty channel sweep"):
            gemm_pruner.profile_layer(layer16, 16, channel_counts=[])

    def test_optimal_counts_are_plateau_edges(self, cudnn_pruner, layer16):
        profile = cudnn_pruner.profile_layer(layer16, 16)
        assert {32, 64, 96, 128}.issubset(set(profile.optimal_channel_counts))

    def test_speedup_at_fewer_channels(self, cudnn_pruner, layer16):
        profile = cudnn_pruner.profile_layer(layer16, 16)
        assert profile.table.speedup(96) > 1.2
        assert profile.table.speedup(128) == pytest.approx(1.0)


class TestSingleLayerSelection:

    def test_snap_moves_right_along_plateau(self, cudnn_pruner, layer16):
        # 70 channels costs the same as 96 under cuDNN's 32-wide tiles, so
        # the snap keeps the extra channels for free.
        assert cudnn_pruner.snap_to_step(layer16, 70) == 96

    def test_snap_never_lands_on_slower_plateau(self, gemm_pruner, layer16):
        profile = gemm_pruner.profile_layer(layer16, 16)
        snapped = gemm_pruner.snap_to_step(layer16, 92)
        assert profile.time_at(snapped) <= profile.time_at(92) * 1.001
        assert snapped >= 92

    def test_snap_with_off_grid_target_on_coarse_sweep(self, gemm_pruner, layer16):
        """A coarse sweep grid that misses the target still snaps safely.

        91 is off the step-16 grid; the runner measures it directly and
        the snap may only move to a count at least as fast.
        """

        snapped = gemm_pruner.snap_to_step(layer16, 91, sweep_step=16)
        assert 91 <= snapped <= layer16.out_channels
        target_time = gemm_pruner.runner.measure(layer16, 91).median_time_ms
        snapped_time = gemm_pruner.runner.measure(layer16, snapped).median_time_ms
        assert snapped_time <= target_time * 1.001

    def test_snap_plateau_tolerance_boundary(self, gemm_pruner, layer16):
        """Only counts within the 0.1% plateau tolerance are eligible.

        Every snapped-to candidate must sit within ``target_time * 1.001``
        — the tolerance that separates "same plateau" from "next step".
        """

        profile = gemm_pruner.profile_layer(layer16, 16)
        for target in (40, 60, 90):
            snapped = gemm_pruner.snap_to_step(layer16, target)
            target_time = gemm_pruner.runner.measure(layer16, target).median_time_ms
            if snapped != target:
                assert snapped in profile.optimal_channel_counts
                assert profile.time_at(snapped) <= target_time * 1.001

    def test_snap_at_full_width_is_a_noop(self, gemm_pruner, cudnn_pruner, layer16):
        """target_channels == spec.out_channels cannot move anywhere."""

        assert gemm_pruner.snap_to_step(layer16, layer16.out_channels) == layer16.out_channels
        assert cudnn_pruner.snap_to_step(layer16, layer16.out_channels) == layer16.out_channels

    def test_snap_validates_target(self, gemm_pruner, layer16):
        with pytest.raises(OptimizationError):
            gemm_pruner.snap_to_step(layer16, 0)
        with pytest.raises(OptimizationError):
            gemm_pruner.snap_to_step(layer16, 1000)


class TestNetworkCompression:
    LAYERS = [15, 16]

    def test_network_latency_sums_layers(self, gemm_pruner, resnet):
        total = gemm_pruner.network_latency_ms(resnet, layer_indices=self.LAYERS)
        parts = [
            gemm_pruner.runner.measure(resnet.conv_layer(i).spec).median_time_ms
            for i in self.LAYERS
        ]
        assert total == pytest.approx(sum(parts))

    def test_prune_for_latency_meets_budget(self, gemm_pruner, resnet):
        baseline = gemm_pruner.network_latency_ms(resnet, layer_indices=self.LAYERS)
        outcome = gemm_pruner.prune_for_latency(
            resnet, baseline * 0.7, layer_indices=self.LAYERS
        )
        assert outcome.latency_ms <= baseline * 0.7 * 1.001
        assert outcome.speedup > 1.0
        assert outcome.predicted_accuracy <= outcome.baseline_accuracy

    def test_prune_for_latency_uses_step_optimal_counts(self, gemm_pruner, resnet):
        baseline = gemm_pruner.network_latency_ms(resnet, layer_indices=self.LAYERS)
        outcome = gemm_pruner.prune_for_latency(
            resnet, baseline * 0.75, layer_indices=self.LAYERS
        )
        for index, channels in outcome.channels.items():
            profile = gemm_pruner.profile_layer(resnet.conv_layer(index).spec, index)
            assert channels in profile.optimal_channel_counts

    def test_impossible_budget_raises(self, gemm_pruner, resnet):
        with pytest.raises(OptimizationError):
            gemm_pruner.prune_for_latency(resnet, 1e-6, layer_indices=self.LAYERS)

    def test_uninstructed_pruning_can_slow_down(self, gemm_pruner, resnet):
        """The paper's warning: ~12% uniform pruning lands on the slow staircase."""

        outcome = gemm_pruner.prune_uninstructed(resnet, 0.12, layer_indices=self.LAYERS)
        assert outcome.speedup < 1.0

    def test_performance_aware_never_slower_than_baseline(self, gemm_pruner, resnet):
        outcome = gemm_pruner.prune_performance_aware_fraction(
            resnet, 0.12, layer_indices=self.LAYERS
        )
        assert outcome.latency_ms <= outcome.baseline_latency_ms * 1.001

    def test_comparison_favours_performance_aware(self, gemm_pruner, resnet):
        comparison = gemm_pruner.compare_with_uninstructed(
            resnet, 0.12, layer_indices=self.LAYERS
        )
        assert comparison.latency_advantage >= 1.0
        assert (
            comparison.performance_aware.predicted_accuracy
            >= comparison.uninstructed.predicted_accuracy
        )

    @pytest.mark.parametrize("prune", ["prune_performance_aware_fraction", "prune_uninstructed"])
    def test_fraction_prune_latencies_equal_network_latency(self, gemm_pruner, resnet, prune):
        # Each layer's pruned and full time come from one runner read;
        # the sums must still equal the layer-by-layer sums bitwise.
        outcome = getattr(gemm_pruner, prune)(resnet, 0.25)
        assert outcome.latency_ms == gemm_pruner.network_latency_ms(resnet, outcome.channels)
        assert outcome.baseline_latency_ms == gemm_pruner.network_latency_ms(resnet)
        assert type(outcome.latency_ms) is type(outcome.baseline_latency_ms) is float

    def test_outcome_plan_matches_channels(self, gemm_pruner, resnet):
        outcome = gemm_pruner.prune_performance_aware_fraction(
            resnet, 0.2, layer_indices=self.LAYERS
        )
        plan = ChannelPruner(gemm_pruner.criterion).plan_network(resnet, outcome.channels)
        assert plan.channels_after() == outcome.channels


class TestParetoSearch:
    def test_dominance(self):
        fast_accurate = Candidate(channels={}, latency_ms=1.0, predicted_accuracy=0.8)
        slow_inaccurate = Candidate(channels={}, latency_ms=2.0, predicted_accuracy=0.7)
        assert fast_accurate.dominates(slow_inaccurate)
        assert not slow_inaccurate.dominates(fast_accurate)

    def test_no_self_domination(self):
        candidate = Candidate(channels={}, latency_ms=1.0, predicted_accuracy=0.8)
        assert not candidate.dominates(candidate)

    def test_pareto_frontier_filters_dominated(self):
        candidates = [
            Candidate(channels={}, latency_ms=1.0, predicted_accuracy=0.7),
            Candidate(channels={}, latency_ms=2.0, predicted_accuracy=0.75),
            Candidate(channels={}, latency_ms=3.0, predicted_accuracy=0.74),  # dominated
        ]
        frontier = pareto_frontier(candidates)
        assert len(frontier) == 2
        assert frontier[0].latency_ms == 1.0

    def test_search_exhaustive_and_frontier(self, gemm_pruner, resnet):
        search = PruningSearch(
            pruner=gemm_pruner,
            network=resnet,
            layer_indices=[15, 16],
            max_levels_per_layer=3,
        )
        candidates = search.exhaustive()
        assert len(candidates) == 9
        frontier = search.frontier()
        assert 1 <= len(frontier) <= len(candidates)
        latencies = [candidate.latency_ms for candidate in frontier]
        accuracies = [candidate.predicted_accuracy for candidate in frontier]
        assert latencies == sorted(latencies)
        assert accuracies == sorted(accuracies)

    def test_search_validates_inputs(self, gemm_pruner, resnet):
        with pytest.raises(ValueError):
            PruningSearch(pruner=gemm_pruner, network=resnet, layer_indices=[])
        with pytest.raises(ValueError):
            PruningSearch(
                pruner=gemm_pruner, network=resnet, layer_indices=[16], max_levels_per_layer=0
            )

    def test_layer_options_start_from_original(self, gemm_pruner, resnet):
        search = PruningSearch(
            pruner=gemm_pruner, network=resnet, layer_indices=[16], max_levels_per_layer=4
        )
        options = search.layer_options(16)
        assert options[0] == 128
        assert options == sorted(options, reverse=True)


class TestAnalysisOncePerTable:
    """Each (target, layer) latency table goes through analyze_table once.

    LayerProfile.optimal_channel_counts used to re-run the analysis on
    every access, so snap_to_step analysed each table twice and the
    latency-budget loop re-analysed every layer on every iteration.
    """

    TARGET = Target("hikey-970", "acl-gemm", runs=2)

    @pytest.fixture
    def analysed(self, monkeypatch):
        from repro.api import session as session_mod
        from repro.core import perf_aware, staircase

        calls = Counter()
        original = staircase.analyze_table

        def counting(table, *args, **kwargs):
            calls[(table.device_name, table.library_name, table.layer_name)] += 1
            return original(table, *args, **kwargs)

        for module in (session_mod, perf_aware, staircase):
            monkeypatch.setattr(module, "analyze_table", counting)
        return calls

    def _request(self, strategy, **kwargs):
        return PruningRequest(
            "alexnet", self.TARGET, strategy=strategy, sweep_step=2, **kwargs
        )

    @pytest.mark.parametrize("strategy", ["performance-aware", "uninstructed", "latency-budget"])
    def test_each_table_analysed_once(self, analysed, strategy):
        if strategy == "latency-budget":
            baseline = Session().prune(self._request("uninstructed", fraction=0.25))
            request = self._request(
                strategy, latency_budget_ms=0.6 * baseline.baseline_latency_ms
            )
        else:
            request = self._request(strategy, fraction=0.25)
        analysed.clear()
        Session().prune(request)
        assert set(analysed.values()) <= {1}, analysed
        if strategy != "uninstructed":
            layers = MODELS.create("alexnet").conv_layer_indices
            assert len(analysed) == len(layers)


class TestLatencyBudgetLoop:
    """The greedy latency-budget loop on AlexNet, HiKey 970 / ACL-direct.

    ACL-direct curves are sawtooths with hundreds of plateau edges per
    layer, so a loop that looks up every level's latency on every move
    makes thousands of table lookups here.
    """

    TARGET = Target("hikey-970", "acl-direct")
    BUDGET_MS = 138.74088668655423  # 60% of the unpruned conv latency

    def test_table_lookups_are_per_layer_not_per_level(self, monkeypatch):
        from repro.profiling import LatencyTable

        calls = Counter()
        for name in ("time_ms", "times_ms"):
            original = getattr(LatencyTable, name)

            def counting(table, *args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(table, *args, **kwargs)

            monkeypatch.setattr(LatencyTable, name, counting)
        alexnet = MODELS.create("alexnet")
        outcome = PerformanceAwarePruner(self.TARGET).prune_for_latency(alexnet, self.BUDGET_MS)
        layers = alexnet.conv_layer_indices
        # Each pruned layer took at least one greedy move.
        moves = sum(outcome.channels[i] < alexnet.conv_layer(i).spec.out_channels for i in layers)
        assert moves == len(layers)
        assert sum(calls.values()) <= 2 * len(layers) * moves, calls

    def test_report_is_pinned(self):
        """The report the per-level lookup loop gave, reproduced bitwise."""

        report = Session().prune(
            PruningRequest(
                "alexnet", self.TARGET, strategy="latency-budget", latency_budget_ms=self.BUDGET_MS
            )
        )
        assert report.channels == {0: 24, 3: 44, 6: 312, 8: 208, 10: 208}
        assert report.latency_ms == 138.67794894610685
        assert report.baseline_latency_ms == 231.23481114425707
        assert report.predicted_accuracy == 0.544020656087545


#: The 12-step plan: three zoo models on four targets at fraction 0.25.
PLAN_MODELS = ("resnet50", "vgg16", "alexnet")
PLAN_TARGETS = (
    Target("hikey-970", "acl-gemm"),
    Target("hikey-970", "acl-direct"),
    Target("hikey-970", "tvm"),
    Target("jetson-tx2", "cudnn"),
)


def full_sweep_snap(runner, spec, target_channels, sweep_step=1):
    """The snap as it was before it measured only the suffix, in plain
    Python: measure the whole ``1..C`` grid, take every plateau's right
    edge, and keep the largest one at or above the target that is no
    slower than the target."""

    counts = list(sweep_counts(spec.out_channels, step=sweep_step))
    times = runner.measure_many(spec, counts).median.tolist()
    edges = [
        counts[i - 1]
        for i in range(1, len(counts))
        if abs(times[i] - times[i - 1]) / times[i - 1] > DEFAULT_STEP_THRESHOLD
    ] + [counts[-1]]
    time_at = dict(zip(counts, times))
    target_time = runner.measure(spec, target_channels).median_time_ms
    fits = [c for c in edges if c >= target_channels and time_at[c] <= target_time * 1.001]
    return fits[-1] if fits else target_channels


class TestSnapFromTheSuffix:
    """``snap_to_step`` measures only the grid counts at or above its
    target and still returns what the full sweep returned."""

    @pytest.mark.parametrize("target", PLAN_TARGETS, ids=str)
    def test_matches_the_full_sweep_on_every_zoo_layer(self, target):
        pruner = PerformanceAwarePruner(target)
        reference = ProfileRunner.for_target(target)
        for model in PLAN_MODELS:
            network = MODELS.create(model)
            for index in network.conv_layer_indices:
                spec = network.conv_layer(index).spec
                for fraction in (0.12, 0.25, 0.5):
                    naive = max(1, round(spec.out_channels * (1.0 - fraction)))
                    assert pruner.snap_to_step(spec, naive) == full_sweep_snap(
                        reference, spec, naive
                    ), (model, index, fraction)

    @pytest.mark.parametrize("sweep_step", [16, 7])
    def test_matches_the_full_sweep_on_a_coarse_grid(self, layer16, sweep_step):
        # An off-grid target (91 at step 16) filters the 1-based grid;
        # restarting the grid at the target moves the snap on this
        # layer at step 7.
        pruner = PerformanceAwarePruner(Target("hikey-970", "acl-gemm", runs=2))
        reference = ProfileRunner.create("hikey-970", "acl-gemm", runs=2)
        for naive in range(1, layer16.out_channels + 1):
            assert pruner.snap_to_step(layer16, naive, sweep_step=sweep_step) == (
                full_sweep_snap(reference, layer16, naive, sweep_step)
            ), naive


class TestOneProfileConstructor:
    """``Session.profile_layer`` and ``PerformanceAwarePruner.profile_layer``
    both build through ``LayerProfile.build`` on a memoising runner."""

    @pytest.mark.parametrize("target", PLAN_TARGETS, ids=str)
    def test_session_and_pruner_agree_on_every_zoo_layer(self, target):
        session = Session()
        pruner = PerformanceAwarePruner(target)
        for model in PLAN_MODELS:
            network = MODELS.create(model)
            for index in network.conv_layer_indices:
                spec = network.conv_layer(index).spec
                ours = session.profile_layer(target, spec, layer_index=index)
                theirs = pruner.profile_layer(spec, layer_index=index)
                assert ours.table.as_series() == theirs.table.as_series(), (model, index)
                assert ours.levels.tolist() == theirs.levels.tolist(), (model, index)
                assert ours.level_times_ms.tolist() == theirs.level_times_ms.tolist()
                simulated = (session.simulation_count(), pruner.runner.simulations)
                session.profile_layer(target, spec, layer_index=index)
                pruner.profile_layer(spec, layer_index=index)
                assert (session.simulation_count(), pruner.runner.simulations) == simulated


class TestSnapWork:
    """The configurations a performance-aware prune simulates."""

    @pytest.mark.parametrize("fraction", [0.12, 0.25, 0.5])
    def test_one_layer_prune_simulates_only_the_suffix(self, fraction):
        session = Session()
        session.prune(PruningRequest(
            "resnet50", Target("hikey-970", "acl-gemm"), fraction=fraction,
            sweep_step=1, layer_indices=(16,),
        ))
        channels = MODELS.create("resnet50").conv_layer(16).spec.out_channels
        expected = channels - round(channels * (1.0 - fraction)) + 1
        assert session.simulation_count() == expected

    @staticmethod
    def _plan():
        plan = Plan()
        for model in PLAN_MODELS:
            for target in PLAN_TARGETS:
                plan.prune(PruningRequest(model, target, fraction=0.25, sweep_step=1))
        return plan

    def test_twelve_step_plan_simulates_32220_configurations(self):
        session = Session()
        session.execute(self._plan())
        assert session.simulation_count() == 32220

    def test_a_filled_store_replays_the_plan_without_simulating(self, tmp_path):
        path = tmp_path / "profiles"
        Session(store=path).execute(self._plan())
        replay = Session(store=path)
        replay.execute(self._plan())
        assert replay.simulation_count() == 0
        assert replay.store.file_stats()["entries"] == 32220
