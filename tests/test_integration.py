"""Integration tests chaining model zoo -> library -> simulator -> pruner."""

import pytest

from repro import (
    GpuSimulator,
    PerformanceAwarePruner,
    ProfileRunner,
    Target,
)
from repro.gpusim import DEVICES
from repro.libraries import LIBRARIES
from repro.models import MODELS
from repro.analysis import speedup_matrix
from repro.core import ChannelPruner, analyze_table, default_accuracy_model
from repro.models import profiled_layer_refs
from repro.nn import InferenceEngine
from repro.profiling import build_latency_table


class TestTopLevelApi:
    def test_package_exposes_main_entry_points(self):
        import repro

        assert repro.__version__ == "10.0.0"
        assert callable(repro.Session)
        assert callable(repro.Target)

    def test_model_to_latency_pipeline(self):
        """The README quickstart pipeline end to end."""

        network = MODELS.create("resnet50")
        layer = network.conv_layer(16).spec
        device = DEVICES.get("hikey-970")
        library = LIBRARIES.create("acl-gemm")
        plan = library.plan(layer, device)
        time_ms = GpuSimulator(device).run_time_ms(plan)
        assert 5.0 < time_ms < 60.0


class TestCrossLibraryConsistency:
    """Every (library, device) pair handles every profiled layer."""

    TARGETS = (
        ("acl-gemm", "hikey-970"),
        ("acl-direct", "hikey-970"),
        ("acl-gemm", "odroid-xu4"),
        ("tvm", "hikey-970"),
        ("cudnn", "jetson-tx2"),
        ("cudnn", "jetson-nano"),
    )

    @pytest.mark.parametrize("library_name,device_name", TARGETS)
    def test_all_profiled_resnet_layers_plannable(self, library_name, device_name):
        device = DEVICES.get(device_name)
        library = LIBRARIES.create(library_name)
        simulator = GpuSimulator(device)
        for ref in profiled_layer_refs("resnet50"):
            time_ms = simulator.run_time_ms(library.plan(ref.spec, device))
            assert 0 < time_ms < 10_000

    @pytest.mark.parametrize("model", ["vgg16", "alexnet"])
    def test_other_networks_plannable_on_all_targets(self, model):
        for library_name, device_name in self.TARGETS:
            device = DEVICES.get(device_name)
            library = LIBRARIES.create(library_name)
            simulator = GpuSimulator(device)
            for ref in profiled_layer_refs(model):
                assert simulator.run_time_ms(library.plan(ref.spec, device)) > 0


class TestEndToEndProposalFlow:
    def test_profile_analyse_prune_execute(self):
        """Full workflow: profile -> staircase -> prune -> run the pruned net."""

        network = MODELS.create("alexnet")
        pruner = PerformanceAwarePruner(Target("jetson-tx2", "cudnn", runs=1))
        layer_indices = [6, 8]

        # 1. Profile and analyse.
        profiles = pruner.profile_network(network, layer_indices, sweep_step=4)
        for profile in profiles.values():
            analysis = analyze_table(profile.table)
            assert analysis.level_count >= 2

        # 2. Compress to 80% of the baseline latency.
        baseline = pruner.network_latency_ms(network, layer_indices=layer_indices)
        outcome = pruner.prune_for_latency(
            network, baseline * 0.8, layer_indices=layer_indices, sweep_step=4
        )
        assert outcome.latency_ms <= baseline * 0.81

        # 3. The accuracy proxy sees a small drop.
        accuracy_model = default_accuracy_model(network)
        assert outcome.predicted_accuracy <= accuracy_model.predict(network)
        assert outcome.predicted_accuracy > 0.4

        # 4. The pruned network still executes numerically.
        pruner = ChannelPruner()
        pruned_network = pruner.apply_plan(network, pruner.plan_network(network, outcome.channels))
        engine = InferenceEngine(method="gemm")
        logits = engine.run_network(pruned_network, stop_after=11).output
        assert logits.shape[0] == 1

    def test_speedup_matrix_consistent_with_latency_tables(self):
        """The heatmap's per-layer values agree with direct table lookups."""

        runner = ProfileRunner.create("jetson-tx2", "cudnn", runs=1)
        refs = [ref for ref in profiled_layer_refs("resnet50") if ref.index in (15, 16)]
        matrix = speedup_matrix(runner, refs, prune_distances=(63,), metric="speedup")
        for ref in refs:
            table = build_latency_table(
                runner, ref.spec, range(ref.spec.out_channels - 63, ref.spec.out_channels + 1)
            )
            baseline = table.time_ms(ref.spec.out_channels)
            best = min(
                table.time_ms(c)
                for c in range(ref.spec.out_channels - 63, ref.spec.out_channels)
            )
            assert matrix.get(63, ref.label) == pytest.approx(baseline / best, rel=1e-6)

    def test_same_layer_different_devices_same_pattern_family(self):
        """cuDNN's staircase shape is shared between TX2 and Nano (Fig. 7)."""

        network = MODELS.create("resnet50")
        layer = network.conv_layer(14).spec
        counts = list(range(32, 513, 32))
        tables = {}
        for device_name in ("jetson-tx2", "jetson-nano"):
            runner = ProfileRunner.create(device_name, "cudnn", runs=1)
            tables[device_name] = build_latency_table(runner, layer, counts)
        tx2_times = [tables["jetson-tx2"].time_ms(c) for c in counts]
        nano_times = [tables["jetson-nano"].time_ms(c) for c in counts]
        ratios = [nano / tx2 for nano, tx2 in zip(nano_times, tx2_times)]
        assert max(ratios) / min(ratios) < 1.2
