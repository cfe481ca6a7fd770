"""Tests for the channel pruning engine."""

import numpy as np
import pytest

from repro.core import CRITERIA, ChannelPruner, LayerPruning, PruningError
from repro.models import ConvLayerSpec, build_alexnet
from repro.nn import InferenceEngine, conv_input, conv_weights


@pytest.fixture
def pruner():
    return ChannelPruner()


@pytest.fixture
def network():
    return build_alexnet()


class TestLayerPruning:
    def test_remaining_and_pruned_counts(self):
        pruning = LayerPruning(layer_index=0, layer_name="l", original_channels=8,
                               kept_channels=[0, 1, 2, 5, 7])
        assert pruning.remaining_channels == 5
        assert pruning.pruned_channels == 3

    def test_empty_keep_rejected(self):
        with pytest.raises(PruningError):
            LayerPruning(layer_index=0, layer_name="l", original_channels=8, kept_channels=[])

    def test_duplicates_rejected(self):
        with pytest.raises(PruningError):
            LayerPruning(layer_index=0, layer_name="l", original_channels=8,
                         kept_channels=[1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(PruningError):
            LayerPruning(layer_index=0, layer_name="l", original_channels=8,
                         kept_channels=[8])

    def test_unsorted_rejected(self):
        with pytest.raises(PruningError):
            LayerPruning(layer_index=0, layer_name="l", original_channels=8,
                         kept_channels=[3, 1])


class TestSpecPruning:
    def test_prune_layer_spec(self, pruner, layer16):
        assert pruner.prune_layer_spec(layer16, 96).out_channels == 96

    def test_prune_layer_spec_invalid(self, pruner, layer16):
        with pytest.raises(PruningError):
            pruner.prune_layer_spec(layer16, 0)
        with pytest.raises(PruningError):
            pruner.prune_layer_spec(layer16, 200)

    def test_plan_network(self, pruner, network):
        plan = pruner.plan_network(network, {0: 32, 3: 100})
        assert plan.channels_after() == {0: 32, 3: 100}

    def test_plan_describe_mentions_layers(self, pruner, network):
        description = pruner.plan_network(network, {0: 32}).describe()
        assert "L0" in description and "64 -> 32" in description

    def test_apply_plan_returns_pruned_network(self, pruner, network):
        plan = pruner.plan_network(network, {0: 32})
        pruned = pruner.apply_plan(network, plan)
        assert pruned.conv_layer(0).spec.out_channels == 32
        assert pruned.conv_layer(3).spec.in_channels == 32

    def test_prune_uniform_fraction(self, pruner, network):
        plan = pruner.prune_uniform(network, 0.25)
        for index, kept in plan.channels_after().items():
            original = network.conv_layer(index).spec.out_channels
            assert kept == max(1, round(original * 0.75))

    def test_prune_uniform_selected_layers_only(self, pruner, network):
        plan = pruner.prune_uniform(network, 0.5, layer_indices=[0, 3])
        assert set(plan.layers) == {0, 3}

    def test_prune_uniform_invalid_fraction(self, pruner, network):
        with pytest.raises(PruningError):
            pruner.prune_uniform(network, 1.0)
        with pytest.raises(PruningError):
            pruner.prune_uniform(network, -0.1)

    def test_never_prunes_to_zero(self, pruner, network):
        plan = pruner.prune_uniform(network, 0.99)
        assert all(kept >= 1 for kept in plan.channels_after().values())


class TestWeightPruning:
    def make_spec(self):
        return ConvLayerSpec(name="wp.conv", in_channels=6, out_channels=12,
                             kernel_size=3, padding=1, input_hw=10)

    def test_pruned_shapes(self, pruner):
        spec = self.make_spec()
        result = pruner.prune_weights(spec, keep=7)
        assert result["weight"].shape == (7, 6, 3, 3)
        assert result["bias"].shape == (7,)
        assert len(result["kept_channels"]) == 7

    def test_pruned_rows_match_original(self, pruner):
        spec = self.make_spec()
        weights = conv_weights(spec)
        result = pruner.prune_weights(spec, keep=5, weights=weights)
        np.testing.assert_array_equal(result["weight"], weights[result["kept_channels"]])

    def test_functional_equivalence_on_kept_channels(self):
        """Pruning + re-indexing reproduces the kept channels exactly."""

        spec = ConvLayerSpec(name="wp.func", in_channels=3, out_channels=8,
                             kernel_size=3, padding=1, input_hw=6)
        for criterion_name in ("sequential", "l1", "random"):
            pruner = ChannelPruner(CRITERIA.create(criterion_name))
            weights = conv_weights(spec)
            pruned = pruner.prune_weights(spec, keep=5, weights=weights)
            engine = InferenceEngine()
            inputs = conv_input(spec)
            full = engine.run_conv(spec, inputs, weights=weights)
            compact = engine.run_conv(
                spec.with_out_channels(5), inputs,
                weights=pruned["weight"], bias=pruned["bias"],
            )
            np.testing.assert_array_equal(full[:, pruned["kept_channels"]], compact)

    def test_sequential_criterion_keeps_prefix(self, pruner):
        spec = self.make_spec()
        result = pruner.prune_weights(spec, keep=4)
        np.testing.assert_array_equal(result["kept_channels"], [0, 1, 2, 3])
