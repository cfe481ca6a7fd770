"""Unit tests for the network graph and its pruning transformations."""

import pytest

from repro.models import (
    ActivationLayerSpec,
    ConvLayerSpec,
    Network,
    NetworkError,
    PoolLayerSpec,
    build_sequential_network,
)


def tiny_network():
    """Three convolutions with interleaved non-conv layers."""

    layers = [
        ConvLayerSpec(name="t.conv0", in_channels=3, out_channels=8,
                      kernel_size=3, padding=1, input_hw=16),
        ActivationLayerSpec(name="t.relu0"),
        ConvLayerSpec(name="t.conv1", in_channels=8, out_channels=16,
                      kernel_size=3, padding=1, input_hw=16),
        PoolLayerSpec(name="t.pool", kernel_size=2, stride=2),
        ConvLayerSpec(name="t.conv2", in_channels=16, out_channels=32,
                      kernel_size=3, padding=1, input_hw=8),
    ]
    return build_sequential_network("Tiny", layers, input_shape=(3, 16, 16))


class TestNetworkStructure:
    def test_length_counts_all_layers(self):
        assert len(tiny_network()) == 5

    def test_conv_layer_indices_default_to_positions(self):
        assert tiny_network().conv_layer_indices == [0, 2, 4]

    def test_conv_layers_returns_refs_in_order(self):
        refs = tiny_network().conv_layers()
        assert [ref.index for ref in refs] == [0, 2, 4]
        assert [ref.spec.out_channels for ref in refs] == [8, 16, 32]

    def test_conv_layer_lookup(self):
        ref = tiny_network().conv_layer(2)
        assert ref.spec.name == "t.conv1"
        assert ref.label == "Tiny.L2"

    def test_conv_layer_unknown_index(self):
        with pytest.raises(NetworkError):
            tiny_network().conv_layer(1)

    def test_layer_label(self):
        assert tiny_network().layer_label(4) == "Tiny.L4"

    def test_channel_counts(self):
        assert tiny_network().channel_counts() == {0: 8, 2: 16, 4: 32}

    def test_total_conv_parameters(self):
        network = tiny_network()
        expected = sum(ref.spec.parameter_count for ref in network.conv_layers())
        assert network.total_conv_parameters == expected

    def test_infer_shapes_propagates(self):
        shapes = tiny_network().infer_shapes()
        assert shapes[0] == (8, 16, 16)
        assert shapes[2] == (16, 16, 16)
        assert shapes[3] == (16, 8, 8)
        assert shapes[4] == (32, 8, 8)

    def test_empty_name_rejected(self):
        with pytest.raises(NetworkError):
            Network(name="", layers=[])

    def test_conv_indices_must_point_at_convs(self):
        layers = [ActivationLayerSpec(name="a")]
        with pytest.raises(NetworkError):
            Network(name="bad", layers=layers, conv_indices={0: 0})


class TestPruningTransforms:
    def test_with_layer_channels_returns_new_network(self):
        network = tiny_network()
        pruned = network.with_layer_channels({2: 12})
        assert pruned.conv_layer(2).spec.out_channels == 12
        assert network.conv_layer(2).spec.out_channels == 16

    def test_propagation_updates_consumer_in_channels(self):
        pruned = tiny_network().with_layer_channels({0: 6})
        assert pruned.conv_layer(2).spec.in_channels == 6

    def test_no_propagation_keeps_consumer(self):
        pruned = tiny_network().with_layer_channels({0: 6}, propagate=False)
        assert pruned.conv_layer(2).spec.in_channels == 8

    def test_pruning_multiple_layers_consistent(self):
        pruned = tiny_network().with_layer_channels({0: 6, 2: 10, 4: 20})
        assert pruned.conv_layer(0).spec.out_channels == 6
        assert pruned.conv_layer(2).spec.in_channels == 6
        assert pruned.conv_layer(2).spec.out_channels == 10
        assert pruned.conv_layer(4).spec.in_channels == 10
        assert pruned.conv_layer(4).spec.out_channels == 20

    def test_pruned_network_shapes_still_propagate(self):
        pruned = tiny_network().with_layer_channels({0: 6, 2: 10})
        shapes = pruned.infer_shapes()
        assert shapes[0] == (6, 16, 16)
        assert shapes[2] == (10, 16, 16)

    def test_prune_layer_helper(self):
        pruned = tiny_network().prune_layer(4, 7)
        assert pruned.conv_layer(4).spec.out_channels == 25

    def test_prune_layer_leaving_no_channels_rejected(self):
        with pytest.raises(NetworkError):
            tiny_network().prune_layer(0, 8)

    def test_growing_channels_rejected(self):
        with pytest.raises(NetworkError):
            tiny_network().with_layer_channels({0: 100})

    def test_zero_channels_rejected(self):
        with pytest.raises(NetworkError):
            tiny_network().with_layer_channels({0: 0})

    def test_original_unmodified_after_multiple_prunings(self):
        network = tiny_network()
        network.with_layer_channels({0: 4})
        network.with_layer_channels({2: 4})
        assert network.channel_counts() == {0: 8, 2: 16, 4: 32}


class TestSequentialConsumers:
    def test_each_conv_feeds_the_next(self):
        network = tiny_network()
        positions = [network.conv_indices[i] for i in (0, 2, 4)]
        assert network.consumers[positions[0]] == [positions[1]]
        assert network.consumers[positions[1]] == [positions[2]]
        assert positions[2] not in network.consumers
