"""Unit tests for layer specifications."""

import dataclasses
import json

import numpy as np
import pytest

from repro.models import (
    ActivationLayerSpec,
    BatchNormLayerSpec,
    ConvLayerSpec,
    DropoutLayerSpec,
    FullyConnectedLayerSpec,
    LayerSpecError,
    PoolLayerSpec,
    conv_output_hw,
    round_up,
    same_padding,
)


def make_conv(**overrides):
    defaults = dict(
        name="test.conv",
        in_channels=16,
        out_channels=32,
        kernel_size=3,
        stride=1,
        padding=1,
        input_hw=28,
    )
    defaults.update(overrides)
    return ConvLayerSpec(**defaults)


class TestConvLayerSpec:
    def test_output_hw_same_padding(self):
        assert make_conv().output_hw == 28

    def test_output_hw_stride_two(self):
        assert make_conv(stride=2).output_hw == 14

    def test_output_hw_no_padding(self):
        assert make_conv(padding=0).output_hw == 26

    def test_output_hw_seven_by_seven_stem(self):
        stem = make_conv(kernel_size=7, stride=2, padding=3, input_hw=224, in_channels=3)
        assert stem.output_hw == 112

    def test_output_pixels(self):
        assert make_conv().output_pixels == 28 * 28

    def test_macs_per_output_element(self):
        assert make_conv().macs_per_output_element == 16 * 9

    def test_macs_total(self):
        conv = make_conv()
        assert conv.macs == 16 * 9 * 32 * 28 * 28

    def test_flops_are_twice_macs(self):
        conv = make_conv()
        assert conv.flops == 2 * conv.macs

    def test_weight_count(self):
        assert make_conv().weight_count == 32 * 16 * 9

    def test_parameter_count_includes_bias(self):
        conv = make_conv(bias=True)
        assert conv.parameter_count == conv.weight_count + 32

    def test_parameter_count_without_bias(self):
        conv = make_conv(bias=False)
        assert conv.parameter_count == conv.weight_count

    def test_im2col_matrix_shape(self):
        rows, cols = make_conv().im2col_matrix_shape
        assert rows == 16 * 9
        assert cols == 28 * 28

    def test_grouped_convolution_macs(self):
        grouped = make_conv(groups=4)
        assert grouped.macs_per_output_element == (16 // 4) * 9

    def test_output_shape(self):
        assert make_conv().output_shape((16, 28, 28)) == (32, 28, 28)

    def test_with_out_channels_creates_new_spec(self):
        conv = make_conv()
        pruned = conv.with_out_channels(20)
        assert pruned.out_channels == 20
        assert conv.out_channels == 32
        assert pruned.in_channels == conv.in_channels

    def test_with_in_channels(self):
        conv = make_conv().with_in_channels(8)
        assert conv.in_channels == 8

    def test_pruned_reduces_channels(self):
        assert make_conv().pruned(10).out_channels == 22

    def test_pruned_all_channels_rejected(self):
        with pytest.raises(LayerSpecError):
            make_conv().pruned(32)

    def test_pruned_negative_rejected(self):
        with pytest.raises(LayerSpecError):
            make_conv().pruned(-1)

    def test_zero_channels_rejected(self):
        with pytest.raises(LayerSpecError):
            make_conv(out_channels=0)

    def test_negative_padding_rejected(self):
        with pytest.raises(LayerSpecError):
            make_conv(padding=-1)

    def test_groups_must_divide_channels(self):
        with pytest.raises(LayerSpecError):
            make_conv(groups=5)

    def test_empty_output_rejected(self):
        with pytest.raises(LayerSpecError):
            make_conv(kernel_size=7, input_hw=3, padding=0)

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make_conv().out_channels = 5

    def test_is_convolution_flag(self):
        assert make_conv().is_convolution
        assert not PoolLayerSpec(name="p").is_convolution

    @pytest.mark.parametrize("value", [3.0, 2.5, True, "3", None], ids=repr)
    @pytest.mark.parametrize("field", [
        "in_channels", "out_channels", "kernel_size", "stride", "padding",
        "input_hw", "groups",
    ])
    def test_integer_fields_reject_non_integers(self, field, value):
        # Regression: 3.0 was accepted; it equals and hashes like 3 but
        # serializes as 3.0, so it keyed a different store group.
        with pytest.raises(LayerSpecError, match=f"{field} must be an integer"):
            make_conv(**{field: value})

    def test_numpy_integers_are_stored_as_plain_ints(self):
        spec = make_conv(in_channels=np.int64(16), kernel_size=np.int32(3))
        assert type(spec.in_channels) is int and type(spec.kernel_size) is int
        assert spec == make_conv()
        assert json.dumps(spec.as_dict()) == json.dumps(make_conv().as_dict())


class TestPoolLayerSpec:
    def test_output_shape_halves(self):
        pool = PoolLayerSpec(name="p", kernel_size=2, stride=2)
        assert pool.output_shape((64, 56, 56)) == (64, 28, 28)

    def test_output_shape_with_padding(self):
        pool = PoolLayerSpec(name="p", kernel_size=3, stride=2, padding=1)
        assert pool.output_shape((64, 112, 112)) == (64, 56, 56)

    def test_invalid_mode_rejected(self):
        with pytest.raises(LayerSpecError):
            PoolLayerSpec(name="p", mode="median")

    @pytest.mark.parametrize("field", ["kernel_size", "stride", "padding"])
    @pytest.mark.parametrize("value", [2.0, 1.5, True], ids=repr)
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(LayerSpecError, match=f"{field} must be an integer"):
            PoolLayerSpec(name="p", **{field: value})

    def test_numpy_integers_are_stored_as_plain_ints(self):
        pool = PoolLayerSpec(name="p", kernel_size=np.int64(3), padding=np.int8(1))
        assert type(pool.kernel_size) is int and type(pool.padding) is int

    def test_empty_output_rejected(self):
        pool = PoolLayerSpec(name="p", kernel_size=9, stride=1)
        with pytest.raises(LayerSpecError):
            pool.output_shape((4, 4, 4))


class TestOtherLayerSpecs:
    def test_activation_kinds(self):
        for kind in ("relu", "tanh", "sigmoid"):
            assert ActivationLayerSpec(name="a", kind=kind).kind == kind

    def test_activation_unknown_kind(self):
        with pytest.raises(LayerSpecError):
            ActivationLayerSpec(name="a", kind="gelu")

    def test_batchnorm_positive_features(self):
        with pytest.raises(LayerSpecError):
            BatchNormLayerSpec(name="bn", num_features=0)

    def test_dropout_rate_bounds(self):
        assert DropoutLayerSpec(name="d", rate=0.0).rate == 0.0
        with pytest.raises(LayerSpecError):
            DropoutLayerSpec(name="d", rate=1.0)

    def test_fully_connected_macs(self):
        fc = FullyConnectedLayerSpec(name="fc", in_features=100, out_features=10)
        assert fc.macs == 1000
        assert fc.flops == 2000

    def test_fully_connected_parameters(self):
        fc = FullyConnectedLayerSpec(name="fc", in_features=100, out_features=10)
        assert fc.parameter_count == 1010

    def test_fully_connected_output_shape(self):
        fc = FullyConnectedLayerSpec(name="fc", in_features=100, out_features=10)
        assert fc.output_shape((100, 1, 1)) == (10, 1, 1)

    def test_passthrough_output_shape(self):
        act = ActivationLayerSpec(name="a")
        assert act.output_shape((3, 8, 8)) == (3, 8, 8)


class TestHelpers:
    def test_conv_output_hw(self):
        assert conv_output_hw(28, 3, 1, 1) == 28
        assert conv_output_hw(56, 3, 2, 1) == 28
        assert conv_output_hw(224, 7, 2, 3) == 112

    def test_same_padding(self):
        assert same_padding(1) == 0
        assert same_padding(3) == 1
        assert same_padding(5) == 2
        assert same_padding(7) == 3

    def test_round_up(self):
        assert round_up(92, 4) == 92
        assert round_up(93, 4) == 96
        assert round_up(1, 8) == 8
        assert round_up(16, 16) == 16

    def test_round_up_invalid_multiple(self):
        with pytest.raises(ValueError):
            round_up(5, 0)
