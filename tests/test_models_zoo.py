"""Tests for the model zoo: shapes of the paper's three networks."""

import pytest

from repro.models import (
    MODELS,
    UnknownModelError,
    available_models,
    canonical_name,
    profiled_layer_indices,
    profiled_layer_refs,
)
from repro.models.resnet50 import PROFILED_LAYER_INDICES as RESNET_PROFILED


class TestZooRegistry:
    def test_available_models(self):
        assert available_models() == ["alexnet", "resnet50", "vgg16"]

    def test_aliases_resolve(self):
        assert canonical_name("ResNet-50") == "resnet50"
        assert canonical_name("VGG") == "vgg16"
        assert canonical_name("AlexNet") == "alexnet"

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownModelError):
            MODELS.create("mobilenet")

    def test_build_model_by_alias(self):
        assert MODELS.create("resnet").name == "ResNet"


class TestResNet50:
    def test_has_53_convolutions(self, resnet50):
        assert len(resnet50.conv_indices) == 53

    def test_profiled_set_has_23_layers(self):
        assert len(RESNET_PROFILED) == 23
        assert profiled_layer_indices("resnet50") == RESNET_PROFILED

    def test_profiled_indices_match_paper(self):
        assert RESNET_PROFILED == (
            0, 1, 2, 3, 5, 11, 12, 13, 14, 15, 16,
            24, 25, 26, 27, 28, 29, 43, 44, 45, 46, 47, 48,
        )

    def test_stem_layer_shape(self, resnet50):
        stem = resnet50.conv_layer(0).spec
        assert (stem.in_channels, stem.out_channels) == (3, 64)
        assert (stem.kernel_size, stem.stride) == (7, 2)
        assert stem.input_hw == 224 and stem.output_hw == 112

    def test_layer14_is_512_filter_projection(self, layer14):
        assert layer14.out_channels == 512
        assert layer14.kernel_size == 1
        assert layer14.stride == 2
        assert layer14.output_hw == 28

    def test_layer16_is_calibration_layer(self, layer16):
        assert layer16.out_channels == 128
        assert layer16.kernel_size == 3
        assert layer16.in_channels == 128
        assert layer16.output_hw == 28
        # The GEMM problem size the paper's Tables I-IV imply.
        assert layer16.macs_per_output_element == 1152
        assert layer16.output_pixels == 784

    def test_layer45_has_2048_filters(self, layer45):
        assert layer45.out_channels == 2048
        assert layer45.kernel_size == 1
        assert layer45.output_hw == 7

    def test_filter_counts_span_64_to_2048(self, resnet50):
        counts = {ref.spec.out_channels for ref in profiled_layer_refs("resnet50")}
        assert min(counts) == 64
        assert max(counts) == 2048

    def test_only_1x1_and_3x3_filters_after_stem(self, resnet50):
        for ref in resnet50.conv_layers():
            if ref.index == 0:
                continue
            assert ref.spec.kernel_size in (1, 3)

    def test_shapes_propagate_to_classifier(self, resnet50):
        shapes = resnet50.infer_shapes()
        assert shapes[-1] == (1000, 1, 1)

    def test_profiled_layers_have_unique_shapes(self, resnet50):
        shapes = set()
        for ref in profiled_layer_refs("resnet50"):
            spec = ref.spec
            key = (spec.in_channels, spec.out_channels, spec.kernel_size,
                   spec.stride, spec.input_hw)
            assert key not in shapes, f"duplicate shape at {ref.label}"
            shapes.add(key)

    def test_bottleneck_expansion_factor(self, resnet50):
        # Every stage's expansion conv has 4x the width of its 3x3 conv.
        assert resnet50.conv_layer(13).spec.out_channels == 4 * resnet50.conv_layer(12).spec.out_channels
        assert resnet50.conv_layer(45).spec.out_channels == 4 * resnet50.conv_layer(44).spec.out_channels


class TestVGG16:
    def test_has_13_convolutions(self, vgg16):
        assert len(vgg16.conv_indices) == 13

    def test_profiled_indices_match_paper(self):
        assert profiled_layer_indices("vgg16") == (0, 2, 5, 7, 10, 12, 17, 19, 24)

    def test_profiled_filter_counts_match_paper(self):
        counts = [ref.spec.out_channels for ref in profiled_layer_refs("vgg16")]
        assert counts == [64, 64, 128, 128, 256, 256, 512, 512, 512]

    def test_all_convs_are_3x3(self, vgg16):
        assert all(ref.spec.kernel_size == 3 for ref in vgg16.conv_layers())

    def test_spatial_sizes_halve_per_block(self):
        refs = profiled_layer_refs("vgg16")
        assert [ref.spec.input_hw for ref in refs] == [224, 224, 112, 112, 56, 56, 28, 28, 14]

    def test_shapes_propagate_to_classifier(self, vgg16):
        assert vgg16.infer_shapes()[-1] == (1000, 1, 1)


class TestAlexNet:
    def test_has_5_convolutions(self, alexnet):
        assert len(alexnet.conv_indices) == 5

    def test_profiled_indices_match_paper(self):
        assert profiled_layer_indices("alexnet") == (0, 3, 6, 8, 10)

    def test_filter_counts_match_paper(self):
        counts = [ref.spec.out_channels for ref in profiled_layer_refs("alexnet")]
        assert counts == [64, 192, 384, 256, 256]

    def test_first_layer_is_11x11_stride_4(self, alexnet):
        first = alexnet.conv_layer(0).spec
        assert first.kernel_size == 11
        assert first.stride == 4

    def test_shapes_propagate_to_classifier(self, alexnet):
        assert alexnet.infer_shapes()[-1] == (1000, 1, 1)
