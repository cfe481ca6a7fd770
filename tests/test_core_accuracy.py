"""Tests for the accuracy-retention proxy model."""

import pytest

from repro.core import AccuracyModel, DEFAULT_BASELINES, default_accuracy_model
from repro.models import build_alexnet, build_resnet50, build_vgg16


@pytest.fixture
def model():
    return AccuracyModel(baseline_accuracy=0.76)


class TestValidation:
    def test_baseline_bounds(self):
        with pytest.raises(ValueError):
            AccuracyModel(baseline_accuracy=0.0)
        with pytest.raises(ValueError):
            AccuracyModel(baseline_accuracy=1.5)

    def test_sensitivity_non_negative(self):
        with pytest.raises(ValueError):
            AccuracyModel(sensitivity=-0.1)

    def test_exponent_at_least_one(self):
        with pytest.raises(ValueError):
            AccuracyModel(exponent=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sensitivity_rejected(self, value):
        # max(0.0, nan) is 0.0: a NaN sensitivity used to predict 0.2354
        # for an unpruned AlexNet instead of its baseline.
        with pytest.raises(ValueError, match="sensitivity must be finite"):
            AccuracyModel(sensitivity=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_exponent_rejected(self, value):
        with pytest.raises(ValueError, match="exponent must be finite"):
            AccuracyModel(exponent=value)

    def test_unpruned_alexnet_keeps_its_baseline(self, model):
        assert model.predict(build_alexnet()) == 0.76
        assert model.predict(build_alexnet(), {}) == 0.76

    def test_layer_retention_bounds(self, model):
        with pytest.raises(ValueError):
            model.layer_retention(0.0)
        with pytest.raises(ValueError):
            model.layer_retention(1.2)


class TestRetentionCurve:
    def test_no_pruning_full_retention(self, model):
        assert model.layer_retention(1.0) == 1.0

    def test_retention_monotone_in_kept_fraction(self, model):
        fractions = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
        retentions = [model.layer_retention(f) for f in fractions]
        assert retentions == sorted(retentions)

    def test_mild_pruning_nearly_free(self, model):
        assert model.layer_retention(0.9) > 0.99

    def test_heavy_pruning_costs_more_per_channel(self, model):
        mild_cost = 1.0 - model.layer_retention(0.9)
        heavy_cost = model.layer_retention(0.2) - model.layer_retention(0.1)
        assert heavy_cost > mild_cost


class TestNetworkPrediction:
    def test_unpruned_network_keeps_baseline(self, model, resnet50):
        assert model.predict(resnet50) == pytest.approx(0.76)

    def test_pruning_reduces_accuracy(self, model, resnet50):
        pruned = model.predict(resnet50, {16: 64, 14: 256})
        assert pruned < 0.76

    def test_more_pruning_lower_accuracy(self, model, resnet50):
        light = model.predict(resnet50, {16: 96})
        heavy = model.predict(resnet50, {16: 16})
        assert heavy < light

    def test_large_layers_cost_more(self, model, resnet50):
        # Pruning half of a 2048-filter layer costs more than half of a
        # 64-filter layer (parameter-share weighting).
        big = model.predict(resnet50, {45: 1024})
        small = model.predict(resnet50, {1: 32})
        assert big < small

    def test_invalid_channel_count_rejected(self, model, resnet50):
        with pytest.raises(ValueError):
            model.predict(resnet50, {16: 0})
        with pytest.raises(ValueError):
            model.predict(resnet50, {16: 1000})

    def test_accuracy_drop_consistent(self, model, resnet50):
        channels = {16: 64}
        assert model.accuracy_drop(resnet50, channels) == pytest.approx(
            0.76 - model.predict(resnet50, channels)
        )

    def test_accuracy_never_below_floor(self, resnet50):
        harsh = AccuracyModel(baseline_accuracy=0.76, sensitivity=10.0, exponent=1.0)
        channels = {ref.index: 1 for ref in resnet50.conv_layers()}
        assert harsh.predict(resnet50, channels) >= harsh.minimum_accuracy


class TestDefaults:
    def test_default_baselines_cover_zoo(self):
        assert set(DEFAULT_BASELINES) == {"ResNet", "VGG", "AlexNet"}

    def test_default_model_uses_network_baseline(self):
        resnet_model = default_accuracy_model(build_resnet50())
        vgg_model = default_accuracy_model(build_vgg16())
        assert resnet_model.baseline_accuracy == DEFAULT_BASELINES["ResNet"]
        assert vgg_model.baseline_accuracy == DEFAULT_BASELINES["VGG"]
