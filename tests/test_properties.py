"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChannelPruner, SequentialCriterion, cluster_levels, detect_plateaus
from repro.core.accuracy_model import AccuracyModel
from repro.gpusim import GpuSimulator, HIKEY_970, JETSON_TX2
from repro.libraries import LIBRARIES, pad_channels, split_columns
from repro.libraries.cudnn import padded_channels
from repro.models import MODELS, ConvLayerSpec, build_resnet50
from repro.nn import direct_conv2d, gemm_conv2d, im2col
from repro.profiling.store import layer_spec_fingerprint

_RESNET = build_resnet50()
_LAYER16 = _RESNET.conv_layer(16).spec
_ACL_GEMM = LIBRARIES.create("acl-gemm")
_ACL_DIRECT = LIBRARIES.create("acl-direct")
_CUDNN = LIBRARIES.create("cudnn")
_TVM = LIBRARIES.create("tvm")
_HIKEY_SIM = GpuSimulator(HIKEY_970)


# ---------------------------------------------------------------------------
# Convolution substrate
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    in_channels=st.integers(1, 5),
    out_channels=st.integers(1, 6),
    kernel_size=st.sampled_from([1, 3]),
    input_hw=st.integers(4, 9),
    seed=st.integers(0, 2**16),
)
def test_direct_equals_gemm_convolution(in_channels, out_channels, kernel_size, input_hw, seed):
    """The two reference convolution methods always agree."""

    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((1, in_channels, input_hw, input_hw)).astype(np.float32)
    weights = rng.standard_normal(
        (out_channels, in_channels, kernel_size, kernel_size)
    ).astype(np.float32)
    padding = kernel_size // 2
    direct = direct_conv2d(inputs, weights, padding=padding)
    gemm = gemm_conv2d(inputs, weights, padding=padding)
    np.testing.assert_allclose(direct, gemm, rtol=1e-3, atol=1e-4)


@settings(max_examples=20, deadline=None)
@given(
    channels=st.integers(1, 4),
    input_hw=st.integers(3, 10),
    kernel_size=st.sampled_from([1, 2, 3]),
    stride=st.integers(1, 2),
)
def test_im2col_shape_invariant(channels, input_hw, kernel_size, stride):
    """The patch matrix always has k*k*C rows and out_h*out_w columns."""

    if input_hw < kernel_size:
        return
    inputs = np.zeros((1, channels, input_hw, input_hw), dtype=np.float32)
    columns = im2col(inputs, kernel_size, stride, padding=0)
    out_hw = (input_hw - kernel_size) // stride + 1
    assert columns.shape == (1, channels * kernel_size * kernel_size, out_hw * out_hw)


# ---------------------------------------------------------------------------
# Pruning invariants
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(keep=st.integers(1, 16), out_channels=st.integers(2, 16))
def test_pruned_weights_preserve_row_order(keep, out_channels):
    if keep > out_channels:
        keep = out_channels
    spec = ConvLayerSpec(
        name="prop.conv", in_channels=3, out_channels=out_channels,
        kernel_size=3, padding=1, input_hw=6,
    )
    pruner = ChannelPruner(SequentialCriterion())
    result = pruner.prune_weights(spec, keep)
    kept = list(result["kept_channels"])
    assert kept == sorted(kept)
    assert len(kept) == keep
    assert result["weight"].shape[0] == keep


@settings(max_examples=25, deadline=None)
@given(
    channels=st.dictionaries(
        st.sampled_from([1, 2, 3, 15, 16, 24]), st.integers(1, 64), min_size=1
    )
)
def test_network_pruning_preserves_structure(channels):
    """Pruning any subset of layers keeps the graph consistent."""

    network = _RESNET
    valid = {
        index: min(count, network.conv_layer(index).spec.out_channels)
        for index, count in channels.items()
    }
    pruned = network.with_layer_channels(valid)
    assert len(pruned) == len(network)
    for index, count in valid.items():
        assert pruned.conv_layer(index).spec.out_channels == count
    # The original network is untouched.
    for index in valid:
        assert network.conv_layer(index).spec.out_channels >= valid[index]


# ---------------------------------------------------------------------------
# Library planner invariants
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(channels=st.integers(1, 2048))
def test_acl_split_covers_padded_columns(channels):
    split = split_columns(channels)
    assert split.total_columns == pad_channels(channels)
    assert split.main_columns >= 0 and split.remainder_columns >= 0
    if split.is_split:
        assert split.remainder_columns < 16


@settings(max_examples=60, deadline=None)
@given(channels=st.integers(1, 2048))
def test_cudnn_padding_covers_channels(channels):
    padded, tile = padded_channels(channels)
    assert padded >= channels
    assert padded % tile == 0
    assert padded - channels < tile


@settings(max_examples=20, deadline=None)
@given(channels=st.integers(1, 128))
def test_acl_gemm_plan_instruction_counts_positive_and_linear(channels):
    plan = _ACL_GEMM.plan_with_channels(_LAYER16, channels, HIKEY_970)
    assert plan.total_arithmetic_instructions > 0
    gemm_total = sum(k.arithmetic_instructions for k in plan.kernels_named("gemm_mm"))
    per_column = _ACL_GEMM.gemm_instructions_per_column(_LAYER16)[0]
    assert gemm_total == per_column * pad_channels(channels)


@settings(max_examples=15, deadline=None)
@given(channels=st.integers(1, 128), library_name=st.sampled_from(["acl-gemm", "acl-direct", "tvm"]))
def test_simulated_time_positive_for_all_libraries(channels, library_name):
    library = LIBRARIES.create(library_name)
    plan = library.plan_with_channels(_LAYER16, channels, HIKEY_970)
    assert _HIKEY_SIM.run_time_ms(plan) > 0


@settings(max_examples=15, deadline=None)
@given(channels=st.integers(1, 127))
def test_cudnn_monotone_non_decreasing_in_channels(channels):
    """Within cuDNN's clean staircase, more channels never cost less."""

    simulator = GpuSimulator(JETSON_TX2)
    smaller = simulator.run_time_ms(_CUDNN.plan_with_channels(_LAYER16, channels, JETSON_TX2))
    larger = simulator.run_time_ms(_CUDNN.plan_with_channels(_LAYER16, channels + 1, JETSON_TX2))
    assert larger >= smaller * 0.999


# ---------------------------------------------------------------------------
# Analysis invariants
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(times=st.lists(st.floats(0.5, 50.0), min_size=1, max_size=40))
def test_plateaus_partition_the_series(times):
    counts = list(range(1, len(times) + 1))
    plateaus = detect_plateaus(counts, times)
    covered = []
    for plateau in plateaus:
        covered.extend(range(plateau.min_channels, plateau.max_channels + 1))
    assert covered == counts


@settings(max_examples=30, deadline=None)
@given(times=st.lists(st.floats(0.5, 50.0), min_size=1, max_size=30))
def test_cluster_levels_cover_extremes(times):
    levels = cluster_levels(times)
    assert len(levels) >= 1
    assert min(levels) <= min(times) * 1.2
    assert max(levels) >= max(times) * 0.8


@settings(max_examples=30, deadline=None)
@given(
    kept_fraction=st.floats(0.01, 1.0),
    sensitivity=st.floats(0.0, 1.0),
    exponent=st.floats(1.0, 4.0),
)
def test_accuracy_retention_bounded(kept_fraction, sensitivity, exponent):
    model = AccuracyModel(sensitivity=sensitivity, exponent=exponent)
    retention = model.layer_retention(kept_fraction)
    assert 0.0 <= retention <= 1.0


_ZOO = {name: MODELS.create(name) for name in MODELS.available()}


def _predict_all_layers(model, network, channels):
    """``AccuracyModel.predict`` as it was: a factor for every conv layer."""

    channels = dict(channels or {})
    refs = network.conv_layers()
    total_params = sum(ref.spec.parameter_count for ref in refs)
    if total_params == 0:
        return model.baseline_accuracy
    retention = 1.0
    for ref in refs:
        kept = channels.get(ref.index, ref.spec.out_channels)
        if not 1 <= kept <= ref.spec.out_channels:
            raise ValueError(
                f"layer {ref.label}: invalid channel count {kept} "
                f"(original {ref.spec.out_channels})"
            )
        weight = ref.spec.parameter_count / total_params
        layer_retention = model.layer_retention(kept / ref.spec.out_channels)
        retention *= 1.0 - weight * (1.0 - layer_retention)
    return max(model.minimum_accuracy, model.baseline_accuracy * retention)


@st.composite
def _channel_maps(draw):
    network = _ZOO[draw(st.sampled_from(sorted(_ZOO)))]
    channels = {}
    for ref in network.conv_layers():
        out = ref.spec.out_channels
        choice = draw(st.sampled_from(["keep", "full", "pruned"]))
        if choice == "full":
            channels[ref.index] = out
        elif choice == "pruned":
            channels[ref.index] = draw(st.integers(1, out))
    # Keys naming no conv layer are ignored.
    for key in draw(st.lists(st.integers(-5, 500), max_size=4)):
        if key not in network.conv_indices:
            channels[key] = draw(st.integers(-3, 5000))
    if draw(st.booleans()) and network.conv_indices:
        index = draw(st.sampled_from(sorted(network.conv_indices)))
        out = network.conv_layer(index).spec.out_channels
        channels[index] = draw(st.sampled_from([0, -1, out + 1]))
    return network, channels


@settings(max_examples=80, deadline=None)
@given(
    case=_channel_maps(),
    baseline=st.floats(0.05, 1.0),
    sensitivity=st.floats(0.0, 3.0),
    exponent=st.floats(1.0, 4.0),
    minimum=st.floats(0.0, 0.5),
)
def test_pruned_layers_only_prediction_is_bitwise_the_all_layers_loop(
    case, baseline, sensitivity, exponent, minimum
):
    network, channels = case
    model = AccuracyModel(
        baseline_accuracy=baseline, sensitivity=sensitivity,
        exponent=exponent, minimum_accuracy=minimum,
    )
    try:
        expected = _predict_all_layers(model, network, channels)
    except ValueError as error:
        with pytest.raises(ValueError) as excinfo:
            model.predict(network, channels)
        assert str(excinfo.value) == str(error)
    else:
        assert model.predict(network, channels) == expected
    assert model.predict(network) == _predict_all_layers(model, network, None)


@settings(max_examples=60, deadline=None)
@given(
    in_channels=st.integers(1, 512),
    out_channels=st.integers(1, 512),
    kernel_size=st.integers(1, 7),
    stride=st.integers(1, 3),
    padding=st.integers(0, 3),
    input_hw=st.integers(7, 64),
    bias=st.booleans(),
)
def test_memoised_layer_fingerprint_is_the_hash(
    in_channels, out_channels, kernel_size, stride, padding, input_hw, bias
):
    spec = ConvLayerSpec(
        name="prop.conv", in_channels=in_channels, out_channels=out_channels,
        kernel_size=kernel_size, stride=stride, padding=padding,
        input_hw=input_hw, bias=bias,
    )
    assert layer_spec_fingerprint(spec) == layer_spec_fingerprint.__wrapped__(spec)
    assert layer_spec_fingerprint(spec) == layer_spec_fingerprint.__wrapped__(spec)


def test_memoised_layer_fingerprint_matches_on_every_zoo_layer():
    for network in _ZOO.values():
        for ref in network.conv_layers():
            assert layer_spec_fingerprint(ref.spec) == (
                layer_spec_fingerprint.__wrapped__(ref.spec)
            )
