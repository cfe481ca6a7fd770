"""Tests for speedup matrices and latency curves."""

import pytest

from repro.analysis import (
    FIGURE1_PRUNE_DISTANCES,
    PAPER_PRUNE_DISTANCES,
    TVM_PRUNE_DISTANCES,
    LatencyCurve,
    best_speedup_at_distance,
    curve_from_table,
    latency_curve,
    speedup_matrix,
    worst_slowdown_at_distance,
)
from repro.models import profiled_layer_refs
from repro.profiling import build_latency_table


class TestPruneDistanceConstants:
    def test_paper_distances(self):
        assert PAPER_PRUNE_DISTANCES == (1, 3, 7, 15, 31, 63, 127)
        assert FIGURE1_PRUNE_DISTANCES == (1, 7, 15, 31, 63)
        assert TVM_PRUNE_DISTANCES == (1, 3, 7, 15, 31)


class TestPerLayerMetrics:
    def test_best_speedup_monotone_in_distance(self, cudnn_runner, resnet50):
        ref = resnet50.conv_layer(16)
        speedups = [
            best_speedup_at_distance(cudnn_runner, ref, d) for d in (1, 31, 63, 127)
        ]
        assert speedups == sorted(speedups)

    def test_cudnn_layer16_speedups_match_paper(self, cudnn_runner, resnet50):
        """Figure 6, ResNet.L16 column: 1.0 / 1.3 / 3.3."""

        ref = resnet50.conv_layer(16)
        assert best_speedup_at_distance(cudnn_runner, ref, 1) == pytest.approx(1.0, abs=0.1)
        assert best_speedup_at_distance(cudnn_runner, ref, 63) == pytest.approx(1.3, abs=0.15)
        assert best_speedup_at_distance(cudnn_runner, ref, 127) == pytest.approx(3.3, abs=0.6)

    def test_worst_slowdown_at_least_one_for_cudnn(self, cudnn_runner, resnet50):
        ref = resnet50.conv_layer(16)
        assert worst_slowdown_at_distance(cudnn_runner, ref, 31) >= 0.99

    def test_acl_gemm_worst_slowdown_exceeds_one(self, gemm_runner, resnet50):
        """Figure 1: ACL GEMM pruning can slow layers down by up to ~2x."""

        ref = resnet50.conv_layer(16)
        slowdown = worst_slowdown_at_distance(gemm_runner, ref, 63)
        assert 1.2 < slowdown < 2.3

    def test_direct_conv_prune1_slowdown(self, direct_runner, resnet50):
        """Figure 10: pruning one channel of a 1x1 layer is a big slowdown."""

        ref = resnet50.conv_layer(15)
        speedup = best_speedup_at_distance(direct_runner, ref, 1)
        assert speedup < 0.8


class TestSpeedupMatrix:
    @pytest.fixture(scope="class")
    def matrix(self, cudnn_runner):
        refs = profiled_layer_refs("alexnet")
        return speedup_matrix(cudnn_runner, refs, prune_distances=(1, 31, 127), metric="speedup")

    def test_dimensions(self, matrix):
        assert len(matrix.layer_labels) == 5
        assert matrix.prune_distances == [1, 31, 127]

    def test_row_and_column_access(self, matrix):
        row = matrix.row(127)
        assert len(row) == 5
        column = matrix.column("AlexNet.L0")
        assert len(column) == 3

    def test_rows_monotone_in_distance(self, matrix):
        for label in matrix.layer_labels:
            column = matrix.column(label)
            assert column == sorted(column)

    def test_min_max(self, matrix):
        assert matrix.min_value >= 0.9
        assert matrix.max_value >= matrix.min_value

    def test_format_contains_labels_and_values(self, matrix):
        text = matrix.format()
        assert "AlexNet.L0" in text
        assert "Prune=127" in text

    def test_invalid_metric_rejected(self, cudnn_runner):
        refs = profiled_layer_refs("alexnet")
        with pytest.raises(ValueError):
            speedup_matrix(cudnn_runner, refs, metric="latency")

    def test_empty_refs_rejected(self, cudnn_runner):
        with pytest.raises(ValueError):
            speedup_matrix(cudnn_runner, [], metric="speedup")


class TestLatencyCurve:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            LatencyCurve("l", "d", "lib", (1,), (1.0,))

    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            LatencyCurve("l", "d", "lib", (1, 2), (1.0,))

    def test_time_at_and_spread(self):
        curve = LatencyCurve("l", "d", "lib", (1, 2, 3), (1.0, 2.0, 4.0))
        assert curve.time_at(2) == 2.0
        assert curve.spread == 4.0
        with pytest.raises(KeyError):
            curve.time_at(5)

    def test_largest_adjacent_gap_upward(self):
        curve = LatencyCurve("l", "d", "lib", (1, 2, 3), (1.0, 1.1, 3.0))
        fast, slow, ratio = curve.largest_adjacent_gap()
        assert (fast, slow) == (2, 3)
        assert ratio == pytest.approx(3.0 / 1.1)

    def test_largest_adjacent_gap_downward(self):
        curve = LatencyCurve("l", "d", "lib", (10, 11), (5.0, 2.0))
        fast, slow, ratio = curve.largest_adjacent_gap()
        assert (fast, slow) == (11, 10)
        assert ratio == pytest.approx(2.5)

    def test_format_subsamples(self):
        curve = LatencyCurve("l", "d", "lib", tuple(range(1, 101)), tuple(float(i) for i in range(1, 101)))
        text = curve.format(max_rows=10)
        assert "100" in text
        assert len(text.splitlines()) < 30

    def test_latency_curve_from_runner(self, gemm_runner, layer16):
        curve = latency_curve(gemm_runner, layer16, "ResNet.L16", channel_counts=[64, 96, 128])
        assert curve.channel_counts == (64, 96, 128)
        assert curve.library_name == "acl-gemm"

    def test_curve_from_table(self, gemm_runner, layer16):
        table = build_latency_table(gemm_runner, layer16, [64, 128])
        curve = curve_from_table(table, "ResNet.L16")
        assert curve.channel_counts == (64, 128)
        assert curve.min_time_ms <= curve.max_time_ms
