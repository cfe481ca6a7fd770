"""Tests for staircase detection and optimal-channel selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    analyze_table,
    cluster_levels,
    detect_plateaus,
    detect_steps,
    optimal_pruning_levels,
)
from repro.profiling import LatencyTable, Measurement, Sweep, build_latency_table


def table_from(pairs):
    return LatencyTable(Sweep.of(
        Measurement("synthetic", channels, "device", "library", time, time, time, 1, 1)
        for channels, time in pairs
    ))


def staircase_pairs():
    """A clean two-step staircase: 1-4 -> 1ms, 5-8 -> 2ms, 9-12 -> 3ms."""

    return [(c, 1.0 + (c - 1) // 4) for c in range(1, 13)]


class TestDetectSteps:
    def test_clean_staircase_has_two_steps(self):
        counts, times = zip(*staircase_pairs())
        steps = detect_steps(list(counts), list(times))
        assert len(steps) == 2
        assert [step.channels_before for step in steps] == [4, 8]
        assert all(step.is_upward for step in steps)

    def test_flat_curve_has_no_steps(self):
        counts = list(range(1, 10))
        assert detect_steps(counts, [5.0] * 9) == []

    def test_small_noise_below_threshold_ignored(self):
        counts = [1, 2, 3]
        assert detect_steps(counts, [1.0, 1.02, 0.99]) == []

    def test_downward_step_detected(self):
        steps = detect_steps([1, 2], [2.0, 1.0])
        assert len(steps) == 1
        assert not steps[0].is_upward
        assert steps[0].ratio == pytest.approx(0.5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            detect_steps([1, 2], [1.0])

    def test_non_positive_latency_rejected(self):
        with pytest.raises(ValueError):
            detect_steps([1, 2], [1.0, 0.0])


class TestDetectPlateaus:
    def test_plateau_boundaries(self):
        counts, times = zip(*staircase_pairs())
        plateaus = detect_plateaus(list(counts), list(times))
        assert [(p.min_channels, p.max_channels) for p in plateaus] == [(1, 4), (5, 8), (9, 12)]

    def test_plateau_width(self):
        counts, times = zip(*staircase_pairs())
        assert all(p.width == 4 for p in detect_plateaus(list(counts), list(times)))

    def test_empty_input(self):
        assert detect_plateaus([], []) == []


class TestClusterLevels:
    def test_two_levels(self):
        levels = cluster_levels([1.0, 1.02, 2.0, 2.05, 1.01])
        assert len(levels) == 2

    def test_single_level(self):
        assert len(cluster_levels([3.0, 3.01, 2.99])) == 1

    def test_levels_sorted_ascending(self):
        levels = cluster_levels([5.0, 1.0, 3.0])
        assert levels == sorted(levels)


class TestAnalyzeTable:
    def test_synthetic_staircase_analysis(self):
        table = table_from(staircase_pairs())
        analysis = analyze_table(table)
        assert analysis.level_count == 3
        assert analysis.optimal_channel_counts == [4, 8, 12]
        assert analysis.max_step_ratio == pytest.approx(2.0)
        assert not analysis.has_downward_steps()

    def test_parallel_staircase_has_downward_steps(self):
        # Alternating fast/slow plateaus, as in the ACL GEMM figures.
        pairs = [(1, 2.0), (2, 2.0), (3, 1.0), (4, 1.0), (5, 3.0), (6, 3.0), (7, 1.5), (8, 1.5)]
        analysis = analyze_table(table_from(pairs))
        assert analysis.has_downward_steps()

    def test_optimal_pruning_levels_include_max(self):
        table = table_from(staircase_pairs())
        levels = optimal_pruning_levels(table)
        assert 12 in levels
        assert levels == [4, 8, 12]

    def test_optimal_pruning_levels_respect_upper_bound(self):
        table = table_from(staircase_pairs())
        assert optimal_pruning_levels(table, max_channels=9) == [4, 8, 9]


class TestOnMeasuredData:
    def test_cudnn_staircase_structure(self, cudnn_runner, layer16):
        """The measured cuDNN curve has steps exactly at tile boundaries."""

        table = build_latency_table(cudnn_runner, layer16, range(1, 129))
        analysis = analyze_table(table)
        step_positions = {step.channels_before for step in analysis.steps}
        assert step_positions == {32, 64, 96}
        assert analysis.level_count == 4
        assert not analysis.has_downward_steps()

    def test_acl_gemm_has_parallel_staircases(self, gemm_runner, layer16):
        table = build_latency_table(gemm_runner, layer16, range(60, 129))
        analysis = analyze_table(table)
        assert analysis.has_downward_steps()
        assert analysis.level_count >= 2

    def test_optimal_levels_prefer_plateau_edges(self, cudnn_runner, layer16):
        table = build_latency_table(cudnn_runner, layer16, range(1, 129))
        levels = optimal_pruning_levels(table)
        assert {32, 64, 96, 128}.issubset(set(levels))


# ---------------------------------------------------------------------------
# The array-based detectors against the plain loops they replaced
# ---------------------------------------------------------------------------
def _loop_steps(counts, times, threshold):
    return [
        (counts[i - 1], counts[i], times[i - 1], times[i])
        for i in range(1, len(counts))
        if abs(times[i] - times[i - 1]) / times[i - 1] > threshold
    ]


def _loop_plateaus(counts, times, threshold):
    plateaus, start = [], 0
    for i in range(1, len(counts) + 1):
        if i == len(counts) or abs(times[i] - times[i - 1]) / times[i - 1] > threshold:
            run = times[start:i]
            plateaus.append((counts[start], counts[i - 1], sum(run) / len(run)))
            start = i
    return plateaus


def _loop_levels(times, tolerance):
    levels = []
    for time in sorted(times):
        for level in levels:
            centre = sum(level) / len(level)
            if abs(time - centre) / centre <= tolerance:
                level.append(time)
                break
        else:
            levels.append([time])
    return [sum(level) / len(level) for level in levels]


_LATENCIES = st.lists(
    st.one_of(
        st.floats(0.5, 4.0),
        st.sampled_from([1.0, 1.05, 1.1, 1.12, 1.2, 2.0]),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(times=_LATENCIES, threshold=st.sampled_from([0.0, 0.05, 0.08, 0.12]))
def test_detectors_match_the_loops_bitwise(times, threshold):
    counts = list(range(1, len(times) + 1))
    steps = [
        (s.channels_before, s.channels_after, s.time_before_ms, s.time_after_ms)
        for s in detect_steps(counts, times, threshold)
    ]
    assert steps == _loop_steps(counts, times, threshold)
    plateaus = [
        (p.min_channels, p.max_channels, p.mean_time_ms)
        for p in detect_plateaus(counts, times, threshold)
    ]
    assert plateaus == _loop_plateaus(counts, times, threshold)
    assert cluster_levels(times, threshold) == _loop_levels(times, threshold)

    # An analysis stores the curve and its breaks; its lazy views must be
    # those of the threshold it was given, not the default one.
    analysis = analyze_table(table_from(zip(counts, times)), threshold)
    loop_plateaus = _loop_plateaus(counts, times, threshold)
    assert [
        (s.channels_before, s.channels_after, s.time_before_ms, s.time_after_ms)
        for s in analysis.steps
    ] == _loop_steps(counts, times, threshold)
    assert [
        (p.min_channels, p.max_channels, p.mean_time_ms) for p in analysis.plateaus
    ] == loop_plateaus
    assert list(analysis.level_times_ms) == _loop_levels(
        [mean for _, _, mean in loop_plateaus], 0.12
    )
    edges = [right for _, right, _ in loop_plateaus]
    assert analysis.optimal_channel_counts == edges
    for max_channels in {1, len(times) // 2 + 1, len(times), len(times) + 3}:
        expected = sorted({edge for edge in edges if edge <= max_channels} | {max_channels})
        assert analysis.pruning_levels(max_channels) == expected


class TestAnalysisEquality:
    def test_equal_tables_give_equal_analyses(self):
        first = analyze_table(table_from(staircase_pairs()))
        second = analyze_table(table_from(staircase_pairs()))
        assert first is not second
        assert first == second

    def test_other_times_or_threshold_differ(self):
        analysis = analyze_table(table_from(staircase_pairs()))
        slower = [(count, time * 1.5) for count, time in staircase_pairs()]
        assert analysis != analyze_table(table_from(slower))
        assert analysis != analyze_table(table_from(staircase_pairs()), threshold=0.05)

    def test_analyses_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(analyze_table(table_from(staircase_pairs())))
