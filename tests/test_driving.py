"""Ideal-path, lateral-deviation, and secondary-task scoring tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loadsense.core import EventKind, TaskEvent
from loadsense.driving import (
    DEFAULT_SPEED_MPS,
    LANE_WIDTH_M,
    TRANSITION_M,
    build_ideal_path,
    deviation_series,
    deviation_stats,
    nback_rate,
    visual_search_perf,
)


class TestIdealPath:
    def test_no_change_points_is_constant_lane_center(self):
        path = build_ideal_path([])
        s = np.linspace(0.0, 500.0, 50)
        assert np.allclose(path.offset(s), 0.0)

    def test_single_change_ramp_endpoints_and_midpoint(self):
        path = build_ideal_path([(100.0, 0, 1)])
        assert path.offset(100.0) == pytest.approx(0.0)
        assert path.offset(136.0) == pytest.approx(3.5)
        assert path.offset(118.0) == pytest.approx(1.75)

    def test_overlapping_transitions_rejected(self):
        with pytest.raises(ValueError, match="overlapping transitions"):
            build_ideal_path([(100.0, 0, 1), (120.0, 1, 0)])

    def test_unordered_change_points_rejected(self):
        with pytest.raises(ValueError, match="strictly ordered"):
            build_ideal_path([(200.0, 0, 1), (100.0, 1, 2)])

    def test_discontinuous_lane_sequence_rejected(self):
        with pytest.raises(ValueError, match="discontinuous"):
            build_ideal_path([(100.0, 0, 1), (300.0, 2, 1)])

    @given(st.lists(st.floats(min_value=0.0, max_value=5000.0), min_size=1, max_size=30))
    def test_offset_is_continuous(self, positions):
        path = build_ideal_path([(100.0, 0, 1), (400.0, 1, 2), (800.0, 2, 1)])
        for s in positions:
            left = path.offset(s - 1e-6)
            right = path.offset(s + 1e-6)
            assert abs(float(right) - float(left)) < 1e-3  # bounded slope 3.5/36 m per m


class TestDeviationSeries:
    def test_trace_on_path_gives_zeros(self):
        path = build_ideal_path([])
        trace = np.array([(t, 0.0) for t in np.arange(0, 10, 1 / 33)])
        dev = deviation_series(trace, path)
        assert np.allclose(dev, 0.0)

    def test_constant_offset_gives_constant_deviation(self):
        path = build_ideal_path([])
        trace = np.array([(t, 0.5) for t in np.arange(0, 10, 1 / 33)])
        dev = deviation_series(trace, path)
        assert np.allclose(dev, 0.5)

    def test_ten_second_trace_gives_exactly_330_samples(self):
        path = build_ideal_path([])
        trace = np.array([(0.0, 0.0), (10.0, 0.0)])
        assert len(deviation_series(trace, path)) == 330

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError, match="at least 1 s"):
            deviation_series(np.array([(0.0, 0.0), (0.5, 0.0)]), build_ideal_path([]))

    def test_deviation_is_absolute(self):
        path = build_ideal_path([])
        trace = np.array([(t, -0.7) for t in np.arange(0, 5, 0.1)])
        dev = deviation_series(trace, path)
        assert np.allclose(dev, 0.7)


class TestDeviationStats:
    def test_all_zeros(self):
        dev = deviation_series(np.array([(0.0, 0.0), (10.0, 0.0)]), build_ideal_path([]))
        assert deviation_stats(dev) == 0.0

    def test_two_values_hand_computed(self):
        assert deviation_stats(np.asarray([0.1, 0.3])) == pytest.approx(0.2)

    def test_constant_values(self):
        assert deviation_stats(np.full(100, 0.5)) == 0.5

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty series"):
            deviation_stats(np.zeros(0))


def _stim(t, present):
    kind = EventKind.TARGET_PRESENT if present else EventKind.TARGET_ABSENT
    return TaskEvent(t, kind)


class TestNbackRate:
    def test_all_hits_no_false_positives(self):
        events = []
        for i in range(10):
            events.append(_stim(3.0 * i, True))
            events.append(TaskEvent(3.0 * i + 1.0, EventKind.RESPONSE))
        assert nback_rate(sorted(events, key=lambda e: e.t_s)) == 1.0

    def test_hits_minus_false_positives_over_targets(self):
        events = []
        for i in range(10):  # 10 targets, respond to the first 8
            events.append(_stim(3.0 * i, True))
            if i < 8:
                events.append(TaskEvent(3.0 * i + 1.0, EventKind.RESPONSE))
        for i in range(10, 15):  # 5 non-targets, respond to 2
            events.append(_stim(3.0 * i, False))
            if i < 12:
                events.append(TaskEvent(3.0 * i + 1.0, EventKind.RESPONSE))
        assert nback_rate(sorted(events, key=lambda e: e.t_s)) == pytest.approx(0.6)

    def test_no_targets_raises(self):
        with pytest.raises(ValueError, match="no targets"):
            nback_rate([_stim(0.0, False)])


class TestVisualSearchPerf:
    def test_mean_rt_hand_computed(self):
        events = [
            _stim(0.0, True),
            TaskEvent(1.2, EventKind.RESPONSE),
            _stim(3.0, True),
            TaskEvent(4.5, EventKind.RESPONSE),
        ]
        mean_rt, accuracy = visual_search_perf(events)
        assert mean_rt == pytest.approx(1.35)
        assert accuracy == 1.0

    def test_no_responses(self):
        events = [_stim(0.0, True), _stim(3.0, False)]
        mean_rt, accuracy = visual_search_perf(events)
        assert mean_rt is None
        assert accuracy == pytest.approx(0.5)  # miss the target, correctly reject the absent

    def test_response_outside_window_ignored(self):
        events = [_stim(0.0, False), _stim(10.0, True), TaskEvent(13.5, EventKind.RESPONSE)]
        mean_rt, accuracy = visual_search_perf(events)
        assert mean_rt is None  # 3.5 s > the 3 s window
        assert accuracy == pytest.approx(0.5)

    def test_no_stimuli_raises(self):
        with pytest.raises(ValueError, match="no stimuli"):
            visual_search_perf([TaskEvent(1.0, EventKind.RESPONSE)])


class TestDefaults:
    def test_speed_is_60_kmh(self):
        assert DEFAULT_SPEED_MPS == pytest.approx(60.0 / 3.6)

    def test_lane_geometry_defaults(self):
        assert LANE_WIDTH_M == 3.5
        assert TRANSITION_M == 36.0
