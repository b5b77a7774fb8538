"""Ideal-path construction, mean lateral deviation, and secondary-task scores."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EventKind, STIMULUS_KINDS, TaskEvent

LANE_WIDTH_M = 3.5
TRANSITION_M = 36.0
DEVIATION_RATE_HZ = 33.0
DEFAULT_SPEED_MPS = 60.0 / 3.6  # undisturbed lane-change speed, 60 km/h
# stimulus presentation (2 s) plus inter-stimulus pause (1 s)
STIMULUS_WINDOW_S = 3.0


@dataclass(frozen=True)
class IdealPath:
    """Piecewise-linear lane-center reference: longitudinal s -> lateral offset.

    Lane k's center sits at k * LANE_WIDTH_M.  Each lane change is a linear
    ramp of exactly TRANSITION_M meters starting at the change point.
    """

    change_points: tuple[tuple[float, int, int], ...]  # (s, from_lane, to_lane)

    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        start_lane = self.change_points[0][1] if self.change_points else 0
        xs = [0.0]
        ys = [start_lane * LANE_WIDTH_M]
        for s, from_lane, to_lane in self.change_points:
            xs.append(s)
            ys.append(from_lane * LANE_WIDTH_M)
            xs.append(s + TRANSITION_M)
            ys.append(to_lane * LANE_WIDTH_M)
        return np.asarray(xs), np.asarray(ys)

    def offset(self, s) -> np.ndarray:
        """Lateral center offset in meters at longitudinal position(s) s."""
        xs, ys = self._knots()
        return np.interp(np.asarray(s, dtype=float), xs, ys)


def build_ideal_path(change_points: Sequence[tuple[float, int, int]]) -> IdealPath:
    points = tuple(change_points)
    for (s0, _, prev_to), (s1, from_lane, _) in zip(points, points[1:]):
        if s1 <= s0:
            raise ValueError("change points must be strictly ordered")
        if s1 - s0 <= TRANSITION_M:
            raise ValueError("overlapping transitions")
        if from_lane != prev_to:
            raise ValueError("discontinuous lane sequence in change points")
    return IdealPath(change_points=points)


def deviation_series(trace: np.ndarray, path: IdealPath) -> np.ndarray:
    """|actual - ideal| lateral distance resampled to 33 Hz.

    The trace is an array whose first two columns are (t_s,
    lateral_position_m); longitudinal position is DEFAULT_SPEED_MPS * (t - t0).
    The output grid is half-open: samples at t0 + k/33 for
    k = 0 .. floor(span * 33) - 1, so a 10 s trace yields exactly 330 values.
    An empty trace, a non-finite sample time or lateral position, or a span
    under 1 s raises ValueError.
    """
    if len(trace) == 0:
        raise ValueError("deviation_series: empty trace")
    t = trace[:, 0]
    lat = trace[:, 1]
    if not np.isfinite(t).all():
        raise ValueError("deviation_series: non-finite sample time")
    if not np.isfinite(lat).all():
        raise ValueError("deviation_series: non-finite lateral position")
    span = t[-1] - t[0]
    if span < 1.0:
        raise ValueError("deviation_series: trace must cover at least 1 s")
    n = int(math.floor(span * DEVIATION_RATE_HZ))
    grid = t[0] + np.arange(n) / DEVIATION_RATE_HZ
    lat_u = np.interp(grid, t, lat)
    s = DEFAULT_SPEED_MPS * (grid - t[0])
    return np.abs(lat_u - path.offset(s))


def deviation_stats(v: np.ndarray) -> float:
    """The mean of the deviation values."""
    if len(v) == 0:
        raise ValueError("deviation_stats: empty series")
    return float(np.mean(v))


def compute_drive_avg_dev(driving: np.ndarray) -> float | None:
    """Mean deviation of the trace from the ideal path its target_lane changes
    imply; None when `build_ideal_path` or `deviation_series` rejects it."""
    t, lane = driving[:, 0], driving[:, 2]
    changes = np.flatnonzero(np.diff(lane)) + 1
    change_points = [(DEFAULT_SPEED_MPS * (t[i] - t[0]), lane[i - 1], lane[i]) for i in changes]
    try:
        return deviation_stats(deviation_series(driving, build_ideal_path(change_points)))
    except ValueError:
        return None


def _stimulus_windows(events: Sequence[TaskEvent]) -> list[tuple[TaskEvent, float]]:
    """Stimulus markers paired with their window end (next onset, or +3 s for the last)."""
    stimuli = [e for e in events if e.kind in STIMULUS_KINDS]
    windows = []
    for i, stim in enumerate(stimuli):
        end = stimuli[i + 1].t_s if i + 1 < len(stimuli) else stim.t_s + STIMULUS_WINDOW_S
        windows.append((stim, end))
    return windows


def nback_rate(events: Sequence[TaskEvent]) -> float:
    """(hits - false positives) / number of targets.

    A hit is a Response inside a TargetPresent stimulus window; a Response
    inside a TargetAbsent window counts as a false positive.  Windows run
    from each stimulus onset to the next.
    """
    windows = _stimulus_windows(events)
    responses = [e.t_s for e in events if e.kind is EventKind.RESPONSE]
    n_targets = sum(1 for stim, _ in windows if stim.kind is EventKind.TARGET_PRESENT)
    if n_targets == 0:
        raise ValueError("nback_rate: no targets in event log")
    hits = 0
    false_positives = 0
    for stim, end in windows:
        responded = any(stim.t_s < r <= end for r in responses)
        if stim.kind is EventKind.TARGET_PRESENT and responded:
            hits += 1
        elif stim.kind is EventKind.TARGET_ABSENT and responded:
            false_positives += 1
    return (hits - false_positives) / n_targets


def visual_search_perf(events: Sequence[TaskEvent]) -> tuple[float | None, float]:
    """(mean reaction time, accuracy) for the visual-search event log.

    Reaction time is response minus onset for stimuli answered inside the
    3 s presentation+pause window, averaged over answered stimuli (None if
    no stimulus was answered).  A stimulus is scored correct when the
    presence of a response matches the presence of a target.
    """
    windows = _stimulus_windows(events)
    if not windows:
        raise ValueError("visual_search_perf: no stimuli in event log")
    responses = [e.t_s for e in events if e.kind is EventKind.RESPONSE]
    rts = []
    correct = 0
    for stim, end in windows:
        end = min(end, stim.t_s + STIMULUS_WINDOW_S)
        in_window = [r for r in responses if stim.t_s < r <= end]
        responded = bool(in_window)
        if responded:
            rts.append(in_window[0] - stim.t_s)
        if stim.kind is EventKind.TARGET_PRESENT:
            correct += responded
        elif stim.kind is EventKind.TARGET_ABSENT:
            correct += not responded
        else:  # bare StimulusOnset: any response counts as correct
            correct += responded
    mean_rt = float(np.mean(rts)) if rts else None
    return mean_rt, correct / len(windows)
