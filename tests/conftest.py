"""Shared builders for hand-made sessions used across the test modules."""

from __future__ import annotations

import numpy as np
import pytest

from loadsense.core import (
    Dataset,
    EventKind,
    LoadLevel,
    SessionSegment,
    TaskEvent,
    TaskKind,
)


def make_rr(duration_s: float = 120.0, rr_ms: float = 800.0) -> tuple:
    """Constant-RR beat series covering the segment."""
    onsets = np.arange(rr_ms / 1000.0, duration_s, rr_ms / 1000.0)
    return tuple((float(t), rr_ms) for t in onsets)


def make_pupil(duration_s: float = 120.0, rate_hz: float = 120.0, diameter: float = 4.0) -> tuple:
    t = np.arange(int(duration_s * rate_hz)) / rate_hz
    return tuple((float(tt), diameter, 1.0) for tt in t)


def make_driving(duration_s: float = 120.0, rate_hz: float = 33.0, lateral: float = 3.5, lane: int = 1) -> tuple:
    t = np.arange(int(duration_s * rate_hz)) / rate_hz
    return tuple((float(tt), lateral, lane) for tt in t)


def make_events(n: int = 10, interval_s: float = 3.0) -> tuple:
    events = []
    for i in range(n):
        onset = 1.0 + i * interval_s
        kind = EventKind.TARGET_PRESENT if i % 2 == 0 else EventKind.TARGET_ABSENT
        events.append(TaskEvent(onset, kind, payload=f"s{i}"))
        if i % 2 == 0:
            events.append(TaskEvent(onset + 1.0, EventKind.RESPONSE, payload=f"s{i}"))
    events.sort(key=lambda e: e.t_s)
    return tuple(events)


def make_segment(
    participant: str = "p000",
    task: TaskKind = TaskKind.NBACK,
    level: LoadLevel = LoadLevel.EASY,
    duration_s: float = 120.0,
    **overrides,
) -> SessionSegment:
    fields = dict(
        participant_id=participant,
        task=task,
        level=level,
        rr_intervals=make_rr(duration_s),
        pupil_left=make_pupil(duration_s),
        pupil_right=make_pupil(duration_s),
        driving=make_driving(duration_s),
        events=make_events(),
        duration_s=duration_s,
    )
    fields.update(overrides)
    return SessionSegment(**fields)


# shared by the whole session: a segment is frozen and its arrays read-only
@pytest.fixture(scope="session")
def clean_segment() -> SessionSegment:
    return make_segment()


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    segments = []
    for pid in ("p000", "p001"):
        for task in TaskKind:
            for level in LoadLevel:
                segments.append(make_segment(pid, task, level))
    return Dataset(segments=tuple(segments))
