"""Domain types, on-disk session format, ingestion, and validation.

A dataset on disk is a directory tree::

    <root>/<participant_id>/<task>_<level>/
        manifest.json     participant, task, level, duration_s
        rr.csv            t_s,rr_ms
        pupil_left.csv    t_s,diameter_mm,confidence
        pupil_right.csv   t_s,diameter_mm,confidence
        driving.csv       t_s,lateral_position_m,target_lane
        events.csv        t_s,kind,payload

All numerics are decimal with '.' separator, UTF-8, LF line endings.
Floats are written with repr() so a write/load round trip is bit-exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable


class DatasetError(Exception):
    """Raised for unreadable, malformed, or inconsistent dataset trees."""


class TaskKind(Enum):
    NBACK = "nback"
    VISUAL_SEARCH = "visual_search"


class LoadLevel(IntEnum):
    EASY = 0
    MEDIUM = 1
    HARD = 2


_LEVEL_NAMES = {"easy": LoadLevel.EASY, "medium": LoadLevel.MEDIUM, "hard": LoadLevel.HARD}


class EventKind(Enum):
    STIMULUS_ONSET = "stimulus_onset"
    RESPONSE = "response"
    TARGET_PRESENT = "target_present"
    TARGET_ABSENT = "target_absent"


# Kinds that mark the start of a stimulus window.  TargetPresent/TargetAbsent
# double as onset markers so event timestamps stay distinct.
STIMULUS_KINDS = (EventKind.STIMULUS_ONSET, EventKind.TARGET_PRESENT, EventKind.TARGET_ABSENT)


@dataclass(frozen=True)
class TaskEvent:
    t_s: float
    kind: EventKind
    payload: str | None = None


@dataclass(frozen=True)
class SessionSegment:
    """One participant x task x difficulty recording."""

    participant_id: str
    task: TaskKind
    level: LoadLevel
    rr_intervals: tuple[tuple[float, float], ...]  # (onset_s, rr_ms)
    pupil_left: tuple[tuple[float, float, float], ...]  # (t_s, diameter_mm, confidence)
    pupil_right: tuple[tuple[float, float, float], ...]
    driving: tuple[tuple[float, float, int], ...]  # (t_s, lateral_position_m, target_lane)
    events: tuple[TaskEvent, ...]
    duration_s: float


@dataclass(frozen=True)
class Dataset:
    segments: tuple[SessionSegment, ...]

    @property
    def participants(self) -> dict[str, list[SessionSegment]]:
        index: dict[str, list[SessionSegment]] = {}
        for seg in self.segments:
            index.setdefault(seg.participant_id, []).append(seg)
        return index


FEATURE_NAMES = (
    "hr_mean",
    "hr_min",
    "hr_max",
    "hr_std",
    "hrv_rmssd",
    "lhipa_left",
    "lhipa_right",
    "drive_avg_dev",
)


@dataclass(frozen=True)
class FeatureVector:
    """The eight model input features; unavailable channels are named in `missing`."""

    hr_mean: float | None = None
    hr_min: float | None = None
    hr_max: float | None = None
    hr_std: float | None = None
    hrv_rmssd: float | None = None
    lhipa_left: float | None = None
    lhipa_right: float | None = None
    drive_avg_dev: float | None = None
    missing: frozenset[str] = frozenset()

    def value(self, name: str) -> float | None:
        if name not in FEATURE_NAMES:
            raise KeyError(name)
        return getattr(self, name)


@dataclass(frozen=True)
class Issue:
    severity: str  # "error" | "warning"
    message: str

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


PUPIL_GAP_CONFIDENCE = 0.6
PUPIL_GAP_WARN_FRACTION = 0.25
MIN_RR_COUNT_WARN = 30


def _check_increasing(times: Iterable[float], name: str, issues: list[Issue]) -> None:
    prev = None
    for t in times:
        if prev is not None and t <= prev:
            issues.append(Issue("error", f"{name}: timestamps not strictly increasing at t={t!r}"))
            return
        prev = t


def pupil_gap_fraction(samples: Iterable[tuple[float, float, float]]) -> float:
    """Fraction of pupil samples whose confidence falls below the gap threshold."""
    samples = list(samples)
    if not samples:
        return 1.0
    gaps = sum(1 for _, _, conf in samples if conf < PUPIL_GAP_CONFIDENCE)
    return gaps / len(samples)


def validate_segment(seg: SessionSegment) -> list[Issue]:
    """Check all SessionSegment invariants; returns [] iff the segment is clean.

    Issues are data, not failures: callers decide whether errors are fatal.
    """
    issues: list[Issue] = []

    if not 60.0 <= seg.duration_s <= 300.0:
        issues.append(Issue("error", f"duration_s {seg.duration_s!r} outside [60, 300]"))

    _check_increasing((t for t, _ in seg.rr_intervals), "rr", issues)
    for name, samples in (("pupil_left", seg.pupil_left), ("pupil_right", seg.pupil_right)):
        _check_increasing((t for t, _, _ in samples), name, issues)
    _check_increasing((t for t, _, _ in seg.driving), "driving", issues)

    for _, rr_ms in seg.rr_intervals:
        if not 0 < rr_ms < math.inf:
            problem = "non-positive" if rr_ms <= 0 else "non-finite"
            issues.append(Issue("error", f"{problem} RR interval {rr_ms!r}"))
            break

    # a diameter at confidence 0 is a blink: any value, NaN included, is accepted
    for name, samples in (("pupil_left", seg.pupil_left), ("pupil_right", seg.pupil_right)):
        for _, diameter, conf in samples:
            if conf > 0 and not 0 < diameter < math.inf:
                problem = "non-positive" if diameter <= 0 else "non-finite"
                issues.append(Issue("error", f"{name}: {problem} diameter at confidence > 0"))
                break
        for t, _, conf in samples:
            if not 0.0 <= conf <= 1.0:
                issues.append(Issue("error", f"{name}: confidence {conf!r} outside [0, 1]"))
                break

    for _, lateral, _ in seg.driving:
        if not math.isfinite(lateral):
            issues.append(Issue("error", f"driving: non-finite lateral position {lateral!r}"))
            break

    def _t_in_range(times: Iterable[float], name: str) -> None:
        for t in times:
            if not 0.0 <= t <= seg.duration_s:
                issues.append(Issue("error", f"{name}: sample time {t!r} outside [0, duration]"))
                return

    _t_in_range((t for t, _ in seg.rr_intervals), "rr")
    _t_in_range((t for t, _, _ in seg.pupil_left), "pupil_left")
    _t_in_range((t for t, _, _ in seg.pupil_right), "pupil_right")
    _t_in_range((t for t, _, _ in seg.driving), "driving")
    _t_in_range((e.t_s for e in seg.events), "events")

    prev_t = None
    for e in seg.events:
        if prev_t is not None and e.t_s < prev_t:
            issues.append(Issue("error", "events: timestamps decrease"))
            break
        prev_t = e.t_s
    seen_stimulus = False
    for e in seg.events:
        if e.kind in STIMULUS_KINDS:
            seen_stimulus = True
        elif e.kind is EventKind.RESPONSE and not seen_stimulus:
            issues.append(Issue("error", "events: Response before any stimulus marker"))
            break

    for name, samples in (("pupil_left", seg.pupil_left), ("pupil_right", seg.pupil_right)):
        if samples:
            frac = pupil_gap_fraction(samples)
            if frac > PUPIL_GAP_WARN_FRACTION:
                issues.append(
                    Issue("warning", f"{name}: pupil gap fraction {frac:.2f} > {PUPIL_GAP_WARN_FRACTION}")
                )

    if len(seg.rr_intervals) < MIN_RR_COUNT_WARN:
        issues.append(Issue("warning", f"fewer than {MIN_RR_COUNT_WARN} RR intervals"))

    return issues


def validate_dataset(dataset: Dataset) -> list[Issue]:
    """Cross-segment checks: duplicate conditions and incomplete n-back coverage."""
    issues: list[Issue] = []
    seen: set[tuple[str, TaskKind, LoadLevel]] = set()
    for seg in dataset.segments:
        key = (seg.participant_id, seg.task, seg.level)
        if key in seen:
            issues.append(
                Issue("error", f"duplicate segment {seg.participant_id}/{seg.task.value}/{seg.level.name.lower()}")
            )
        seen.add(key)
    for pid, segs in dataset.participants.items():
        levels = {s.level for s in segs if s.task is TaskKind.NBACK}
        if levels and levels != {LoadLevel.EASY, LoadLevel.MEDIUM, LoadLevel.HARD}:
            issues.append(Issue("warning", f"participant {pid} lacks a complete n-back level set"))
    return issues


# ---------------------------------------------------------------------------
# On-disk format


def _read_csv(path: Path, header: list[str], types: list) -> list[tuple]:
    if not path.exists():
        raise DatasetError(f"{path}: missing file")
    rows: list[tuple] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if first != header:
            raise DatasetError(f"{path}: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DatasetError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                rows.append(tuple(t(v) if v != "" else None for t, v in zip(types, row)))
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from None
    return rows


def _load_segment_dir(seg_dir: Path) -> SessionSegment:
    manifest_path = seg_dir / "manifest.json"
    if not manifest_path.exists():
        raise DatasetError(f"{manifest_path}: missing manifest")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{manifest_path}: {exc}") from None

    try:
        task_name = manifest["task"]
        level_name = manifest["level"]
        participant = str(manifest["participant"])
        duration_s = float(manifest["duration_s"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{manifest_path}: bad manifest field: {exc}") from None

    try:
        task = TaskKind(task_name)
    except ValueError:
        raise DatasetError(f"{manifest_path}: field 'task' has unknown value {task_name!r}") from None
    if level_name not in _LEVEL_NAMES:
        raise DatasetError(f"{manifest_path}: field 'level' has unknown value {level_name!r}")
    level = _LEVEL_NAMES[level_name]

    rr = _read_csv(seg_dir / "rr.csv", ["t_s", "rr_ms"], [float, float])
    pupil_l = _read_csv(seg_dir / "pupil_left.csv", ["t_s", "diameter_mm", "confidence"], [float, float, float])
    pupil_r = _read_csv(seg_dir / "pupil_right.csv", ["t_s", "diameter_mm", "confidence"], [float, float, float])
    driving = _read_csv(
        seg_dir / "driving.csv", ["t_s", "lateral_position_m", "target_lane"], [float, float, int]
    )
    raw_events = _read_csv(seg_dir / "events.csv", ["t_s", "kind", "payload"], [float, str, str])
    events = []
    for t_s, kind, payload in raw_events:
        try:
            ek = EventKind(kind)
        except ValueError:
            raise DatasetError(f"{seg_dir / 'events.csv'}: unknown event kind {kind!r}") from None
        events.append(TaskEvent(t_s, ek, payload or None))

    return SessionSegment(
        participant_id=participant,
        task=task,
        level=level,
        rr_intervals=tuple(rr),
        pupil_left=tuple(pupil_l),
        pupil_right=tuple(pupil_r),
        driving=tuple(driving),
        events=tuple(events),
        duration_s=duration_s,
    )


def load_dataset(root_path: str | Path, strict: bool = False, report=None) -> Dataset:
    """Load a dataset tree.

    Lenient mode (default) skips segments that fail validation and reports
    them through `report` (a callable taking a message string); strict mode
    aborts on the first bad segment.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise DatasetError(f"{root}: not a directory")
    report = report or (lambda msg: None)

    seg_dirs = sorted(p for p in root.glob("*/*") if p.is_dir() and (p / "manifest.json").exists())
    if not seg_dirs:
        raise DatasetError(f"{root}: no segments found")

    segments: list[SessionSegment] = []
    seen: set[tuple[str, TaskKind, LoadLevel]] = set()
    for seg_dir in seg_dirs:
        try:
            seg = _load_segment_dir(seg_dir)
            errors = [i for i in validate_segment(seg) if i.is_error]
            if errors:
                raise DatasetError(f"{seg_dir}: {errors[0].message}")
            key = (seg.participant_id, seg.task, seg.level)
            if key in seen:
                raise DatasetError(f"{seg_dir}: duplicate (participant, task, level)")
        except DatasetError as exc:
            if strict:
                raise
            report(f"skipping segment: {exc}")
            continue
        seen.add(key)
        segments.append(seg)

    if not segments:
        raise DatasetError(f"{root}: no segments found")
    return Dataset(segments=tuple(segments))


def _write_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_dataset(dataset: Dataset, root_path: str | Path) -> None:
    """Write a dataset as the directory tree described in the module docstring."""
    root = Path(root_path)
    for seg in dataset.segments:
        seg_dir = root / seg.participant_id / f"{seg.task.value}_{seg.level.name.lower()}"
        seg_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "participant": seg.participant_id,
            "task": seg.task.value,
            "level": seg.level.name.lower(),
            "duration_s": seg.duration_s,
        }
        (seg_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        _write_csv(seg_dir / "rr.csv", ["t_s", "rr_ms"], seg.rr_intervals)
        _write_csv(seg_dir / "pupil_left.csv", ["t_s", "diameter_mm", "confidence"], seg.pupil_left)
        _write_csv(seg_dir / "pupil_right.csv", ["t_s", "diameter_mm", "confidence"], seg.pupil_right)
        _write_csv(seg_dir / "driving.csv", ["t_s", "lateral_position_m", "target_lane"], seg.driving)
        _write_csv(
            seg_dir / "events.csv",
            ["t_s", "kind", "payload"],
            ((e.t_s, e.kind.value, e.payload or "") for e in seg.events),
        )
