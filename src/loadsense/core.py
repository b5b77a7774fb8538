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
Floats are written as repr() writes them, so a write/load round trip is
bit-exact.  A channel file whose every column lies on a decimal grid of at
most GRID_DECIMALS fraction digits (a generated tree: synth rounds each
channel to a sensor's resolution) is formatted by numpy in one byte pass
(`_grid_bytes`); any other channel file, and events.csv, is formatted
column by column with repr() and joined row by row.  Both write the same
bytes for any value the grid path accepts.

In memory each sample channel of a `SessionSegment` is one read-only
float64 array with the CSV's columns (target_lane included); events stay a
tuple of `TaskEvent`.

A channel file is read by one of two paths with the same result.  A
canonical file (the exact header line, then a non-empty LF-terminated body
of digits, '.', 'e', 'E', '+', '-', ',' and LF with no blank line) is
parsed by numpy's C `loadtxt`; `write_dataset` writes every non-empty
channel of finite values, with lanes inside int64, that way.  Any other
file, and any canonical file that `loadtxt` rejects, takes the csv-module
reader, which alone raises the `path:line` errors.  events.csv always
takes the csv-module reader.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import FORMAT_VERSION


class DatasetError(Exception):
    """Raised for unreadable, malformed, or inconsistent dataset trees."""


class TaskKind(Enum):
    NBACK = "nback"
    VISUAL_SEARCH = "visual_search"


class LoadLevel(IntEnum):
    EASY = 0
    MEDIUM = 1
    HARD = 2


# the on-disk and command-line names: task value -> TaskKind, lower-case level name -> LoadLevel
TASKS = {task.value: task for task in TaskKind}
LEVELS = {level.name.lower(): level for level in LoadLevel}


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


# sample channel -> (file, CSV header); the channel's array has the header's
# columns.  Every column is a float except target_lane, an int on disk.
CHANNEL_FILES = {
    "rr_intervals": ("rr.csv", ["t_s", "rr_ms"]),
    "pupil_left": ("pupil_left.csv", ["t_s", "diameter_mm", "confidence"]),
    "pupil_right": ("pupil_right.csv", ["t_s", "diameter_mm", "confidence"]),
    "driving": ("driving.csv", ["t_s", "lateral_position_m", "target_lane"]),
}


@dataclass(frozen=True, eq=False)
class SessionSegment:
    """One participant x task x difficulty recording.

    Each channel is a read-only float64 array with its file's columns (see
    CHANNEL_FILES), converted once here from whatever rows are passed in.
    Equality compares channels by shape and bytes, so it means bit-exact.
    """

    participant_id: str
    task: TaskKind
    level: LoadLevel
    rr_intervals: np.ndarray  # (onset_s, rr_ms)
    pupil_left: np.ndarray  # (t_s, diameter_mm, confidence)
    pupil_right: np.ndarray
    driving: np.ndarray  # (t_s, lateral_position_m, target_lane)
    events: tuple[TaskEvent, ...]
    duration_s: float

    def __post_init__(self):
        for name, (_, header) in CHANNEL_FILES.items():
            rows = getattr(self, name)
            samples = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
            samples.flags.writeable = False
            object.__setattr__(self, name, samples)

    def __eq__(self, other):
        if not isinstance(other, SessionSegment):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name in CHANNEL_FILES:
                if a.shape != b.shape or a.tobytes() != b.tobytes():
                    return False
            elif a != b:
                return False
        return True


@dataclass(frozen=True)
class Dataset:
    segments: tuple[SessionSegment, ...]


@dataclass(frozen=True)
class FeatureVector:
    """The eight model input features; None marks a feature whose channel was unusable."""

    hr_mean: float | None = None
    hr_min: float | None = None
    hr_max: float | None = None
    hr_std: float | None = None
    hrv_rmssd: float | None = None
    lhipa_left: float | None = None
    lhipa_right: float | None = None
    drive_avg_dev: float | None = None

    def value(self, name: str) -> float | None:
        if name not in FEATURE_NAMES:
            raise KeyError(name)
        return getattr(self, name)


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


@dataclass(frozen=True)
class FeatureRow:
    """One segment's features, keyed by its (participant, task, level)."""

    participant: str
    task: TaskKind
    level: LoadLevel
    features: FeatureVector


def feature_matrix(rows: Sequence[FeatureRow], names: Sequence[str]) -> np.ndarray:
    """The (rows, names) float array of the named features; NaN marks a missing one."""
    values = [[row.features.value(name) for name in names] for row in rows]
    return np.array(values, dtype=np.float64).reshape(len(rows), len(names))  # None reads as NaN


def provenance_header(seed: int) -> str:
    """The `# format_version=` and `# seed=` lines that open every CSV output."""
    return f"# format_version={FORMAT_VERSION}\n# seed={seed}\n"


def features_csv(rows: Iterable[FeatureRow], seed: int) -> str:
    """The text of features.csv: one line per row, repr() of each feature
    (bit-exact on reading back), an empty cell for a missing one."""
    lines = ["participant,task,level," + ",".join(FEATURE_NAMES)]
    for row in rows:
        cells = [row.participant, row.task.value, row.level.name.lower()]
        for name in FEATURE_NAMES:
            v = row.features.value(name)
            cells.append("" if v is None else repr(v))
        lines.append(",".join(cells))
    return provenance_header(seed) + "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Issue:
    severity: str  # "error" | "warning"
    message: str

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


# A pupil sample below this confidence is a gap.  Above this fraction of
# gap samples `validate_segment` warns and the LHIPA features go missing.
PUPIL_GAP_CONFIDENCE = 0.6
PUPIL_MAX_GAP_FRACTION = 0.25
MIN_RR_COUNT_WARN = 30
# a segment's duration_s must lie in this range
SEGMENT_MIN_DURATION_S = 60.0
SEGMENT_MAX_DURATION_S = 300.0


def pupil_gap_fraction(samples: np.ndarray) -> float:
    """Fraction of pupil samples whose confidence falls below the gap threshold."""
    if len(samples) == 0:
        return 1.0
    return np.count_nonzero(samples[:, 2] < PUPIL_GAP_CONFIDENCE) / len(samples)


def _first(values: np.ndarray, bad: np.ndarray) -> float | None:
    """The first of `values` where `bad` holds, as a Python float; None if none does."""
    where = np.flatnonzero(bad)
    return float(values[where[0]]) if len(where) else None


def validate_segment(seg: SessionSegment) -> list[Issue]:
    """Check all SessionSegment invariants; returns [] iff the segment is clean.

    Issues are data, not failures: callers decide whether errors are fatal.
    Each check reports the first offending sample of a channel.
    """
    issues: list[Issue] = []

    if not SEGMENT_MIN_DURATION_S <= seg.duration_s <= SEGMENT_MAX_DURATION_S:
        issues.append(Issue("error", f"duration_s {seg.duration_s!r} outside "
                                     f"[{SEGMENT_MIN_DURATION_S:g}, {SEGMENT_MAX_DURATION_S:g}]"))

    pupils = (("pupil_left", seg.pupil_left), ("pupil_right", seg.pupil_right))
    channels = (("rr", seg.rr_intervals), *pupils, ("driving", seg.driving))
    for name, samples in channels:
        t = samples[:, 0]
        bad = _first(t[1:], t[1:] <= t[:-1])
        if bad is not None:
            issues.append(Issue("error", f"{name}: timestamps not strictly increasing at t={bad!r}"))

    rr_ms = seg.rr_intervals[:, 1]
    bad = _first(rr_ms, ~((0 < rr_ms) & (rr_ms < math.inf)))
    if bad is not None:
        problem = "non-positive" if bad <= 0 else "non-finite"
        issues.append(Issue("error", f"{problem} RR interval {bad!r}"))

    for name, samples in pupils:
        diameter, conf = samples[:, 1], samples[:, 2]
        # a diameter at confidence 0 is a blink: any value, NaN included, is accepted
        bad = _first(diameter, (conf > 0) & ~((0 < diameter) & (diameter < math.inf)))
        if bad is not None:
            problem = "non-positive" if bad <= 0 else "non-finite"
            issues.append(Issue("error", f"{name}: {problem} diameter at confidence > 0"))
        bad = _first(conf, ~((0.0 <= conf) & (conf <= 1.0)))
        if bad is not None:
            issues.append(Issue("error", f"{name}: confidence {bad!r} outside [0, 1]"))

    lateral = seg.driving[:, 1]
    bad = _first(lateral, ~np.isfinite(lateral))
    if bad is not None:
        issues.append(Issue("error", f"driving: non-finite lateral position {bad!r}"))

    event_times = np.array([e.t_s for e in seg.events], dtype=np.float64)
    times = [(name, samples[:, 0]) for name, samples in channels] + [("events", event_times)]
    for name, t in times:
        bad = _first(t, ~((0.0 <= t) & (t <= seg.duration_s)))
        if bad is not None:
            issues.append(Issue("error", f"{name}: sample time {bad!r} outside [0, duration]"))

    if np.any(event_times[1:] < event_times[:-1]):
        issues.append(Issue("error", "events: timestamps decrease"))
    seen_stimulus = False
    for e in seg.events:
        if e.kind in STIMULUS_KINDS:
            seen_stimulus = True
        elif e.kind is EventKind.RESPONSE and not seen_stimulus:
            issues.append(Issue("error", "events: Response before any stimulus marker"))
            break

    for name, samples in pupils:
        if len(samples):
            frac = pupil_gap_fraction(samples)
            if frac > PUPIL_MAX_GAP_FRACTION:
                issues.append(
                    Issue("warning", f"{name}: pupil gap fraction {frac:.2f} > {PUPIL_MAX_GAP_FRACTION}")
                )

    if len(seg.rr_intervals) < MIN_RR_COUNT_WARN:
        issues.append(Issue("warning", f"fewer than {MIN_RR_COUNT_WARN} RR intervals"))

    return issues


def validate_dataset(keys: Iterable[tuple[str, TaskKind, LoadLevel]]) -> list[Issue]:
    """Cross-segment check over the (participant, task, level) key of each
    segment: a participant with n-back segments has all three levels."""
    nback_levels: dict[str, set[LoadLevel]] = {}
    for participant, task, level in keys:
        if task is TaskKind.NBACK:
            nback_levels.setdefault(participant, set()).add(level)
    return [Issue("warning", f"participant {pid} lacks a complete n-back level set")
            for pid, levels in nback_levels.items() if levels != set(LoadLevel)]


# ---------------------------------------------------------------------------
# On-disk format


def _read_rows(path: Path, header: list[str]) -> list[list[str]]:
    """The cells of every line below the header, as strings."""
    if not path.exists():
        raise DatasetError(f"{path}: missing file")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if first != header:
            raise DatasetError(f"{path}: expected header {','.join(header)}")
        return list(reader)


def _check_rows(path: Path, rows: list[list[str]], types: list) -> None:
    """Raise a DatasetError naming path:line at the first row with the wrong
    number of fields or with a cell that its column's type rejects."""
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(types):
            raise DatasetError(f"{path}:{lineno}: expected {len(types)} fields, got {len(row)}")
        try:
            for type_, cell in zip(types, row):
                type_(cell)
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from None


# The only bytes a canonical channel body holds: what repr() of a float and
# str() of an int write, the delimiter and LF.
_CANONICAL_BODY_BYTES = b"0123456789.eE+-,\n"
# A target_lane cell (the last column of driving.csv) that int() reads as 0
# but float() as -0.0, which an int64 field cannot carry.
_NEGATIVE_ZERO_LANE = re.compile(rb",-0+\n")


def _read_canonical(path: Path, header: list[str]) -> np.ndarray | None:
    """A canonical channel file parsed by numpy's C reader, or None for any
    file this path cannot vouch for.

    Canonical means: the first line is exactly the header, and the body is
    non-empty, ends in LF, starts with no blank line and holds only
    _CANONICAL_BODY_BYTES.  On such text loadtxt accepts and parses a float
    cell exactly as float() does, and a target_lane cell, read as int64,
    exactly as int() does (it rejects "1.0", "1e0" and overflow).  It skips
    blank lines, so the row count must equal the line count."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    head = (",".join(header) + "\n").encode()
    body = data[len(head):]
    if not data.startswith(head) or not body.endswith(b"\n") or body.translate(None, _CANONICAL_BODY_BYTES):
        return None
    if "target_lane" in header and _NEGATIVE_ZERO_LANE.search(body):
        return None
    lines = body.decode("ascii").splitlines()
    if not lines[0]:
        return None  # loadtxt warns on a body of blank lines alone
    dtype = [(name, np.int64 if name == "target_lane" else np.float64) for name in header]
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", ndmin=1)
    except ValueError:
        return None
    if len(table) != len(lines):
        return None
    return np.column_stack([table[name] for name in header])  # an int64 lane column promotes to float64


def _read_csv(path: Path, header: list[str]) -> np.ndarray:
    """A channel file as an (n, len(header)) float64 array.

    Each cell must parse as float() does, and a target_lane cell as int()
    does, so an empty cell is an error.  A canonical file (see
    _read_canonical) takes numpy's C parser; any other file, and any file
    that parser rejects, takes the csv-module path below, which alone makes
    every DatasetError."""
    samples = _read_canonical(path, header)
    if samples is not None:
        return samples
    rows = _read_rows(path, header)
    try:
        samples = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
        if "target_lane" in header:
            lane = header.index("target_lane")
            for row in rows:
                int(row[lane])
    except ValueError:
        # numpy parses each str cell as float() does, so _check_rows raises
        # for every file that gets here
        _check_rows(path, rows, [int if name == "target_lane" else float for name in header])
        raise
    return samples


# A participant id or event payload holding a delimiter, a quote or a line
# break splits or merges a CSV reader's cells, and a lone surrogate has no
# UTF-8 encoding; an empty payload reads back as None.
_PAYLOAD_BREAKERS = re.compile('[,"\r\n\ud800-\udfff]')


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
        participant = manifest["participant"]
        duration_s = manifest["duration_s"]
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"{manifest_path}: bad manifest field: {exc}") from None
    if type(duration_s) not in (int, float):  # a JSON number; not a bool, not a numeric string
        raise DatasetError(f"{manifest_path}: field 'duration_s' has non-numeric value {duration_s!r}")
    try:
        duration_s = float(duration_s)
    except OverflowError:  # an int beyond the float range, which validation then rejects
        duration_s = math.inf if duration_s > 0 else -math.inf
    if not isinstance(participant, str):
        raise DatasetError(f"{manifest_path}: field 'participant' has non-string value {participant!r}")
    if not participant or _PAYLOAD_BREAKERS.search(participant):
        raise DatasetError(f"{manifest_path}: field 'participant' {participant!r} is empty or not one CSV cell")

    for field, value, names in (("task", task_name, TASKS), ("level", level_name, LEVELS)):
        if not isinstance(value, str) or value not in names:
            raise DatasetError(f"{manifest_path}: field {field!r} has unknown value {value!r}")
    task, level = TASKS[task_name], LEVELS[level_name]

    channels = {name: _read_csv(seg_dir / file, header) for name, (file, header) in CHANNEL_FILES.items()}
    events_path = seg_dir / "events.csv"
    raw_events = _read_rows(events_path, ["t_s", "kind", "payload"])
    _check_rows(events_path, raw_events, [float, str, str])
    events = []
    for t_s, kind, payload in raw_events:
        try:
            ek = EventKind(kind)
        except ValueError:
            raise DatasetError(f"{events_path}: unknown event kind {kind!r}") from None
        events.append(TaskEvent(float(t_s), ek, payload or None))

    return SessionSegment(
        participant_id=participant,
        task=task,
        level=level,
        **channels,
        events=tuple(events),
        duration_s=duration_s,
    )


def iter_segments(root_path: str | Path, strict: bool = False, report=None) -> Iterator[SessionSegment]:
    """Yield each kept segment of a dataset tree, in sorted directory order.

    A segment is read and validated only when it is asked for, so a caller
    that keeps no segment holds about one at a time.  Lenient mode (default)
    skips a segment that fails validation or repeats a (participant, task,
    level) and reports it through `report` (a callable taking a message
    string); strict mode raises on the first such segment, after yielding the
    ones before it.  A skipped segment's one message names all of its errors,
    joined by "; ".  Both report each warning of a kept segment before
    yielding it.  A tree with no kept segment raises after its last segment.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise DatasetError(f"{root}: not a directory")
    report = report or (lambda msg: None)

    seg_dirs = sorted(p for p in root.glob("*/*") if p.is_dir() and (p / "manifest.json").exists())

    seen: set[tuple[str, TaskKind, LoadLevel]] = set()
    for seg_dir in seg_dirs:
        try:
            seg = _load_segment_dir(seg_dir)
            issues = validate_segment(seg)
            errors = [i for i in issues if i.is_error]
            if errors:
                raise DatasetError(f"{seg_dir}: " + "; ".join(e.message for e in errors))
            key = (seg.participant_id, seg.task, seg.level)
            if key in seen:
                raise DatasetError(f"{seg_dir}: duplicate (participant, task, level)")
        except DatasetError as exc:
            if strict:
                raise
            report(f"skipping segment: {exc}")
            continue
        for issue in issues:  # a kept segment's issues are all warnings
            report(f"warning: {seg_dir}: {issue.message}")
        seen.add(key)
        yield seg

    if not seen:
        raise DatasetError(f"{root}: no segments found")


def load_dataset(root_path: str | Path, strict: bool = False, report=None) -> Dataset:
    """Load a dataset tree: every segment `iter_segments` yields, in its order."""
    return Dataset(segments=tuple(iter_segments(root_path, strict, report)))


# A float column is written by `_grid_bytes` when it lies on the grid of
# some d <= GRID_DECIMALS fraction digits; see `_grid_column`.
GRID_DECIMALS = 6


def _grid_column(column: np.ndarray, lane: bool) -> tuple[np.ndarray, np.ndarray, int | None] | None:
    """A channel column as (negative, |k|, d) when it is on the grid, so that
    each cell is written as its sign, the digits of |k| // 10**d, and for a
    float column '.' and the d digits of |k| % 10**d without trailing zeros
    (at least one); None if it is off the grid.

    A float column is on the grid when every value x is 0 or has
    1e-4 <= |x|, and for the smallest d in 0..GRID_DECIMALS, k = rint(x * 10**d)
    has |k| < 10**15 and k / 10**d == x (NaN and the infinities fail this).
    Then x is the double nearest the decimal k * 10**-d, which has at most
    15 significant digits (DBL_DIG), and two decimals of at most 15
    significant digits never round to the same double.  So that decimal,
    without trailing zeros, is the shortest string that reads back as x,
    which is what repr() writes; and for 1e-4 <= |x| < 1e16 repr() writes
    it in fixed notation, with at least one fraction digit.  The sign comes
    from the sign bit, so -0.0 is written "-0.0" as repr() writes it.

    A lane column (lane=True, d is None) is written as str(int(x)) writes
    each x: it needs finite values with |x| < 10**15, truncated toward zero."""
    magnitude = np.abs(column)
    if lane:
        if not np.all(magnitude < 1e15):
            return None
        k = np.trunc(column)
        return k < 0, np.abs(k).astype(np.int64), None
    # |x| < 10**15 follows from the conditions on k; checked first, it also
    # keeps x * 10**d finite
    if not np.all((magnitude < 1e15) & ((magnitude >= 1e-4) | (column == 0))):
        return None
    for decimals in range(GRID_DECIMALS + 1):
        scale = 10.0 ** decimals
        k = np.rint(column * scale)
        if np.array_equal(k / scale, column) and np.all(np.abs(k) < 1e15):
            return np.signbit(column), np.abs(k).astype(np.int64), decimals
    return None


def _grid_bytes(samples: np.ndarray, header: list[str]) -> bytes | None:
    """The body of a channel file (every line below the header) when each of
    its columns is on the grid (see `_grid_column`), else None.

    The body is built as one (rows, width) uint8 matrix of ASCII bytes and a
    keep mask: per column a sign byte, right-aligned integer digits and, for
    a float column, '.' and left-aligned fraction digits, then ',' or LF.
    The kept bytes, row by row, are what the repr() column writer writes."""
    columns = []
    for name, column in zip(header, samples.T):
        grid = _grid_column(column, lane=name == "target_lane")
        if grid is None:
            return None
        negative, k, decimals = grid
        whole, fraction = np.divmod(k, 10 ** (decimals or 0))
        columns.append((negative, whole, len(str(whole.max(initial=0))), fraction, decimals))
    width = sum(2 + int_width + (1 + max(decimals, 1) if decimals is not None else 0)
                for _, _, int_width, _, decimals in columns)
    chars = np.empty((len(samples), width), dtype=np.uint8)
    keep = np.ones((len(samples), width), dtype=bool)
    pos = 0
    for negative, whole, int_width, fraction, decimals in columns:
        chars[:, pos] = ord("-")
        keep[:, pos] = negative
        pos += 1 + int_width
        for j in range(pos - 1, pos - 1 - int_width, -1):  # least significant digit first
            keep[:, j] = whole > 0  # no leading zero
            whole, digit = np.divmod(whole, 10)
            chars[:, j] = digit + ord("0")
        keep[:, pos - 1] = True
        if decimals is not None:
            chars[:, pos] = ord(".")
            frac_width = max(decimals, 1)  # an integer x is written "x.0"
            significant = np.zeros(len(samples), dtype=bool)
            for j in range(pos + frac_width, pos, -1):  # least significant digit first
                fraction, digit = np.divmod(fraction, 10)
                significant |= digit != 0  # no trailing zero
                chars[:, j] = digit + ord("0")
                keep[:, j] = significant
            keep[:, pos + 1] = True
            pos += 1 + frac_width
        chars[:, pos] = ord(",")
        pos += 1
    chars[:, -1] = ord("\n")
    return chars[keep].tobytes()


def _write_columns(path: Path, header: list[str], columns: Sequence[Sequence[str]]) -> None:
    """Write a CSV file from its header and its formatted cells, one sequence per column."""
    lines = [",".join(header), *map(",".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_dataset(dataset: Dataset, root_path: str | Path) -> None:
    """Write a dataset as the directory tree described in the module docstring.

    Before anything is written, each of these is an error: a participant id
    that is not one directory name under the root (empty, '.', '..', or
    holding '/' or NUL), a participant id or event payload that would not
    read back as itself (empty, or holding ',', '"', CR, LF or a lone
    surrogate), and a segment under the root that the dataset would not
    overwrite."""
    root = Path(root_path)
    for seg in dataset.segments:
        pid = seg.participant_id
        if pid in ("", ".", "..") or "/" in pid or "\0" in pid:
            raise DatasetError(f"{root}: participant id {pid!r} is not one directory name under the root")
        if _PAYLOAD_BREAKERS.search(pid):
            raise DatasetError(f"{root}: participant id {pid!r} would not read back as written")
    seg_dirs = {root / seg.participant_id / f"{seg.task.value}_{seg.level.name.lower()}": seg
                for seg in dataset.segments}
    stale = sorted(m.parent for m in root.glob("*/*/manifest.json") if m.parent not in seg_dirs)
    if stale:
        raise DatasetError(f"{stale[0]}: segment not in the dataset being written; write to an empty directory")
    for seg_dir, seg in seg_dirs.items():
        for e in seg.events:
            if e.payload is not None and (e.payload == "" or _PAYLOAD_BREAKERS.search(e.payload)):
                raise DatasetError(f"{seg_dir}: event payload {e.payload!r} would not read back as written")
    for seg_dir, seg in seg_dirs.items():
        seg_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "participant": seg.participant_id,
            "task": seg.task.value,
            "level": seg.level.name.lower(),
            "duration_s": seg.duration_s,
        }
        (seg_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        for name, (file, header) in CHANNEL_FILES.items():
            samples = getattr(seg, name)
            body = _grid_bytes(samples, header)
            if body is not None:
                (seg_dir / file).write_bytes((",".join(header) + "\n").encode() + body)
                continue
            # each column is formatted once: repr() of a float reads back
            # bit-exactly, and a lane is written as the int it holds
            _write_columns(seg_dir / file, header,
                           [list(map(str, map(int, column.tolist()))) if col_name == "target_lane"
                            else list(map(repr, column.tolist()))
                            for col_name, column in zip(header, samples.T)])
        # str() of an event time is its float repr()
        _write_columns(seg_dir / "events.csv", ["t_s", "kind", "payload"],
                       list(zip(*((str(e.t_s), e.kind.value, e.payload or "") for e in seg.events))))
