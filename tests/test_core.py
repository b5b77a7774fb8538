"""Session model, validation, and on-disk round-trip tests."""

import csv
import dataclasses
import functools
import json
import math
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_driving, make_events, make_pupil, make_segment
from loadsense import core
from loadsense.cli import run_cli
from loadsense.core import (
    CHANNEL_FILES,
    GRID_DECIMALS,
    MIN_RR_COUNT_WARN,
    PUPIL_GAP_CONFIDENCE,
    PUPIL_MAX_GAP_FRACTION,
    STIMULUS_KINDS,
    Dataset,
    DatasetError,
    EventKind,
    Issue,
    LoadLevel,
    TaskEvent,
    TaskKind,
    _read_canonical,
    _read_csv,
    iter_segments,
    load_dataset,
    pupil_gap_fraction,
    validate_dataset,
    validate_segment,
    write_dataset,
)
from loadsense.synth import GeneratorConfig, generate_dataset


class TestValidateSegment:
    def test_clean_segment_has_no_issues(self, clean_segment):
        assert validate_segment(clean_segment) == []

    def test_negative_rr_is_an_error(self, clean_segment):
        rr = ((1.0, 800.0), (1.8, -5.0))
        seg = dataclasses.replace(clean_segment, rr_intervals=rr)
        errors = [i for i in validate_segment(seg) if i.is_error]
        assert any("non-positive RR interval" in i.message for i in errors)

    def test_non_finite_rr_is_an_error(self, clean_segment):
        rr = ((1.0, 800.0), (1.8, math.inf))
        seg = dataclasses.replace(clean_segment, rr_intervals=rr)
        errors = [i for i in validate_segment(seg) if i.is_error]
        assert [i.message for i in errors] == ["non-finite RR interval inf"]

    def test_non_finite_diameter_at_confidence_is_an_error(self, clean_segment):
        pupil = list(clean_segment.pupil_right)
        pupil[10] = (pupil[10][0], math.nan, 1.0)
        seg = dataclasses.replace(clean_segment, pupil_right=tuple(pupil))
        errors = [i for i in validate_segment(seg) if i.is_error]
        assert [i.message for i in errors] == ["pupil_right: non-finite diameter at confidence > 0"]

    def test_nan_diameter_in_a_blink_is_accepted(self, clean_segment):
        pupil = list(clean_segment.pupil_left)
        pupil[10] = (pupil[10][0], math.nan, 0.0)
        seg = dataclasses.replace(clean_segment, pupil_left=tuple(pupil))
        assert validate_segment(seg) == []

    def test_non_finite_lateral_position_is_an_error(self, clean_segment):
        driving = list(clean_segment.driving)
        driving[5] = (driving[5][0], math.nan, driving[5][2])
        seg = dataclasses.replace(clean_segment, driving=tuple(driving))
        errors = [i for i in validate_segment(seg) if i.is_error]
        assert [i.message for i in errors] == ["driving: non-finite lateral position nan"]

    def test_forty_percent_gap_warns(self, clean_segment):
        pupil = list(make_pupil(120.0))
        n_gap = int(0.4 * len(pupil))
        pupil[:n_gap] = [(t, d, 0.0) for t, d, _ in pupil[:n_gap]]
        seg = dataclasses.replace(clean_segment, pupil_left=tuple(pupil))
        warnings = [i for i in validate_segment(seg) if not i.is_error]
        assert any("pupil gap fraction 0.40 > 0.25" in i.message for i in warnings)

    def test_non_increasing_timestamps_is_an_error(self, clean_segment):
        driving = ((0.0, 3.5, 1), (1.0, 3.5, 1), (1.0, 3.5, 1))
        seg = dataclasses.replace(clean_segment, driving=driving)
        assert any("driving" in i.message for i in validate_segment(seg) if i.is_error)

    def test_duration_out_of_range_is_an_error(self, clean_segment):
        seg = make_segment(duration_s=30.0)
        assert any("duration" in i.message for i in validate_segment(seg) if i.is_error)

    def test_response_before_any_stimulus_is_an_error(self, clean_segment):
        events = (TaskEvent(0.5, EventKind.RESPONSE),
                  TaskEvent(1.0, EventKind.TARGET_PRESENT))
        seg = dataclasses.replace(clean_segment, events=events)
        assert any("Response before" in i.message for i in validate_segment(seg) if i.is_error)


class TestPupilGapFraction:
    def test_all_confident_is_zero(self):
        assert pupil_gap_fraction(np.array([(0.0, 4.0, 1.0), (0.1, 4.0, 0.9)])) == 0.0

    def test_counts_low_confidence_samples(self):
        samples = np.array([(0.0, 4.0, 1.0), (0.1, 4.0, 0.0), (0.2, 4.0, 0.5), (0.3, 4.0, 0.8)])
        assert pupil_gap_fraction(samples) == pytest.approx(0.5)


class TestValidateDataset:
    def test_incomplete_nback_levels_warn(self):
        warnings = [i for i in validate_dataset([("p000", TaskKind.NBACK, LoadLevel.EASY)]) if not i.is_error]
        assert any("complete n-back level set" in i.message for i in warnings)


# Participant ids that split or merge a CSV row's cells (a lone surrogate has
# no UTF-8 encoding at all); each is a valid directory name.
NOT_ONE_CSV_CELL = ["p,0", 'p"0', "p\r0", "p\n0", "p\udc80"]
NOT_ONE_CSV_CELL_IDS = ["comma", "quote", "CR", "LF", "surrogate"]


class TestRoundTrip:
    def test_write_then_load_is_bit_exact(self, tiny_dataset, tmp_path):
        write_dataset(tiny_dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        by_key = {(s.participant_id, s.task, s.level): s for s in loaded.segments}
        for seg in tiny_dataset.segments:
            other = by_key[(seg.participant_id, seg.task, seg.level)]
            assert other == seg

    def test_write_twice_is_byte_identical(self, tiny_dataset, tmp_path):
        write_dataset(tiny_dataset, tmp_path / "a")
        write_dataset(tiny_dataset, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_segment_the_dataset_would_not_overwrite_is_rejected(self, tiny_dataset, tmp_path):
        write_dataset(tiny_dataset, tmp_path)
        p000 = Dataset(segments=tuple(s for s in tiny_dataset.segments if s.participant_id == "p000"))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(DatasetError, match=rf"^{tmp_path / 'p001' / 'nback_easy'}: segment not in the dataset"):
            write_dataset(p000, tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_overwriting_every_existing_segment_is_allowed(self, tiny_dataset, tmp_path):
        p000 = Dataset(segments=tuple(s for s in tiny_dataset.segments if s.participant_id == "p000"))
        write_dataset(p000, tmp_path)
        write_dataset(tiny_dataset, tmp_path)
        assert len(load_dataset(tmp_path).segments) == len(tiny_dataset.segments)

    @pytest.mark.parametrize("payload", ["s0,extra", 's"0', "s0\rx", "s0\nx", "", "a\udc80"],
                             ids=["comma", "quote", "CR", "LF", "empty", "surrogate"])
    def test_payload_that_would_not_read_back_is_rejected_before_writing(self, tiny_dataset, tmp_path, payload):
        last = tiny_dataset.segments[-1]
        edited = dataclasses.replace(last, events=(TaskEvent(1.0, EventKind.STIMULUS_ONSET, payload), *last.events))
        dataset = Dataset(segments=(*tiny_dataset.segments[:-1], edited))
        seg_dir = tmp_path / last.participant_id / f"{last.task.value}_{last.level.name.lower()}"
        with pytest.raises(DatasetError) as info:
            write_dataset(dataset, tmp_path)
        assert str(info.value) == f"{seg_dir}: event payload {payload!r} would not read back as written"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("pid", ["..", ".", "", "a/b", "p\0"], ids=["parent", "self", "empty", "slash", "NUL"])
    def test_participant_id_that_is_not_one_directory_name_is_rejected_before_writing(self, tiny_dataset, tmp_path,
                                                                                      pid):
        # the bad id comes last, after segments that would otherwise be written
        last = dataclasses.replace(tiny_dataset.segments[-1], participant_id=pid)
        root = tmp_path / "tree"
        with pytest.raises(DatasetError) as info:
            write_dataset(Dataset(segments=(*tiny_dataset.segments[:-1], last)), root)
        assert str(info.value) == f"{root}: participant id {pid!r} is not one directory name under the root"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("pid", NOT_ONE_CSV_CELL, ids=NOT_ONE_CSV_CELL_IDS)
    def test_participant_id_that_is_not_one_csv_cell_is_rejected_before_writing(self, tiny_dataset, tmp_path, pid):
        last = dataclasses.replace(tiny_dataset.segments[-1], participant_id=pid)
        root = tmp_path / "tree"
        with pytest.raises(DatasetError) as info:
            write_dataset(Dataset(segments=(*tiny_dataset.segments[:-1], last)), root)
        assert str(info.value) == f"{root}: participant id {pid!r} would not read back as written"
        assert list(tmp_path.iterdir()) == []

    def test_payload_without_a_delimiter_quote_or_line_break_reads_back(self, clean_segment, tmp_path):
        seg = dataclasses.replace(clean_segment, events=(TaskEvent(1.0, EventKind.STIMULUS_ONSET, " s0;\t'x' "),))
        write_dataset(Dataset(segments=(seg,)), tmp_path)
        assert load_dataset(tmp_path).segments == (seg,)


class TestLoadDataset:
    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(DatasetError, match="no segments found"):
            load_dataset(tmp_path)

    def test_single_segment_directory(self, clean_segment, tmp_path):
        write_dataset(Dataset(segments=(clean_segment,)), tmp_path)
        ds = load_dataset(tmp_path)
        assert len(ds.segments) == 1
        assert {seg.participant_id for seg in ds.segments} == {"p000"}

    def test_unknown_level_names_file_and_field(self, clean_segment, tmp_path):
        write_dataset(Dataset(segments=(clean_segment,)), tmp_path)
        manifest = tmp_path / "p000" / "nback_easy" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"easy"', '"extreme"'))
        with pytest.raises(DatasetError) as exc:
            load_dataset(tmp_path, strict=True)
        assert "manifest.json" in str(exc.value)
        assert "level" in str(exc.value)
        assert "extreme" in str(exc.value)

    @pytest.mark.parametrize("field", ["task", "level"])
    def test_non_string_task_or_level_is_a_dataset_error(self, clean_segment, tmp_path, field):
        write_dataset(Dataset(segments=(clean_segment,)), tmp_path)
        manifest = tmp_path / "p000" / "nback_easy" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc[field] = [doc[field]]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=rf"manifest.json: field '{field}' has unknown value \["):
            load_dataset(tmp_path, strict=True)

    @pytest.mark.parametrize("pid", ["", *NOT_ONE_CSV_CELL], ids=["empty", *NOT_ONE_CSV_CELL_IDS])
    def test_participant_id_that_is_empty_or_not_one_csv_cell_skips_the_segment(self, tiny_dataset, tmp_path, pid):
        write_dataset(tiny_dataset, tmp_path)
        manifest = tmp_path / "p001" / "nback_easy" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["participant"] = pid
        manifest.write_text(json.dumps(doc))
        want = f"{manifest}: field 'participant' {pid!r} is empty or not one CSV cell"
        messages = []
        ds = load_dataset(tmp_path, report=messages.append)
        assert len(ds.segments) == len(tiny_dataset.segments) - 1
        assert messages == [f"skipping segment: {want}"]
        with pytest.raises(DatasetError) as info:
            load_dataset(tmp_path, strict=True)
        assert str(info.value) == want

    @pytest.mark.parametrize("pid", [None, ["p001"], 7, True, {"id": "p001"}],
                             ids=["null", "list", "int", "bool", "object"])
    def test_non_string_participant_skips_the_segment(self, tiny_dataset, tmp_path, pid):
        write_dataset(tiny_dataset, tmp_path)
        manifest = tmp_path / "p001" / "nback_easy" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["participant"] = pid
        manifest.write_text(json.dumps(doc))
        want = f"{manifest}: field 'participant' has non-string value {pid!r}"
        messages = []
        ds = load_dataset(tmp_path, report=messages.append)
        assert len(ds.segments) == len(tiny_dataset.segments) - 1
        assert messages == [f"skipping segment: {want}"]
        with pytest.raises(DatasetError) as info:
            load_dataset(tmp_path, strict=True)
        assert str(info.value) == want
        assert run_cli(["validate", "--dataset", str(tmp_path), "--strict"]) == 1

    def test_unknown_event_kind_errors(self, clean_segment, tmp_path):
        write_dataset(Dataset(segments=(clean_segment,)), tmp_path)
        events = tmp_path / "p000" / "nback_easy" / "events.csv"
        events.write_text(events.read_text().replace("target_present", "target_maybe"))
        with pytest.raises(DatasetError, match="unknown event kind"):
            load_dataset(tmp_path, strict=True)

    def test_lenient_mode_skips_and_reports(self, tiny_dataset, tmp_path):
        write_dataset(tiny_dataset, tmp_path)
        bad = tmp_path / "p000" / "nback_easy" / "rr.csv"
        bad.write_text("wrong,header\n1,2\n")
        messages = []
        ds = load_dataset(tmp_path, report=messages.append)
        assert len(ds.segments) == len(tiny_dataset.segments) - 1
        assert len(messages) == 1 and "rr.csv" in messages[0]

    def test_iter_segments_yields_in_order_until_a_strict_error(self, tiny_dataset, tmp_path):
        write_dataset(tiny_dataset, tmp_path)
        seg_dirs = sorted(m.parent for m in tmp_path.glob("*/*/manifest.json"))
        (seg_dirs[-1] / "rr.csv").write_text("wrong,header\n1,2\n")
        segments = iter_segments(tmp_path, strict=True)
        expected = {(s.participant_id, s.task.value, s.level.name.lower()): s for s in tiny_dataset.segments}
        for seg_dir in seg_dirs[:-1]:
            assert next(segments) == expected[(seg_dir.parent.name, *seg_dir.name.rsplit("_", 1))]
        with pytest.raises(DatasetError, match="rr.csv: expected header"):
            next(segments)

    def test_repeated_condition_is_skipped_and_reported(self, clean_segment, tmp_path):
        write_dataset(Dataset(segments=(clean_segment,)), tmp_path)
        copy = tmp_path / "p000" / "nback_easy_copy"
        copy.mkdir()
        for src in (tmp_path / "p000" / "nback_easy").iterdir():
            (copy / src.name).write_bytes(src.read_bytes())
        messages = []
        ds = load_dataset(tmp_path, report=messages.append)
        assert ds.segments == (clean_segment,)
        assert messages == [f"skipping segment: {copy}: duplicate (participant, task, level)"]

    def test_kept_segment_warnings_are_reported(self, clean_segment, tmp_path):
        seg = dataclasses.replace(clean_segment, rr_intervals=clean_segment.rr_intervals[:MIN_RR_COUNT_WARN - 1])
        write_dataset(Dataset(segments=(seg,)), tmp_path)
        for strict in (False, True):
            messages = []
            ds = load_dataset(tmp_path, strict=strict, report=messages.append)
            assert ds.segments == (seg,)
            assert messages == [f"warning: {tmp_path / 'p000' / 'nback_easy'}: "
                                f"fewer than {MIN_RR_COUNT_WARN} RR intervals"]

    def test_skipped_segment_names_every_error(self, clean_segment, tmp_path):
        rr = np.array(clean_segment.rr_intervals)
        rr[1] = (5.0, -1.0)  # a time past the next one and a non-positive interval
        seg = dataclasses.replace(clean_segment, rr_intervals=rr)
        write_dataset(Dataset(segments=(seg,)), tmp_path)
        errors = [i.message for i in validate_segment(seg) if i.is_error]
        assert len(errors) == 2
        want = f"{tmp_path / 'p000' / 'nback_easy'}: {errors[0]}; {errors[1]}"
        messages = []
        with pytest.raises(DatasetError, match="no segments found"):
            load_dataset(tmp_path, report=messages.append)
        assert messages == [f"skipping segment: {want}"]
        with pytest.raises(DatasetError) as exc:
            load_dataset(tmp_path, strict=True)
        assert str(exc.value) == want

    def test_strict_mode_raises_on_bad_header(self, tiny_dataset, tmp_path):
        write_dataset(tiny_dataset, tmp_path)
        (tmp_path / "p000" / "nback_easy" / "rr.csv").write_text("wrong,header\n1,2\n")
        with pytest.raises(DatasetError, match="expected header t_s,rr_ms"):
            load_dataset(tmp_path, strict=True)

    def test_wrong_arity_row_errors(self, clean_segment, tmp_path):
        write_dataset(Dataset(segments=(clean_segment,)), tmp_path)
        driving = tmp_path / "p000" / "nback_easy" / "driving.csv"
        driving.write_text("t_s,lateral_position_m,target_lane\n0.0,3.5\n")
        with pytest.raises(DatasetError, match="expected 3 fields, got 2"):
            load_dataset(tmp_path, strict=True)


class TestEnums:
    def test_levels_are_ordered(self):
        assert LoadLevel.EASY < LoadLevel.MEDIUM < LoadLevel.HARD

    def test_task_values_match_directory_names(self):
        assert {t.value for t in TaskKind} == {"nback", "visual_search"}


class TestChannelArrays:
    def test_rows_become_read_only_float64_arrays(self):
        rr = [[1.0, 800.0], [1.8, 810.0]]
        seg = make_segment(rr_intervals=rr, driving=((0.0, 3.5, 1),), pupil_left=())
        assert seg.rr_intervals.dtype == np.float64 and seg.rr_intervals.tolist() == rr
        assert seg.driving.tolist() == [[0.0, 3.5, 1.0]]
        assert seg.pupil_left.shape == (0, 3)
        with pytest.raises(ValueError):
            seg.rr_intervals[0, 1] = 0.0

    def test_the_callers_array_is_copied(self):
        rr = np.array([[1.0, 800.0], [1.8, 810.0]])
        seg = make_segment(rr_intervals=rr)
        rr[0, 1] = 0.0
        assert seg.rr_intervals[0, 1] == 800.0

    def test_rows_of_the_wrong_width_are_rejected(self):
        with pytest.raises(ValueError):
            make_segment(rr_intervals=((1.0, 800.0, 3.0),))

    def test_equality_compares_bits(self, clean_segment):
        def with_rr0(value):
            rr = np.array(clean_segment.rr_intervals)
            rr[0, 1] = value
            return dataclasses.replace(clean_segment, rr_intervals=rr)

        assert with_rr0(math.nan) == with_rr0(math.nan)
        assert with_rr0(0.0) != with_rr0(-0.0)
        assert dataclasses.replace(clean_segment, rr_intervals=clean_segment.rr_intervals[:-1]) != clean_segment


def _blank_cell(path: Path, line: int, column: int) -> None:
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = ""
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# every numeric column of the on-disk format: (file, column index)
NUMERIC_CELLS = [("rr.csv", 0), ("rr.csv", 1), ("driving.csv", 0), ("driving.csv", 1), ("driving.csv", 2),
                 ("events.csv", 0)] + [(f"pupil_{eye}.csv", i) for eye in ("left", "right") for i in range(3)]


class TestEmptyNumericCell:
    @pytest.mark.parametrize("name, column", NUMERIC_CELLS)
    def test_strict_mode_names_file_and_line(self, clean_segment, tmp_path, name, column):
        write_dataset(Dataset(segments=(clean_segment,)), tmp_path)
        _blank_cell(tmp_path / "p000" / "nback_easy" / name, 3, column)
        with pytest.raises(DatasetError, match=rf"{name}:3: "):
            load_dataset(tmp_path, strict=True)

    def test_lenient_mode_skips_and_reports_once(self, tiny_dataset, tmp_path):
        write_dataset(tiny_dataset, tmp_path)
        _blank_cell(tmp_path / "p001" / "visual_search_hard" / "rr.csv", 5, 1)
        messages = []
        ds = load_dataset(tmp_path, report=messages.append)
        assert len(ds.segments) == len(tiny_dataset.segments) - 1
        assert len(messages) == 1 and "rr.csv:5: could not convert string to float: ''" in messages[0]


# ---------------------------------------------------------------------------
# The tuple-based reader and validator that the array code replaced, kept
# as oracles.  `_tuple_validate_segment` takes a segment whose channels are
# tuples of row tuples (see `_tuple_form`).


def _tuple_read_csv(path: Path, header: list[str], types: list) -> list[tuple]:
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


def _tuple_check_increasing(times: Iterable[float], name: str, issues: list[Issue]) -> None:
    prev = None
    for t in times:
        if prev is not None and t <= prev:
            issues.append(Issue("error", f"{name}: timestamps not strictly increasing at t={t!r}"))
            return
        prev = t


def _tuple_gap_fraction(samples) -> float:
    samples = list(samples)
    if not samples:
        return 1.0
    gaps = sum(1 for _, _, conf in samples if conf < PUPIL_GAP_CONFIDENCE)
    return gaps / len(samples)


def _tuple_validate_segment(seg) -> list[Issue]:
    issues: list[Issue] = []

    if not 60.0 <= seg.duration_s <= 300.0:
        issues.append(Issue("error", f"duration_s {seg.duration_s!r} outside [60, 300]"))

    _tuple_check_increasing((t for t, _ in seg.rr_intervals), "rr", issues)
    for name, samples in (("pupil_left", seg.pupil_left), ("pupil_right", seg.pupil_right)):
        _tuple_check_increasing((t for t, _, _ in samples), name, issues)
    _tuple_check_increasing((t for t, _, _ in seg.driving), "driving", issues)

    for _, rr_ms in seg.rr_intervals:
        if not 0 < rr_ms < math.inf:
            problem = "non-positive" if rr_ms <= 0 else "non-finite"
            issues.append(Issue("error", f"{problem} RR interval {rr_ms!r}"))
            break

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
            frac = _tuple_gap_fraction(samples)
            if frac > PUPIL_MAX_GAP_FRACTION:
                issues.append(
                    Issue("warning", f"{name}: pupil gap fraction {frac:.2f} > {PUPIL_MAX_GAP_FRACTION}")
                )

    if len(seg.rr_intervals) < MIN_RR_COUNT_WARN:
        issues.append(Issue("warning", f"fewer than {MIN_RR_COUNT_WARN} RR intervals"))

    return issues


def _tuple_form(seg) -> SimpleNamespace:
    """`seg` with each channel as the tuple of row tuples the old code held."""
    fields = {f.name: getattr(seg, f.name) for f in dataclasses.fields(seg)}
    fields.update({name: tuple(map(tuple, fields[name].tolist())) for name in CHANNEL_FILES})
    return SimpleNamespace(**fields)


@functools.lru_cache(maxsize=None)
def small_segment():
    """A clean 60 s segment with short channels, so the tuple oracles stay fast."""
    return make_segment(
        duration_s=60.0,
        rr_intervals=tuple((0.8 * (i + 1), 800.0) for i in range(MIN_RR_COUNT_WARN + 2)),
        pupil_left=make_pupil(2.0, rate_hz=10.0),
        pupil_right=make_pupil(2.0, rate_hz=10.0, diameter=4.5),
        driving=make_driving(2.0, rate_hz=10.0),
        events=make_events(),
    )


SPECIAL_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0.5, 1.0, 2.0, 59.5, 60.0, 61.0, 1e6]


class TestValidateMatchesTupleOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from((*CHANNEL_FILES, "events")),
                st.sampled_from(["set", "empty"]),
                st.integers(0, 40),
                st.integers(0, 2),
                st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-5.0, 70.0)),
            ),
            max_size=4,
        ),
        st.sampled_from([60.0, 59.0, 300.5, math.nan]),
    )
    def test_same_issues_as_the_tuple_validator(self, edits, duration_s):
        seg = small_segment()
        if duration_s != 60.0:
            seg = dataclasses.replace(seg, duration_s=duration_s)
        for field, op, row, column, value in edits:
            samples = list(getattr(seg, field))
            if op == "empty" or not samples:
                samples = []
            elif field == "events":
                row %= len(samples)
                samples[row] = dataclasses.replace(samples[row], t_s=value)
            else:
                samples = [list(r) for r in getattr(seg, field).tolist()]
                samples[row % len(samples)][column % len(CHANNEL_FILES[field][1])] = value
            seg = dataclasses.replace(seg, **{field: tuple(samples) if field == "events" else samples})
        assert validate_segment(seg) == _tuple_validate_segment(_tuple_form(seg))


# (file, segment field, header, the tuple reader's column types): both widths, and the int column
READ_SPECS = [
    ("rr.csv", "rr_intervals", ["t_s", "rr_ms"], [float, float]),
    ("pupil_left.csv", "pupil_left", ["t_s", "diameter_mm", "confidence"], [float, float, float]),
    ("driving.csv", "driving", ["t_s", "lateral_position_m", "target_lane"], [float, float, int]),
]
TOKENS = ["", " ", "abc", " 1.5 ", "1_000", "1__0", "nan", "-inf", "Infinity", "1e", "0x10", "1.0", "2", "-3",
          "+0", "-0.0", "1e400", "\t7", "١"]


def _edit_lines(lines: list[str], edits) -> list[str]:
    """Apply (op, row, column, token) edits to the data lines below the header."""
    header, data = lines[0], list(lines[1:])
    for op, row, column, token in edits:
        if op == "header":
            header = header.replace("t_s", token)
            continue
        if op == "blank":
            data.insert(row % (len(data) + 1), "")
            continue
        if not data:
            continue
        row %= len(data)
        cells = data[row].split(",")
        column %= len(cells)
        if op == "cell":
            cells[column] = token
        elif op == "pad":
            cells[column] = f" {cells[column]}\t"
        elif op == "drop":
            del cells[column]
        elif op == "extra":
            cells.append(token)
        data[row] = ",".join(cells)
        if op == "swap" and row + 1 < len(data):
            data[row], data[row + 1] = data[row + 1], data[row]
        elif op == "dup":
            data.insert(row, data[row])
    return [header, *data]


def _expected_read(path: Path, header: list[str], types: list, lines: list[str]):
    """The tuple reader's outcome, except that an empty cell is an error:
    ("rows", rows) or ("error", message)."""
    text = "\n".join(lines) + "\n"
    rows = list(csv.reader(lines[1:]))
    first_empty = next((i for i, row in enumerate(rows) if len(row) == len(header) and "" in row), None)
    if first_empty is not None:
        path.write_text("\n".join(lines[: first_empty + 1]) + "\n", encoding="utf-8")
        try:
            _tuple_read_csv(path, header, types)
        except DatasetError as exc:
            return "error", str(exc)  # an earlier line fails first
        finally:
            path.write_text(text, encoding="utf-8")
        for type_, cell in zip(types, rows[first_empty]):
            try:
                type_(cell)
            except ValueError as exc:
                return "error", f"{path}:{first_empty + 2}: {exc}"
    try:
        return "rows", _tuple_read_csv(path, header, types)
    except DatasetError as exc:
        return "error", str(exc)


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(READ_SPECS),
        st.lists(
            st.tuples(
                st.sampled_from(["cell", "pad", "blank", "drop", "extra", "swap", "dup", "header"]),
                st.integers(0, 40),
                st.integers(0, 2),
                st.sampled_from(TOKENS),
            ),
            max_size=4,
        ),
    )
    def test_tuple_oracle_then_load(self, spec, edits):
        """The reader returns the tuple reader's rows bit for bit or raises its
        DatasetError; an empty cell is a DatasetError at its line.  Loading the
        edited tree gives that array, or a DatasetError whose message is the
        reader's or a validate_segment error; a non-increasing time is always
        one.  No other exception escapes."""
        name, field, header, types = spec
        base = small_segment()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_dataset(Dataset(segments=(base,)), root)
            seg_dir = root / "p000" / "nback_easy"
            path = seg_dir / name
            lines = _edit_lines(path.read_text(encoding="utf-8").splitlines(), edits)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")

            kind, want = _expected_read(path, header, types, lines)
            try:
                got = _read_csv(path, header)
            except DatasetError as exc:
                assert (kind, want) == ("error", str(exc))
                return
            assert kind == "rows"
            want = np.array(want, dtype=np.float64).reshape(len(want), len(header))
            assert got.dtype == np.float64 and got.shape == want.shape and got.tobytes() == want.tobytes()

            times = want[:, 0].tolist()
            increasing = all(b > a for a, b in zip(times, times[1:]))
            try:
                loaded = load_dataset(root, strict=True).segments[0]
            except DatasetError as exc:
                seg = dataclasses.replace(base, **{field: want})
                errors = [i.message for i in validate_segment(seg) if i.is_error]
                assert errors and str(exc) == f"{seg_dir}: " + "; ".join(errors)
                return
            assert increasing
            assert loaded == dataclasses.replace(base, **{field: want})


# ---------------------------------------------------------------------------
# The canonical (numpy loadtxt) path of `_read_csv` against its csv-module
# fallback, which is `_read_csv` with the canonical path declined.


def _fallback_read(path: Path, header: list[str]) -> np.ndarray:
    with mock.patch.object(core, "_read_canonical", return_value=None):
        return _read_csv(path, header)


def _outcome(read, path: Path, header: list[str]):
    """("rows", dtype, shape, bytes) of the array one reader returns, or ("error", message)."""
    try:
        samples = read(path, header)
    except DatasetError as exc:
        return "error", str(exc)
    return "rows", samples.dtype, samples.shape, samples.tobytes()


# finite doubles at the edges of the format: signed zero, subnormals, the extremes
EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 123456789.0]
FINITE_DOUBLES = st.one_of(st.sampled_from(EDGE_DOUBLES), st.floats(allow_nan=False, allow_infinity=False))
LANES = st.one_of(st.integers(-3, 12), st.integers(-2**63 - 2, 2**63 + 1), st.integers(-10**30, 10**30))


class TestCanonicalRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(FINITE_DOUBLES, FINITE_DOUBLES), max_size=12),
        st.lists(st.tuples(FINITE_DOUBLES, FINITE_DOUBLES, FINITE_DOUBLES), max_size=12),
        st.lists(st.tuples(FINITE_DOUBLES, FINITE_DOUBLES, LANES), max_size=12),
    )
    def test_written_channels_read_back_bit_identical(self, rr, pupil, driving):
        """Every channel `write_dataset` writes from finite doubles reads back
        bit for bit.  The canonical path takes every non-empty file, except a
        driving file with a lane outside int64, which the fallback reads."""
        seg = make_segment(rr_intervals=rr, pupil_left=pupil, pupil_right=pupil[::-1],
                           driving=[(t, lateral, float(lane)) for t, lateral, lane in driving])
        int64_lanes = all(-2**63 <= int(float(lane)) < 2**63 for _, _, lane in driving)
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(Dataset(segments=(seg,)), tmp)
            for name, (file, header) in CHANNEL_FILES.items():
                path = Path(tmp) / "p000" / "nback_easy" / file
                want = getattr(seg, name)
                got = _read_csv(path, header)
                assert got.dtype == np.float64 and got.shape == want.shape and got.tobytes() == want.tobytes()
                canonical = _read_canonical(path, header) is not None
                assert canonical == (len(want) > 0 and (name != "driving" or int64_lanes))


# tokens made only of bytes the canonical path admits
FAST_TOKENS = ["1.", ".5", "+.5", "1e-400", "1e400", "1e5.0", "--1", "01", "+1", "-0", "-00", "+0", "1.0",
               "1e0", "99999999999999999999", "9223372036854775807", "9223372036854775808",
               "-9223372036854775809", "", ".", "-", "1e", "1E+5", "5e-324", "2", "-3", "12", "0e0", "1-2"]


class TestCanonicalFuzz:
    @settings(max_examples=300, deadline=None)
    @example(READ_SPECS[2], [("cell", 3, 2, "-0")])  # the lanes of driving.csv
    @example(READ_SPECS[2], [("cell", 3, 2, "1.0")])
    @example(READ_SPECS[2], [("cell", 3, 2, "1e0")])
    @example(READ_SPECS[2], [("cell", 3, 2, "99999999999999999999")])
    @given(
        st.sampled_from(READ_SPECS),
        st.lists(
            st.tuples(
                st.sampled_from(["cell", "blank", "drop", "extra", "swap", "dup"]),
                st.integers(0, 40),
                st.integers(0, 2),
                st.sampled_from(FAST_TOKENS),
            ),
            max_size=4,
        ),
    )
    def test_same_outcome_as_the_fallback(self, spec, edits):
        """Inside the canonical alphabet `_read_csv` returns the fallback's
        array bit for bit or raises its DatasetError message."""
        name, _, header, _ = spec
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(Dataset(segments=(small_segment(),)), tmp)
            path = Path(tmp) / "p000" / "nback_easy" / name
            lines = _edit_lines(path.read_text(encoding="utf-8").splitlines(), edits)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            want = _outcome(_fallback_read, path, header)
            assert _outcome(_read_csv, path, header) == want


def _text(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


# edits of a canonical file, as (header line, data lines) -> text, that the canonical path must decline
FALLBACK_TRIGGERS = {
    "leading blank line": lambda head, rows: _text(head, "", *rows),
    "interior blank line": lambda head, rows: _text(head, *rows[:3], "", *rows[3:]),
    "trailing blank line": lambda head, rows: _text(head, *rows, ""),
    "blank lines only": lambda head, rows: _text(head, "", ""),
    "header only": lambda head, rows: _text(head),
    "no trailing newline": lambda head, rows: _text(head, *rows)[:-1],
    "CRLF": lambda head, rows: _text(head, *rows).replace("\n", "\r\n"),
    "BOM": lambda head, rows: "\ufeff" + _text(head, *rows),
    "quoted header": lambda head, rows: _text(",".join(f'"{cell}"' for cell in head.split(",")), *rows),
    "whitespace cell": lambda head, rows: _text(head, *rows[:3], " " + rows[3], *rows[4:]),
}


class TestCanonicalDeclines:
    @pytest.mark.parametrize("spec", READ_SPECS, ids=[spec[0] for spec in READ_SPECS])
    @pytest.mark.parametrize("trigger", sorted(FALLBACK_TRIGGERS))
    def test_fallback_result(self, tmp_path, spec, trigger):
        name, _, header, _ = spec
        write_dataset(Dataset(segments=(small_segment(),)), tmp_path)
        path = tmp_path / "p000" / "nback_easy" / name
        head, *rows = path.read_text(encoding="utf-8").splitlines()
        path.write_bytes(FALLBACK_TRIGGERS[trigger](head, rows).encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _read_canonical(path, header) is None
            assert _outcome(_read_csv, path, header) == _outcome(_fallback_read, path, header)


# ---------------------------------------------------------------------------
# The row-at-a-time writer that the column-wise `write_dataset` replaced,
# kept as its oracle: every file the two write must match byte for byte.


def _reference_write_csv(path: Path, header: list[str], rows: Iterable) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _reference_write_dataset(dataset: Dataset, root_path: Path) -> None:
    for seg in dataset.segments:
        seg_dir = Path(root_path) / seg.participant_id / f"{seg.task.value}_{seg.level.name.lower()}"
        seg_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "participant": seg.participant_id,
            "task": seg.task.value,
            "level": seg.level.name.lower(),
            "duration_s": seg.duration_s,
        }
        (seg_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        for name, (file, header) in CHANNEL_FILES.items():
            rows = getattr(seg, name).tolist()
            if name == "driving":
                rows = ((t, lateral, int(lane)) for t, lateral, lane in rows)
            _reference_write_csv(seg_dir / file, header, rows)
        _reference_write_csv(
            seg_dir / "events.csv",
            ["t_s", "kind", "payload"],
            ((e.t_s, e.kind.value, e.payload or "") for e in seg.events),
        )


def _tree_bytes(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# doubles whose repr takes each form: NaN, the infinities, signed zero, a
# subnormal, exponent forms both ways, the extremes
WRITER_EDGE_DOUBLES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-05, 1.5e-07,
                       1.7976931348623157e308, -1.7976931348623157e308, 0.1, 123456789.0, 9999999999999998.0]
ANY_DOUBLES = st.one_of(st.sampled_from(WRITER_EDGE_DOUBLES), st.floats())


class TestColumnWriterOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(ANY_DOUBLES, ANY_DOUBLES), max_size=8),
        st.lists(st.tuples(ANY_DOUBLES, ANY_DOUBLES, ANY_DOUBLES), max_size=8),
        st.lists(st.tuples(ANY_DOUBLES, ANY_DOUBLES, ANY_DOUBLES), max_size=8),
        st.lists(st.tuples(ANY_DOUBLES, ANY_DOUBLES, st.one_of(st.sampled_from([0, 1, 2, -1]), LANES)),
                 max_size=8),
    )
    def test_fuzzed_channels_match_the_row_writer(self, rr, left, right, driving):
        seg = make_segment(rr_intervals=rr, pupil_left=left, pupil_right=right,
                           driving=[(t, lateral, float(lane)) for t, lateral, lane in driving])
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(Dataset(segments=(seg,)), Path(tmp) / "new")
            _reference_write_dataset(Dataset(segments=(seg,)), Path(tmp) / "old")
            assert _tree_bytes(Path(tmp) / "new") == _tree_bytes(Path(tmp) / "old")

    def test_generated_tree_matches_the_row_writer(self, tmp_path):
        dataset = generate_dataset(GeneratorConfig(n_participants=3, seed=7))
        write_dataset(dataset, tmp_path / "new")
        _reference_write_dataset(dataset, tmp_path / "old")
        written = _tree_bytes(tmp_path / "new")
        assert len(written) == 3 * 6 * 6
        assert written == _tree_bytes(tmp_path / "old")


# A grid item is an int k, written as the value k / 10**d of its column's d,
# or a float edge value taken as it is.  The ints reach both sides of the
# 10**15 guard (a k of 16 or 17 digits gives a value below 10**15 whose repr
# is not k / 10**d); the floats sit on either side of the 1e-4 guard or off
# every grid.
GRID_ITEMS = st.one_of(
    st.integers(-10**15, 10**15),
    st.integers(-1000, 1000),
    st.integers(-10**17, 10**17),
    st.sampled_from([10**15 - 1, 10**15, -(10**15 - 1), -(10**15)]),
    st.sampled_from([-0.0, 1e-4, -1e-4, math.nextafter(1e-4, 0.0), 5e-05, 999999999999999.9, 0.1 + 0.2,
                     math.nan, math.inf]),
)
GRID_LANES = st.one_of(
    st.integers(-3, 12),
    st.integers(-10**16, 10**16),
    st.sampled_from([10**15 - 1, 10**15, -(10**15 - 1), -(10**15), 2**63, -2**63 - 1, 10**20]),
    st.sampled_from([-0.0, -0.5, 2.5, -1e15 + 0.5]),
)


@st.composite
def grid_channel(draw, floats: int, lane: bool = False):
    """Rows of one channel (floats grid columns, then a lane column if
    lane) and whether every column meets the grid guard by construction."""
    n = draw(st.integers(0, 6))
    columns, on_grid = [], True
    for _ in range(floats):
        d = draw(st.integers(0, GRID_DECIMALS))
        items = draw(st.lists(GRID_ITEMS, min_size=n, max_size=n))
        column = [item / 10**d if isinstance(item, int) else item for item in items]
        on_grid &= all(isinstance(item, int) and abs(item) < 10**15 for item in items)
        on_grid &= all(x == 0 or abs(x) >= 1e-4 for x in column)
        columns.append(column)
    if lane:
        lanes = [float(x) for x in draw(st.lists(GRID_LANES, min_size=n, max_size=n))]
        on_grid &= all(abs(x) < 10**15 for x in lanes)
        columns.append(lanes)
    return list(zip(*columns)) if n else [], on_grid


class TestGridWriterOracle:
    """The grid path of `write_dataset` against the row-at-a-time repr() writer."""

    @settings(max_examples=300, deadline=None)
    @example(([(-0.0, 1e-4), (1e-4, 2.0)], True),
             ([(1e-4, 0.0, 1.0), (-0.0, 5e-05, 0.0)], False),
             ([((10**15 - 1) / 10**3, -0.0, 1.0), (0.5, math.nextafter(1e-4, 0.0), 1.0)], False),
             ([(0.5, 0.001, -3.0), (1.25, -0.002, float(10**15))], False))
    @example(([(float(10**15 - 1), 1.0)], True),
             ([(float(10**15), 0.5, 1.0)], False),
             ([(-(10**15 - 1) / 10**6, -0.5, 0.0)], True),
             ([(0.0, -0.0, float(2**63)), (1.0, 0.0, -1e20)], False))
    @example(([(999999999999999.9, 0.5)], False), ([], True), ([], True), ([], True))
    @given(grid_channel(2), grid_channel(3), grid_channel(3), grid_channel(2, lane=True))
    def test_grid_columns_match_the_row_writer(self, rr, left, right, driving):
        seg = make_segment(rr_intervals=rr[0], pupil_left=left[0], pupil_right=right[0], driving=driving[0])
        for (_, on_grid), (name, (_, header)) in zip((rr, left, right, driving), CHANNEL_FILES.items()):
            # a column that meets the guard by construction must take the grid path
            if on_grid:
                assert core._grid_bytes(getattr(seg, name), header) is not None
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(Dataset(segments=(seg,)), Path(tmp) / "new")
            _reference_write_dataset(Dataset(segments=(seg,)), Path(tmp) / "old")
            assert _tree_bytes(Path(tmp) / "new") == _tree_bytes(Path(tmp) / "old")

    @pytest.mark.parametrize("seed", [7, 11])
    def test_every_generated_channel_file_takes_the_grid_path(self, tmp_path, seed):
        bodies = []

        def spy(samples, header):
            bodies.append(grid_bytes(samples, header))
            return bodies[-1]

        grid_bytes = core._grid_bytes
        with mock.patch.object(core, "_grid_bytes", spy):
            write_dataset(generate_dataset(GeneratorConfig(n_participants=3, seed=seed)), tmp_path)
        assert len(bodies) == 3 * 6 * len(CHANNEL_FILES)
        assert all(body is not None for body in bodies)
