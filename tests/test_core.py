"""Session model, validation, and on-disk round-trip tests."""

import dataclasses
import math

import pytest

from conftest import make_driving, make_pupil, make_segment
from loadsense.core import (
    Dataset,
    DatasetError,
    EventKind,
    LoadLevel,
    TaskEvent,
    TaskKind,
    load_dataset,
    pupil_gap_fraction,
    validate_dataset,
    validate_segment,
    write_dataset,
)


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
        assert pupil_gap_fraction([(0.0, 4.0, 1.0), (0.1, 4.0, 0.9)]) == 0.0

    def test_counts_low_confidence_samples(self):
        samples = [(0.0, 4.0, 1.0), (0.1, 4.0, 0.0), (0.2, 4.0, 0.5), (0.3, 4.0, 0.8)]
        assert pupil_gap_fraction(samples) == pytest.approx(0.5)


class TestValidateDataset:
    def test_duplicate_condition_is_an_error(self, clean_segment):
        ds = Dataset(segments=(clean_segment, clean_segment))
        assert any("duplicate" in i.message for i in validate_dataset(ds) if i.is_error)

    def test_incomplete_nback_levels_warn(self):
        ds = Dataset(segments=(make_segment(level=LoadLevel.EASY),))
        warnings = [i for i in validate_dataset(ds) if not i.is_error]
        assert any("complete n-back level set" in i.message for i in warnings)


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


class TestLoadDataset:
    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(DatasetError, match="no segments found"):
            load_dataset(tmp_path)

    def test_single_segment_directory(self, clean_segment, tmp_path):
        write_dataset(Dataset(segments=(clean_segment,)), tmp_path)
        ds = load_dataset(tmp_path)
        assert len(ds.segments) == 1
        assert set(ds.participants) == {"p000"}

    def test_unknown_level_names_file_and_field(self, clean_segment, tmp_path):
        write_dataset(Dataset(segments=(clean_segment,)), tmp_path)
        manifest = tmp_path / "p000" / "nback_easy" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"easy"', '"extreme"'))
        with pytest.raises(DatasetError) as exc:
            load_dataset(tmp_path, strict=True)
        assert "manifest.json" in str(exc.value)
        assert "level" in str(exc.value)
        assert "extreme" in str(exc.value)

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
