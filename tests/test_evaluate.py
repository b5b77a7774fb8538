"""Split hygiene, featurization, nested CV, and report rendering tests."""

import dataclasses

import numpy as np
import pytest

from conftest import make_segment
from loadsense.cardiac import compute_cardiac_features
from loadsense.core import Dataset, LoadLevel, TaskKind
from loadsense.evaluate import (
    FEATURE_SUBSETS,
    REPORT_ROWS,
    SUBSET_TITLES,
    EvaluationReport,
    featurize_dataset,
    featurize_segment,
    make_split_plan,
    parse_report_csv,
    render_report,
    run_nested_cv,
)
from loadsense.pupil import compute_lhipa
from loadsense.synth import GeneratorConfig, generate_dataset


class TestSplitPlan:
    def test_45_participants_split_9_12_24(self):
        ids = [f"p{i:03d}" for i in range(45)]
        plan = make_split_plan(ids, k=5, seed=0)
        assert len(plan.folds) == 5
        for fold in plan.folds:
            assert (len(fold.test), len(fold.validation), len(fold.train)) == (9, 12, 24)

    def test_no_overlap_and_full_coverage(self):
        ids = [f"p{i:03d}" for i in range(45)]
        plan = make_split_plan(ids, k=5, seed=3)
        for fold in plan.folds:
            test, val, train = set(fold.test), set(fold.validation), set(fold.train)
            assert not (test & val) and not (test & train) and not (val & train)
            assert test | val | train == set(ids)
        all_test = [p for fold in plan.folds for p in fold.test]
        assert sorted(all_test) == sorted(ids)  # each participant tested exactly once

    def test_five_participants_one_test_each(self):
        plan = make_split_plan([f"p{i}" for i in range(5)], k=5, seed=1)
        assert all(len(fold.test) == 1 for fold in plan.folds)

    def test_same_seed_gives_identical_plans(self):
        ids = [f"p{i:03d}" for i in range(45)]
        assert make_split_plan(ids, seed=9) == make_split_plan(ids, seed=9)

    def test_input_order_does_not_matter(self):
        ids = [f"p{i:03d}" for i in range(45)]
        assert make_split_plan(ids, seed=2) == make_split_plan(list(reversed(ids)), seed=2)

    def test_too_few_participants_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            make_split_plan(["a", "b"], k=5, seed=0)


class TestFeaturize:
    def test_feature_values_match_the_feature_modules(self, clean_segment):
        row = featurize_segment(clean_segment)
        cardiac = compute_cardiac_features(clean_segment)
        assert row.value("hr_mean") == cardiac.hr_mean
        assert row.value("hrv_rmssd") == cardiac.rmssd
        assert row.value("lhipa_left") == compute_lhipa(clean_segment.pupil_left)
        assert row.value("lhipa_right") == compute_lhipa(clean_segment.pupil_right)

    def test_missing_pupil_channel_is_named(self, clean_segment):
        seg = dataclasses.replace(clean_segment, pupil_left=(), pupil_right=())
        row = featurize_segment(seg)
        assert {"lhipa_left", "lhipa_right"} <= row.missing
        assert row.value("lhipa_left") is None

    def test_missing_rr_channel_marks_heart_features(self, clean_segment):
        seg = dataclasses.replace(clean_segment, rr_intervals=())
        row = featurize_segment(seg)
        assert {"hr_mean", "hr_min", "hr_max", "hr_std", "hrv_rmssd"} <= row.missing

    def test_45_participants_gives_270_rows_135_per_task(self):
        ds = generate_dataset(GeneratorConfig(seed=0, n_participants=45))
        rows = featurize_dataset(ds)
        assert len(rows) == 270
        assert sum(1 for r in rows if r.task is TaskKind.NBACK) == 135

    def test_row_order_is_independent_of_segment_order(self, tiny_dataset):
        rows_fwd = featurize_dataset(tiny_dataset)
        rows_rev = featurize_dataset(Dataset(segments=tuple(reversed(tiny_dataset.segments))))
        assert rows_fwd == rows_rev


def small_feature_rows(seed=0, n_participants=8):
    ds = generate_dataset(GeneratorConfig(seed=seed, n_participants=n_participants))
    return featurize_dataset(ds)


class TestNestedCv:
    def test_deterministic_across_thread_counts(self):
        rows = small_feature_rows()
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=0)
        rep1 = run_nested_cv(rows, TaskKind.NBACK, "multi", plan, subsets=("heart",), threads=1)
        rep8 = run_nested_cv(rows, TaskKind.NBACK, "multi", plan, subsets=("heart",), threads=8)
        assert rep1 == rep8

    def test_binary_scheme_drops_hard_rows(self):
        rows = small_feature_rows(n_participants=12)  # enough binary rows for k=9 KNN
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=0)
        rep = run_nested_cv(rows, TaskKind.NBACK, "binary", plan, subsets=("heart",))
        assert rep.chance_percent == 50.0
        assert rep.scheme == "binary"

    def test_binary_scheme_runs_below_ten_participants(self):
        # 9 participants leave 8 binary training rows in some folds: the k = 9 KNN config is skipped
        rows = small_feature_rows(n_participants=9)
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=0)
        rep = run_nested_cv(rows, TaskKind.NBACK, "binary", plan, subsets=("heart",))
        assert set(rep.cells) == {(m, "heart") for m in REPORT_ROWS}

    def test_unknown_subset_rejected(self):
        rows = small_feature_rows()
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=0)
        with pytest.raises(ValueError, match="unknown feature subset"):
            run_nested_cv(rows, TaskKind.NBACK, "multi", plan, subsets=("banana",))

    def test_unknown_scheme_rejected(self):
        rows = small_feature_rows()
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=0)
        with pytest.raises(ValueError, match="unknown scheme"):
            run_nested_cv(rows, TaskKind.NBACK, "ternary", plan)

    def test_plan_must_cover_participants(self):
        rows = small_feature_rows()
        plan = make_split_plan([f"q{i}" for i in range(10)], k=5, seed=0)
        with pytest.raises(ValueError, match="does not cover"):
            run_nested_cv(rows, TaskKind.NBACK, "multi", plan, subsets=("heart",))

    def test_all_cells_present(self):
        rows = small_feature_rows()
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=0)
        rep = run_nested_cv(rows, TaskKind.NBACK, "multi", plan)
        assert set(rep.cells) == {(m, s) for m in REPORT_ROWS for s in FEATURE_SUBSETS}


def dummy_report(scheme="multi"):
    cells = {
        (m, s): (40.0 + i, 5.0)
        for i, (m, s) in enumerate((m, s) for m in REPORT_ROWS for s in FEATURE_SUBSETS)
    }
    return EvaluationReport(
        task=TaskKind.NBACK,
        scheme=scheme,
        cells=cells,
        chance_percent=100.0 / 3.0 if scheme == "multi" else 50.0,
        seed=7,
        n_folds=5,
    )


class TestReportRendering:
    def test_multi_caption_contains_33_33(self):
        assert "33.33" in render_report(dummy_report("multi"), "txt")

    def test_binary_caption_contains_50(self):
        assert "50%" in render_report(dummy_report("binary"), "txt")

    def test_shape_is_4_rows_by_5_columns(self):
        text = render_report(dummy_report(), "csv")
        data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        header, *rows = data_lines
        assert len(rows) == 4
        assert [r.split(",")[0] for r in rows] == list(REPORT_ROWS)
        assert all(len(r.split(",")) == 6 for r in rows)  # model + 5 subsets
        assert header.split(",")[1:] == list(FEATURE_SUBSETS)

    def test_csv_round_trip(self):
        report = dummy_report()
        cells = parse_report_csv(render_report(report, "csv"))
        for key, (mean, std) in report.cells.items():
            assert cells[key] == (round(mean, 1), round(std, 1))

    def test_headers_carry_seed_and_format_version(self):
        text = render_report(dummy_report(), "csv")
        assert "# seed=7" in text
        assert "# format_version=" in text

    def test_txt_layout_uses_subset_titles(self):
        text = render_report(dummy_report(), "txt")
        for title in SUBSET_TITLES.values():
            assert title in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(dummy_report(), "xml")


class TestNoSignalBaseline:
    def test_shuffled_labels_stay_near_chance(self):
        rows = small_feature_rows(seed=1, n_participants=15)
        per_model: dict[str, list[float]] = {m: [] for m in REPORT_ROWS}
        for shuffle_seed in (0, 1, 2):
            rng = np.random.default_rng(shuffle_seed)
            # replace every level label with a random one
            shuffled = [
                dataclasses.replace(r, level=LoadLevel(int(rng.integers(0, 3)))) for r in rows
            ]
            plan = make_split_plan(sorted({r.participant for r in shuffled}), k=5, seed=1)
            rep = run_nested_cv(shuffled, TaskKind.NBACK, "multi", plan, subsets=("all",))
            for (model, _), (mean, _) in rep.cells.items():
                per_model[model].append(mean)
        for model, means in per_model.items():
            assert abs(np.mean(means) - 100.0 / 3.0) < 15.0
