"""Split hygiene, featurization, nested CV, and report rendering tests."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_segment
from loadsense import evaluate
from loadsense.cardiac import clean_rr, compute_cardiac_features, hr_stats, rmssd
from loadsense.core import FEATURE_NAMES, Dataset, FeatureVector, LoadLevel, TaskKind, feature_matrix, validate_segment
from loadsense.driving import DEFAULT_SPEED_MPS, TRANSITION_M, build_ideal_path, deviation_series, deviation_stats
from loadsense.evaluate import (
    FEATURE_SUBSETS,
    REPORT_ROWS,
    SUBSET_TITLES,
    EvaluationReport,
    Fold,
    SplitPlan,
    _labels,
    featurize_dataset,
    featurize_segment,
    make_split_plan,
    render_report,
    run_nested_cv,
)
from loadsense.learn import (ADABOOST_MAX_STUMPS, MODEL_KINDS, accuracy, fit_adaboost, fit_scaler, greedy_ensemble,
                             grid_search)
from loadsense.pupil import compute_lhipa
from loadsense.synth import GeneratorConfig, generate_dataset


def _missing(features):
    """Names of the features that are None."""
    return {name for name in FEATURE_NAMES if features.value(name) is None}


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


def _reference_make_split_plan(participant_ids, k=5, seed=0):
    """`make_split_plan` before the shared validation hold-out helper."""
    ids = sorted(set(participant_ids))
    if len(ids) < k:
        raise ValueError(f"need at least {k} participants, got {len(ids)}")
    rng = np.random.default_rng(seed)
    shuffled = [ids[i] for i in rng.permutation(len(ids))]
    folds = []
    for i in range(k):
        test = tuple(shuffled[i::k])
        rest = [p for p in shuffled if p not in test]
        n_val = math.ceil(len(rest) / 3)
        folds.append(Fold(test=test, validation=tuple(rest[:n_val]), train=tuple(rest[n_val:])))
    return SplitPlan(folds=tuple(folds), seed=seed)


class TestSplitPlanOracle:
    def test_matches_the_old_plan(self):
        for n in range(5, 50):
            for seed in (0, 7, 11):
                ids = [f"p{i:03d}" for i in range(n)]
                assert make_split_plan(ids, k=5, seed=seed) == _reference_make_split_plan(ids, k=5, seed=seed)
        for k in (2, 3, 10):
            ids = [f"p{i}" for i in range(23)]
            assert make_split_plan(ids, k=k, seed=4) == _reference_make_split_plan(ids, k=k, seed=4)


class TestFeaturize:
    def test_feature_values_match_the_feature_modules(self, clean_segment):
        row = featurize_segment(clean_segment)
        cardiac = compute_cardiac_features(clean_segment.rr_intervals)
        assert row.value("hr_mean") == cardiac["hr_mean"]
        assert row.value("hrv_rmssd") == cardiac["hrv_rmssd"]
        assert row.value("lhipa_left") == compute_lhipa(clean_segment.pupil_left)
        assert row.value("lhipa_right") == compute_lhipa(clean_segment.pupil_right)

    def test_missing_pupil_channel_is_named(self, clean_segment):
        seg = dataclasses.replace(clean_segment, pupil_left=(), pupil_right=())
        row = featurize_segment(seg)
        assert {"lhipa_left", "lhipa_right"} <= _missing(row)
        assert row.value("lhipa_left") is None

    @pytest.mark.parametrize("gap_tenths, flagged", [(3, True), (2, False)])
    def test_validate_and_lhipa_share_one_gap_rule(self, clean_segment, gap_tenths, flagged):
        pupil = np.array(clean_segment.pupil_left)
        pupil[np.arange(len(pupil)) % 10 < gap_tenths, 2] = 0.0
        seg = dataclasses.replace(clean_segment, pupil_left=pupil)
        warned = any(i.message.startswith("pupil_left: pupil gap fraction") for i in validate_segment(seg))
        assert warned == flagged
        assert ("lhipa_left" in _missing(featurize_segment(seg))) == flagged

    def test_missing_rr_channel_marks_heart_features(self, clean_segment):
        seg = dataclasses.replace(clean_segment, rr_intervals=())
        row = featurize_segment(seg)
        assert {"hr_mean", "hr_min", "hr_max", "hr_std", "hrv_rmssd"} <= _missing(row)

    def test_45_participants_gives_270_rows_135_per_task(self):
        ds = generate_dataset(GeneratorConfig(seed=0, n_participants=45))
        rows = featurize_dataset(ds)
        assert len(rows) == 270
        assert sum(1 for r in rows if r.task is TaskKind.NBACK) == 135

    def test_row_order_is_independent_of_segment_order(self, tiny_dataset):
        rows_fwd = featurize_dataset(tiny_dataset)
        rows_rev = featurize_dataset(Dataset(segments=tuple(reversed(tiny_dataset.segments))))
        assert rows_fwd == rows_rev


@functools.lru_cache(maxsize=None)
def synthetic_segment():
    return generate_dataset(GeneratorConfig(seed=3, n_participants=1)).segments[0]


def _reference_featurize_segment(seg):
    """featurize_segment as it was when evaluate renamed the cardiac fields by
    hand and rebuilt the lane-change points from the trace itself."""
    values = dict.fromkeys(FEATURE_NAMES)
    try:
        kept = clean_rr(seg.rr_intervals[:, 1])
    except ValueError:
        kept = []
    if len(kept) >= 2:
        values["hr_mean"], values["hr_min"], values["hr_max"], values["hr_std"] = hr_stats(kept)
        values["hrv_rmssd"] = rmssd(kept)
    values["lhipa_left"] = compute_lhipa(seg.pupil_left)
    values["lhipa_right"] = compute_lhipa(seg.pupil_right)
    try:
        t, lane = seg.driving[:, 0], seg.driving[:, 2]
        changes = np.flatnonzero(np.diff(lane)) + 1
        points = [(DEFAULT_SPEED_MPS * (t[i] - t[0]), lane[i - 1], lane[i]) for i in changes]
        values["drive_avg_dev"] = deviation_stats(deviation_series(seg.driving, build_ideal_path(points)))
    except ValueError:
        pass
    return FeatureVector(**values)


@functools.lru_cache(maxsize=None)
def _edge_segments():
    """name -> (segment, the features it leaves missing), each built from a generated segment."""
    seg = synthetic_segment()
    shifted = np.array(seg.driving)
    shifted[:, 0] += 5.0  # a trace whose clock does not start at 0
    non_finite = np.array(seg.driving)
    non_finite[100, 1] = math.nan
    overlapping = np.array(seg.driving)
    lane = overlapping[:, 2]
    first = int(np.flatnonzero(np.diff(lane))[0]) + 1
    lane[first + 33:] = lane[first - 1]  # back 1 s after the first change, inside TRANSITION_M
    assert DEFAULT_SPEED_MPS * (overlapping[first + 33, 0] - overlapping[first, 0]) <= TRANSITION_M
    heart = {"hr_mean", "hr_min", "hr_max", "hr_std", "hrv_rmssd"}
    return {
        "generated": (seg, set()),
        "empty_rr": (dataclasses.replace(seg, rr_intervals=()), heart),
        "every_beat_rejected": (dataclasses.replace(seg, rr_intervals=((1.0, 10.0), (1.8, 2500.0))), heart),
        "one_beat_kept": (dataclasses.replace(seg, rr_intervals=((1.0, 800.0), (1.8, 20.0))), heart),
        "empty_pupils": (dataclasses.replace(seg, pupil_left=(), pupil_right=()), {"lhipa_left", "lhipa_right"}),
        "empty_driving": (dataclasses.replace(seg, driving=()), {"drive_avg_dev"}),
        "driving_clock_shifted": (dataclasses.replace(seg, driving=shifted), set()),
        "driving_under_1s": (dataclasses.replace(seg, driving=seg.driving[:30]), {"drive_avg_dev"}),
        "non_finite_lateral": (dataclasses.replace(seg, driving=non_finite), {"drive_avg_dev"}),
        "overlapping_lane_changes": (dataclasses.replace(seg, driving=overlapping), {"drive_avg_dev"}),
    }


def _assert_same_features(new, old):
    for f in dataclasses.fields(FeatureVector):
        assert repr(getattr(new, f.name)) == repr(getattr(old, f.name)), f.name


class TestFeaturizeSegmentOracle:
    """featurize_segment, now one merge of the channel featurizers, against the
    hand-written join it replaced: every field's repr is equal."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_matches_the_reference_on_a_cohort(self, seed):
        for seg in generate_dataset(GeneratorConfig(seed=seed, n_participants=10)).segments:
            _assert_same_features(featurize_segment(seg), _reference_featurize_segment(seg))

    @pytest.mark.parametrize("name", list(_edge_segments()))
    def test_matches_the_reference_on_an_edge_segment(self, name):
        seg, missing = _edge_segments()[name]
        features = featurize_segment(seg)
        _assert_same_features(features, _reference_featurize_segment(seg))
        assert _missing(features) == missing


# every float column of the on-disk format: (segment field, position in the sample tuple)
NUMERIC_COLUMNS = [("rr_intervals", 0), ("rr_intervals", 1), ("driving", 0), ("driving", 1), ("events", 0)]
NUMERIC_COLUMNS += [(channel, i) for channel in ("pupil_left", "pupil_right") for i in range(3)]


def _inject(seg, column, row, value, blink):
    """`value` at one row of one column; with `blink`, a pupil row also gets confidence 0."""
    field, position = column
    samples = list(getattr(seg, field))
    row %= len(samples)
    if field == "events":
        samples[row] = dataclasses.replace(samples[row], t_s=value)
    else:
        # a tuple: with an array row `+` would add elementwise
        sample = tuple(samples[row])
        samples[row] = sample[:position] + (value,) + sample[position + 1:]
        if blink and field.startswith("pupil") and position != 2:
            samples[row] = samples[row][:2] + (0.0,)
    return dataclasses.replace(seg, **{field: tuple(samples)})


class TestNonFiniteInput:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(NUMERIC_COLUMNS), st.integers(0, 10**6),
                              st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans()),
                    min_size=1, max_size=3))
    def test_rejected_or_finite_or_named_missing(self, injections):
        seg = synthetic_segment()
        for column, row, value, blink in injections:
            seg = _inject(seg, column, row, value, blink)
        if any(issue.is_error for issue in validate_segment(seg)):
            return
        features = featurize_segment(seg)
        for name in FEATURE_NAMES:
            value = features.value(name)
            assert name in _missing(features) or (value is not None and math.isfinite(value)), name


# the time column of each timed channel, and the features it feeds
TIMED_CHANNELS = {"driving": ("drive_avg_dev",), "pupil_left": ("lhipa_left",), "pupil_right": ("lhipa_right",)}


class TestNonFiniteTime:
    """Segments built in memory never pass `validate_segment`: a non-finite
    sample time must still end as a named missing feature."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(TIMED_CHANNELS)), st.sampled_from(("first", "interior", "last")),
           st.integers(0, 10**6), st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_named_missing_without_validation(self, channel, where, interior, value):
        seg = synthetic_segment()
        assert not set(TIMED_CHANNELS[channel]) & _missing(featurize_segment(seg))
        samples = np.array(getattr(seg, channel))
        row = {"first": 0, "last": len(samples) - 1}.get(where, 1 + interior % (len(samples) - 2))
        samples[row, 0] = value
        features = featurize_segment(dataclasses.replace(seg, **{channel: samples}))
        assert set(TIMED_CHANNELS[channel]) <= _missing(features)


# the value column of each timed channel, and the feature it feeds
VALUE_COLUMNS = {("driving", 1): "drive_avg_dev", ("pupil_left", 1): "lhipa_left", ("pupil_right", 1): "lhipa_right"}


class TestNonFiniteValue:
    """As `TestNonFiniteTime`, for a lateral position or a pupil diameter: a
    non-finite one ends as a named missing feature, except a diameter in a
    blink (confidence 0), which no feature uses."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(VALUE_COLUMNS)), st.sampled_from(("first", "interior", "last")),
           st.integers(0, 10**6), st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
    def test_named_missing_without_validation(self, column, where, interior, value, blink):
        seg = synthetic_segment()
        channel, position = column
        feature = VALUE_COLUMNS[column]
        samples = np.array(getattr(seg, channel))
        row = {"first": 0, "last": len(samples) - 1}.get(where, 1 + interior % (len(samples) - 2))
        samples[row, position] = value
        blink = blink and channel != "driving"
        if channel != "driving":
            samples[row, 2] = 0.0 if blink else 1.0
        features = featurize_segment(dataclasses.replace(seg, **{channel: samples}))
        if blink:
            assert feature not in _missing(features) and math.isfinite(features.value(feature))
        else:
            assert feature in _missing(features)


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
        assert "The random chance level is 50%." in render_report(rep, "txt")
        assert rep.scheme == "binary"
        kept = evaluate._rows_for_task(rows, TaskKind.NBACK, "binary")
        assert {r.level for r in kept} == {LoadLevel.EASY, LoadLevel.MEDIUM}
        assert len(kept) == sum(1 for r in rows if r.task is TaskKind.NBACK and r.level is not LoadLevel.HARD)

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


def _reference_evaluate_fold(rows, fold, subsets):
    """`_evaluate_fold` before `select_and_fit`: the oracle for the shared
    fit-and-select path."""
    result = {}
    train_rows = [r for r in rows if r.participant in set(fold.train)]
    val_rows = [r for r in rows if r.participant in set(fold.validation)]
    test_rows = [r for r in rows if r.participant in set(fold.test)]
    if not test_rows:
        raise ValueError("fold has no test rows for the requested task")
    y_train, y_val, y_test = _labels(train_rows), _labels(val_rows), _labels(test_rows)
    for subset_name in subsets:
        subset = FEATURE_SUBSETS[subset_name]
        scaler = fit_scaler(feature_matrix(train_rows, subset))
        X_train = scaler.transform(feature_matrix(train_rows, subset))
        X_val = scaler.transform(feature_matrix(val_rows, subset))
        X_test = scaler.transform(feature_matrix(test_rows, subset))
        candidates = grid_search(X_train, y_train, X_val, y_val,
                                 lambda: fit_adaboost(X_train, y_train, ADABOOST_MAX_STUMPS))
        for kind in MODEL_KINDS:
            best = next(c for c in candidates if c.kind == kind)
            result[(kind, subset_name)] = accuracy(best.model, X_test, y_test)
        ensemble = greedy_ensemble(candidates, y_val)
        result[("Ensemble", subset_name)] = accuracy(ensemble, X_test, y_test)
    return result


def _reference_select_and_fit(train_rows, val_rows, subset):
    """`select_and_fit` before its models carried the scaler: (scaler,
    candidates, ensemble), the candidates and the ensemble taking scaled input."""
    X_train = feature_matrix(train_rows, subset)
    scaler = fit_scaler(X_train)
    X_train = scaler.transform(X_train)
    X_val = scaler.transform(feature_matrix(val_rows, subset))
    y_val, y_train = _labels(val_rows), _labels(train_rows)
    candidates = grid_search(X_train, y_train, X_val, y_val, lambda: fit_adaboost(X_train, y_train, ADABOOST_MAX_STUMPS))
    return scaler, candidates, greedy_ensemble(candidates, y_val)


def _reference_run_nested_cv(rows, task, scheme, plan):
    """`run_nested_cv` before it prepared every selection and boosted them
    together: each fold by `_reference_evaluate_fold`, one after another."""
    task_rows = evaluate._rows_for_task(rows, task, scheme)
    fold_results = [_reference_evaluate_fold(task_rows, fold, tuple(FEATURE_SUBSETS)) for fold in plan.folds]
    cells = {}
    for key in fold_results[0]:
        accs = np.asarray([result[key] for result in fold_results])
        cells[key] = (float(accs.mean()) * 100.0, float(accs.std(ddof=1)) * 100.0)
    return EvaluationReport(task=task, scheme=scheme, cells=cells, seed=plan.seed, n_folds=len(plan.folds))


@functools.lru_cache(maxsize=None)
def ten_participant_rows(seed=7):
    return tuple(small_feature_rows(seed=seed, n_participants=10))


class TestSelectAndFitOracle:
    @pytest.mark.parametrize("task, scheme", [(TaskKind.NBACK, "multi"), (TaskKind.NBACK, "binary"),
                                              (TaskKind.VISUAL_SEARCH, "multi")])
    def test_reports_match_the_old_fold_body(self, task, scheme):
        rows = ten_participant_rows()
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=7)
        new = run_nested_cv(rows, task, scheme, plan)
        old = _reference_run_nested_cv(rows, task, scheme, plan)
        for fmt in ("csv", "txt"):
            assert render_report(new, fmt) == render_report(old, fmt)


class TestScalerCarryingModels:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_predictions_on_raw_features_match_the_old_scaled_path(self, seed):
        """Every fold and subset of the three reports: each model `select_and_fit`
        returns predicts on the raw test matrix what the old path's best
        candidate of its kind, or its ensemble, predicts on the scaled one."""
        rows = ten_participant_rows(seed)
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=seed)
        for task, scheme in ((TaskKind.NBACK, "multi"), (TaskKind.NBACK, "binary"), (TaskKind.VISUAL_SEARCH, "multi")):
            task_rows = evaluate._rows_for_task(rows, task, scheme)
            for fold in plan.folds:
                train_rows, val_rows, test_rows = ([r for r in task_rows if r.participant in part]
                                                   for part in (fold.train, fold.validation, fold.test))
                for subset in FEATURE_SUBSETS.values():
                    X_test = feature_matrix(test_rows, subset)
                    selection = evaluate.prepare_selection(train_rows, val_rows, subset)
                    models = evaluate.select_and_fit(selection, lambda: fit_adaboost(
                        selection.X_train, selection.y_train, ADABOOST_MAX_STUMPS))
                    scaler, candidates, ensemble = _reference_select_and_fit(train_rows, val_rows, subset)
                    old = {kind: next(c.model for c in candidates if c.kind == kind) for kind in MODEL_KINDS}
                    old["Ensemble"] = ensemble
                    assert list(models) == list(REPORT_ROWS)
                    for name, model in models.items():
                        assert np.array_equal(model.scaler.mean, scaler.mean)
                        assert np.array_equal(model.scaler.std, scaler.std)
                        assert np.array_equal(model.predict(X_test), old[name].predict(scaler.transform(X_test)))


def dummy_report(scheme="multi"):
    cells = {
        (m, s): (40.0 + i, 5.0)
        for i, (m, s) in enumerate((m, s) for m in REPORT_ROWS for s in FEATURE_SUBSETS)
    }
    return EvaluationReport(
        task=TaskKind.NBACK,
        scheme=scheme,
        cells=cells,
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
        header, *lines = [l for l in render_report(report, "csv").splitlines() if not l.startswith("#")]
        cells = {}
        for line in lines:
            kind, *parts = line.split(",")
            for subset, cell in zip(header.split(",")[1:], parts):
                mean, std = cell.split("+-")
                cells[(kind, subset)] = (float(mean), float(std))
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
