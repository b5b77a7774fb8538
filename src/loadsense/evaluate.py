"""Participant-level nested cross-validation and Table-style reporting.

All splits are by participant, never by segment: for every outer fold the
test, validation, and training participant sets are pairwise disjoint, so
no participant contributes data to more than one role for the same model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import FORMAT_VERSION
from .cardiac import compute_cardiac_features
from .core import (Dataset, DatasetError, FeatureRow, FeatureVector, LoadLevel, SessionSegment, TaskKind,
                   feature_matrix, provenance_header)
from .driving import compute_drive_avg_dev
from .learn import (ADABOOST_MAX_STUMPS, MODEL_KINDS, Scaler, TrainedModel, accuracy, fit_adaboost, fit_adaboost_many,
                    fit_scaler, grid_search, greedy_ensemble)
from .pupil import compute_lhipa

HEART_FEATURES = ("hr_mean", "hr_min", "hr_max", "hr_std", "hrv_rmssd")
EYE_FEATURES = ("lhipa_left", "lhipa_right")
DRIVE_FEATURES = ("drive_avg_dev",)

FEATURE_SUBSETS: dict[str, tuple[str, ...]] = {
    "all": HEART_FEATURES + EYE_FEATURES + DRIVE_FEATURES,
    "eye_drive": EYE_FEATURES + DRIVE_FEATURES,
    "heart_eye": HEART_FEATURES + EYE_FEATURES,
    "heart_drive": HEART_FEATURES + DRIVE_FEATURES,
    "heart": HEART_FEATURES,
}

SUBSET_TITLES = {
    "all": "All Features",
    "eye_drive": "Eye & Drive",
    "heart_eye": "Heart & Eye",
    "heart_drive": "Heart & Drive",
    "heart": "Heart alone",
}

REPORT_ROWS = (*MODEL_KINDS, "Ensemble")

SCHEMES = ("multi", "binary")
BINARY_LEVELS = (LoadLevel.EASY, LoadLevel.MEDIUM)  # the two classes of the binary scheme


@dataclass(frozen=True)
class Fold:
    test: tuple[str, ...]
    validation: tuple[str, ...]
    train: tuple[str, ...]


@dataclass(frozen=True)
class SplitPlan:
    folds: tuple[Fold, ...]
    seed: int


def _shuffled(participant_ids: Sequence[str], seed: int) -> list[str]:
    ids = sorted(set(participant_ids))
    rng = np.random.default_rng(seed)
    return [ids[i] for i in rng.permutation(len(ids))]


def _fold(shuffled: Sequence[str], test: tuple[str, ...]) -> Fold:
    """Of the participants not tested, in shuffled order, the first third
    (rounded up) validate and the rest train."""
    rest = [p for p in shuffled if p not in test]
    n_val = math.ceil(len(rest) / 3)
    return Fold(test=test, validation=tuple(rest[:n_val]), train=tuple(rest[n_val:]))


def make_split_plan(participant_ids: Sequence[str], k: int = 5, seed: int = 0) -> SplitPlan:
    """Shuffle participants by seed; fold i tests participants i mod k, and a
    third (rounded up) of the remainder is held out for inner validation."""
    shuffled = _shuffled(participant_ids, seed)
    if len(shuffled) < k:
        raise ValueError(f"need at least {k} participants, got {len(shuffled)}")
    return SplitPlan(folds=tuple(_fold(shuffled, tuple(shuffled[i::k])) for i in range(k)), seed=seed)


def featurize_segment(seg: SessionSegment) -> FeatureVector:
    """The merged channel features; an unusable channel's features are None."""
    return FeatureVector(
        **(compute_cardiac_features(seg.rr_intervals) or {}),
        lhipa_left=compute_lhipa(seg.pupil_left),
        lhipa_right=compute_lhipa(seg.pupil_right),
        drive_avg_dev=compute_drive_avg_dev(seg.driving),
    )


def featurize_segments(segments: Iterable[SessionSegment]) -> list[FeatureRow]:
    """One feature row per segment, ordered by (participant, task, level).
    Each segment is featurized as it is drawn, and only its row is kept."""
    rows = [
        FeatureRow(seg.participant_id, seg.task, seg.level, featurize_segment(seg))
        for seg in segments
    ]
    rows.sort(key=lambda r: (r.participant, r.task.value, int(r.level)))
    return rows


def featurize_dataset(dataset: Dataset) -> list[FeatureRow]:
    """One feature row per segment, ordered by (participant, task, level)."""
    return featurize_segments(dataset.segments)


@dataclass(frozen=True)
class EvaluationReport:
    task: TaskKind
    scheme: str  # "multi" | "binary"
    cells: dict[tuple[str, str], tuple[float, float]]  # (model, subset) -> (mean%, std%)
    seed: int
    n_folds: int


def _rows_for_task(rows: Sequence[FeatureRow], task: TaskKind, scheme: str) -> list[FeatureRow]:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    selected = [r for r in rows if r.task is task]
    if scheme == "binary":
        selected = [r for r in selected if r.level in BINARY_LEVELS]
    return selected


def _labels(rows: Sequence[FeatureRow]) -> np.ndarray:
    return np.asarray([int(r.level) for r in rows], dtype=int)


def _rows_of(rows: Sequence[FeatureRow], participants: Sequence[str]) -> list[FeatureRow]:
    members = set(participants)
    return [r for r in rows if r.participant in members]


class Selection(NamedTuple):
    """The input of one model selection: the scaler fitted on the training
    rows, and the scaled training and validation matrices with their labels."""

    scaler: Scaler
    X_train: np.ndarray
    y_train: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray


def prepare_selection(train_rows: Sequence[FeatureRow], val_rows: Sequence[FeatureRow],
                      subset: tuple[str, ...]) -> Selection:
    """Fit the scaler on the training rows and scale both matrices."""
    X_train = feature_matrix(train_rows, subset)
    scaler = fit_scaler(X_train)
    return Selection(scaler, scaler.transform(X_train), _labels(train_rows),
                     scaler.transform(feature_matrix(val_rows, subset)), _labels(val_rows))


def select_and_fit(selection: Selection, boosted: Callable[[], TrainedModel]) -> dict[str, TrainedModel]:
    """Grid-search every model kind and select the greedy ensemble on the
    validation rows; `boosted` returns the selection's AdaBoost model at
    ADABOOST_MAX_STUMPS (see `grid_search`).  Returns the REPORT_ROWS models
    by name, the best of each kind and then the ensemble, each with the
    scaler attached: they take unscaled input."""
    candidates = grid_search(selection.X_train, selection.y_train, selection.X_val, selection.y_val, boosted)
    # candidates rank best first
    models = {kind: next(c.model for c in candidates if c.kind == kind) for kind in MODEL_KINDS}
    models["Ensemble"] = greedy_ensemble(candidates, selection.y_val)
    return {name: replace(model, scaler=selection.scaler) for name, model in models.items()}


def train(rows: Sequence[FeatureRow], task: TaskKind, scheme: str, subset: str, seed: int) -> TrainedModel:
    """The final model: the ensemble of one `run_nested_cv` fold's selection,
    with no test participants and a seeded one-third validation hold-out (it
    takes unscaled input)."""
    task_rows = _rows_for_task(rows, task, scheme)
    shuffled = _shuffled([r.participant for r in task_rows], seed)
    if len(shuffled) < 3:
        raise DatasetError("need at least 3 participants to train")
    fold = _fold(shuffled, ())
    selection = prepare_selection(_rows_of(task_rows, fold.train), _rows_of(task_rows, fold.validation),
                                  FEATURE_SUBSETS[subset])
    return select_and_fit(selection, lambda: fit_adaboost(selection.X_train, selection.y_train,
                                                          ADABOOST_MAX_STUMPS))["Ensemble"]


def run_nested_cv(
    rows: Sequence[FeatureRow],
    task: TaskKind,
    scheme: str,
    plan: SplitPlan,
    subsets: Sequence[str] | None = None,
    threads: int = 1,
) -> EvaluationReport:
    """Nested cross-validation over the split plan; cells are mean% +- std%
    test accuracy over the outer folds.

    Every (fold, subset) selection is prepared first, and one
    `fit_adaboost_many` call boosts all their AdaBoost models together;
    then each is selected and scored on its test rows, fold by fold.  An
    error is raised where the fold-by-fold order reaches it.  `threads` is
    accepted and ignored: the work holds the interpreter lock, and a thread
    pool measured slower, not faster."""
    subsets = tuple(subsets) if subsets else tuple(FEATURE_SUBSETS)
    for name in subsets:
        if name not in FEATURE_SUBSETS:
            raise ValueError(f"unknown feature subset {name!r}")
    task_rows = _rows_for_task(rows, task, scheme)
    present = {r.participant for r in task_rows}
    planned = {p for fold in plan.folds for p in fold.test}
    if not present <= planned:
        raise ValueError("split plan does not cover all participants present in the features")

    folds = [tuple(_rows_of(task_rows, part) for part in (fold.train, fold.validation, fold.test))
             for fold in plan.folds]
    selections: dict[tuple[int, str], Selection | ValueError] = {}
    for f, (train_rows, val_rows, _) in enumerate(folds):
        for name in subsets:
            try:
                selections[f, name] = prepare_selection(train_rows, val_rows, FEATURE_SUBSETS[name])
            except ValueError as exc:  # raised when its fold is scored
                selections[f, name] = exc
    prepared = [key for key, s in selections.items() if isinstance(s, Selection)]
    boosted = dict(zip(prepared, fit_adaboost_many(
        [(selections[key].X_train, selections[key].y_train) for key in prepared], ADABOOST_MAX_STUMPS)))

    fold_results = []
    for f, (_, _, test_rows) in enumerate(folds):
        if not test_rows:
            raise ValueError("fold has no test rows for the requested task")
        y_test = _labels(test_rows)
        result: dict[tuple[str, str], float] = {}
        for name in subsets:
            if isinstance(selections[f, name], ValueError):
                raise selections[f, name]
            X_test = feature_matrix(test_rows, FEATURE_SUBSETS[name])
            for kind, model in select_and_fit(selections[f, name], boosted[f, name]).items():
                result[(kind, name)] = accuracy(model, X_test, y_test)
        fold_results.append(result)

    cells: dict[tuple[str, str], tuple[float, float]] = {}
    for kind in REPORT_ROWS:
        for subset_name in subsets:
            accs = np.asarray([fr[(kind, subset_name)] for fr in fold_results])
            mean = float(accs.mean()) * 100.0
            std = float(accs.std(ddof=1)) * 100.0 if len(accs) > 1 else 0.0
            cells[(kind, subset_name)] = (mean, std)

    return EvaluationReport(
        task=task,
        scheme=scheme,
        cells=cells,
        seed=plan.seed,
        n_folds=len(plan.folds),
    )


def _report_subsets(report: EvaluationReport) -> list[str]:
    seen = []
    for _, subset in report.cells:
        if subset not in seen:
            seen.append(subset)
    return [s for s in FEATURE_SUBSETS if s in seen]


def render_report(report: EvaluationReport, fmt: str = "txt") -> str:
    """Tables in the 4-model x 5-subset layout with the chance-level caption."""
    subsets = _report_subsets(report)
    chance = "33.33" if report.scheme == "multi" else "50"
    classes = f"{report.scheme}-class"
    if report.scheme == "binary":
        classes += f" ({' vs '.join(level.name.lower() for level in BINARY_LEVELS)})"
    caption = (
        f"{report.task.value} {classes} mean%+-std% test accuracy over "
        f"{report.n_folds} folds. The random chance level is {chance}%."
    )
    rows = {kind: [f"{mean:.1f}+-{std:.1f}" for mean, std in (report.cells[(kind, s)] for s in subsets)]
            for kind in REPORT_ROWS}
    if fmt == "csv":
        lines = [f"# caption={caption}", "model," + ",".join(subsets)]
        lines += [kind + "," + ",".join(cells) for kind, cells in rows.items()]
        return provenance_header(report.seed) + "\n".join(lines) + "\n"
    if fmt == "txt":
        width = 16
        lines = [caption, f"seed={report.seed} format_version={FORMAT_VERSION}", ""]
        lines.append("".ljust(12) + "".join(SUBSET_TITLES[s].ljust(width) for s in subsets))
        lines += [kind.ljust(12) + "".join(cell.ljust(width) for cell in cells) for kind, cells in rows.items()]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
