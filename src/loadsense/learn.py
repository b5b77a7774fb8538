"""Classifiers (shrinkage LDA, KNN, AdaBoost stumps), standardization,
grid search, and greedy ensemble selection.

All predictors are deterministic: tie rules are fixed (lowest class index
for votes and discriminants, training order for neighbor distance ties,
model kind then grid order for equal validation scores).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .stumps import StumpBatch, boost, presort

MODEL_KINDS = ("LDA", "KNN", "AdaBoost")
MODEL_FORMAT_VERSION = 1
ENSEMBLE_MAX_SIZE = 10

GRIDS = {
    "LDA": [{"shrinkage": s} for s in (0.01, 0.1, 0.3, 0.5)],
    "KNN": [{"k": k} for k in (1, 3, 5, 7, 9)],
    "AdaBoost": [{"n_stumps": n} for n in (25, 50, 100)],
}
ADABOOST_MAX_STUMPS = max(cfg["n_stumps"] for cfg in GRIDS["AdaBoost"])  # the size `grid_search` boosts at


@dataclass(frozen=True)
class Scaler:
    """Column z-scoring with train-mean imputation of missing (NaN) entries."""

    mean: np.ndarray
    std: np.ndarray  # zero-variance columns carry std 1

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        X = np.where(np.isnan(X), self.mean, X)
        return (X - self.mean) / self.std


def fit_scaler(X: np.ndarray) -> Scaler:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("fit_scaler: need a non-empty 2-D training matrix")
    present = ~np.isnan(X)
    count = present.sum(axis=0)
    # np.nanmean's sum and division, bit for bit, without its warning on an
    # all-missing column, whose mean is 0
    mean = np.divide(np.where(present, X, 0.0).sum(axis=0), count, out=np.zeros(X.shape[1]), where=count > 0)
    filled = np.where(present, X, mean)
    std = np.std(filled, axis=0, ddof=1) if X.shape[0] > 1 else np.zeros(X.shape[1])
    std = np.where(std == 0.0, 1.0, std)
    return Scaler(mean=mean, std=std)


@dataclass(frozen=True)
class TrainedModel:
    kind: str  # LDA | KNN | AdaBoost | Ensemble
    classes: tuple[int, ...]
    params: dict
    scaler: Scaler | None = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        # the feature count, where the scaler or the params fix it; AdaBoost checks its stumps
        width = None if self.scaler is None else self.scaler.mean.size
        if width is None and self.kind in _WIDTH_PARAMS:
            width = self.params[_WIDTH_PARAMS[self.kind]].shape[-1]
        if X.ndim != 2 or width is not None and X.shape[1] != width:
            raise ValueError(f"{self.kind} model: input has shape {X.shape}, "
                             f"not (rows, {'columns' if width is None else width})")
        if self.scaler is not None:
            X = self.scaler.transform(X)
        return _PREDICTORS[self.kind](self, X)


# ---------------------------------------------------------------------------
# LDA


def fit_lda(X: np.ndarray, y: Sequence[int], shrinkage: float) -> TrainedModel:
    """Gaussian LDA with pooled covariance shrunk toward (trace/p) * I."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    classes = tuple(sorted(set(y.tolist())))
    if len(classes) < 2:
        raise ValueError("fit_lda: need at least 2 classes")
    if not 0.0 <= shrinkage <= 1.0:
        raise ValueError("shrinkage must lie in [0, 1]")
    n, p = X.shape
    means = []
    pooled = np.zeros((p, p))
    priors = []
    for c in classes:
        Xc = X[y == c]
        if len(Xc) < 2:
            raise ValueError("fit_lda: every class needs at least 2 samples")
        mu = Xc.mean(axis=0)
        means.append(mu)
        centered = Xc - mu
        pooled += centered.T @ centered
        priors.append(len(Xc) / n)
    pooled /= n - len(classes)
    target = np.eye(p) * (np.trace(pooled) / p)
    cov = (1.0 - shrinkage) * pooled + shrinkage * target
    try:
        cov_inv = np.linalg.inv(cov)
    except np.linalg.LinAlgError:
        raise ValueError("singular shrunken covariance; use shrinkage > 0") from None
    params = {
        "means": np.asarray(means),
        "cov_inv": cov_inv,
        "log_priors": np.log(np.asarray(priors)),
    }
    return TrainedModel(kind="LDA", classes=classes, params=params)


def _predict_lda(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    means = model.params["means"]
    cov_inv = model.params["cov_inv"]
    log_priors = model.params["log_priors"]
    # delta_c(x) = x' S^-1 mu_c - 1/2 mu_c' S^-1 mu_c + log pi_c
    proj = X @ cov_inv @ means.T
    const = -0.5 * np.einsum("cp,pq,cq->c", means, cov_inv, means) + log_priors
    scores = proj + const
    idx = np.argmax(scores, axis=1)  # argmax takes the first (lowest class index) on ties
    return np.asarray(model.classes)[idx]


# ---------------------------------------------------------------------------
# KNN


def fit_knn(X: np.ndarray, y: Sequence[int], k: int) -> TrainedModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(X):
        raise ValueError("k exceeds the training set size")
    classes = tuple(sorted(set(y.tolist())))
    params = {"train_X": X.copy(), "train_y": y.copy(), "k": k}
    return TrainedModel(kind="KNN", classes=classes, params=params)


def _predict_knn(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    train_y = model.params["train_y"]
    d2 = ((X[:, None, :] - model.params["train_X"][None, :, :]) ** 2).sum(axis=2)
    # distance ties: training index order
    labels = train_y[np.argsort(d2, axis=1, kind="stable")[:, : model.params["k"]]]
    counts = _ballots(labels, max(model.classes) + 1).sum(axis=1)
    tied = counts == counts.max(axis=1, keepdims=True)
    # the nearest neighbour whose class has the most votes; on a vote tie that
    # is the nearest neighbour among the tied classes
    nearest = np.argmax(np.take_along_axis(tied, labels, axis=1), axis=1)
    return labels[np.arange(len(X)), nearest]


# ---------------------------------------------------------------------------
# AdaBoost with depth-1 stumps, one-vs-rest for multi-class


def _adaboost_error(X: np.ndarray, classes: tuple[int, ...]) -> str | None:
    """Why `fit_adaboost` rejects a problem, or None."""
    if len(classes) < 2:  # so there are at least 2 rows
        return "fit_adaboost: need at least 2 classes"
    if X.shape[1] < 1:
        return "fit_adaboost: need at least 1 feature"
    return None


def fit_adaboost_many(problems: Sequence[tuple[np.ndarray, Sequence[int]]],
                      n_stumps: int) -> list[Callable[[], TrainedModel]]:
    """Discrete AdaBoost on decision stumps for every (X, y) problem, all
    one-vs-rest machines of all problems boosted together round by round.

    Returns, per problem, a function that builds the model
    ``fit_adaboost(X, y, n_stumps)`` returns, or raises its ValueError; a
    problem `fit_adaboost` rejects is not boosted.  A stump (feature,
    threshold, polarity, alpha) predicts polarity * sign(x[feature] -
    threshold), with sign(0) treated as -1.  Each round takes the stump
    `StumpBatch.best` picks among the `presort` candidates.  The rounds are
    deterministic, so the model fitted with fewer stumps is a per-class
    prefix of this one's machines (see `grid_search`)."""
    problems = [(np.asarray(X, dtype=float), np.asarray(y, dtype=int)) for X, y in problems]
    classes = [tuple(sorted(set(y.tolist()))) for _, y in problems]
    errors = [_adaboost_error(X, c) for (X, _), c in zip(problems, classes)]
    boosted = [i for i, e in enumerate(errors) if e is None]
    machines, first = [], {}  # one per class of each boosted problem; a problem's first machine
    for q, i in enumerate(boosted):
        first[i] = len(machines)
        machines += [(q, problems[i][1] == c) for c in classes[i]]
    presorts = [presort(problems[i][0]) for i in boosted]
    stump_sites = {i: (ps.features, ps.thresholds) for i, ps in zip(boosted, presorts)}
    if machines:
        batch = StumpBatch(presorts, machines)
        del presorts, machines  # the batch holds what the rounds need
        kept, candidates, negatives, alphas = boost(batch, n_stumps)
        del batch

    def model(i: int) -> TrainedModel:
        if errors[i] is not None:
            raise ValueError(errors[i])
        features, thresholds = stump_sites[i]
        machines = []
        for b in range(first[i], first[i] + len(classes[i])):
            rounds = slice(kept[b])
            machines.append([(int(features[t]), thresholds[t], -1 if negative else 1, alpha) for t, negative, alpha in
                             zip(candidates[rounds, b].tolist(), negatives[rounds, b].tolist(), alphas[rounds, b])])
        return TrainedModel(kind="AdaBoost", classes=classes[i], params={"machines": machines})

    return [lambda i=i: model(i) for i in range(len(problems))]


def fit_adaboost(X: np.ndarray, y: Sequence[int], n_stumps: int) -> TrainedModel:
    """Discrete AdaBoost on decision stumps; multi-class via one-vs-rest
    margins.  The one problem's case of `fit_adaboost_many`."""
    return fit_adaboost_many([(X, y)], n_stumps)[0]()


def _adaboost_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """One-vs-rest margins, (n_samples, n_classes)."""
    scores = np.zeros((len(X), len(model.classes)))
    for ci, stumps in enumerate(model.params["machines"]):
        if stumps:
            j, thr, polarity, alpha = (np.asarray(v) for v in zip(*stumps))
            outside = j[(j < 0) | (j >= X.shape[1])]
            if outside.size:
                raise ValueError(f"AdaBoost model: input has {X.shape[1]} columns, a stump reads column {outside[0]}")
            terms = alpha * polarity * np.where(X[:, j] > thr, 1.0, -1.0)
            # cumsum adds the stumps one after another, in fit order; sum() would pair them up
            scores[:, ci] = np.cumsum(terms, axis=1)[:, -1]
    return scores


def _predict_adaboost(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    idx = np.argmax(_adaboost_scores(model, X), axis=1)
    return np.asarray(model.classes)[idx]


# ---------------------------------------------------------------------------
# Ensemble


def _ballots(preds, n_classes: int) -> np.ndarray:
    """One-hot votes: ``ballots[..., c]`` is 1 where the prediction is class c."""
    return (np.asarray(preds)[..., None] == np.arange(n_classes)).astype(int)


def plurality_vote(preds: Sequence[np.ndarray], counts: Sequence[int], n_classes: int) -> np.ndarray:
    """Per sample, the class with the most votes when each prediction array
    votes `counts[i]` times.  Votes are integer counts; ties go to the lowest
    class index."""
    return np.argmax(np.tensordot(np.asarray(counts), _ballots(preds, n_classes), axes=1), axis=1)


def _predict_ensemble(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    members: list[tuple[TrainedModel, int]] = model.params["members"]
    n_classes = max({c for m, _ in members for c in m.classes} | set(model.classes)) + 1
    return plurality_vote([m.predict(X) for m, _ in members], [mult for _, mult in members], n_classes)


_WIDTH_PARAMS = {"LDA": "cov_inv", "KNN": "train_X"}  # a param whose last axis is the feature count
_PREDICTORS = {
    "LDA": _predict_lda,
    "KNN": _predict_knn,
    "AdaBoost": _predict_adaboost,
    "Ensemble": _predict_ensemble,
}


def accuracy(model: TrainedModel, X: np.ndarray, y: Sequence[int]) -> float:
    y = np.asarray(y, dtype=int)
    return float(np.mean(model.predict(X) == y))


@dataclass(frozen=True)
class Candidate:
    kind: str
    config: dict
    model: TrainedModel
    val_predictions: np.ndarray  # model.predict on the validation rows
    val_accuracy: float
    order: int  # position in (kind, grid) enumeration; tie-break key


def grid_search(
    X_train: np.ndarray,
    y_train: Sequence[int],
    X_val: np.ndarray,
    y_val: Sequence[int],
    boosted: Callable[[], TrainedModel],
) -> list[Candidate]:
    """Train every GRIDS configuration and rank by validation accuracy.

    `boosted` returns ``fit_adaboost(X_train, y_train, ADABOOST_MAX_STUMPS)``
    (or raises its error); it is called once, when the grid reaches
    AdaBoost, and each AdaBoost configuration takes per-class prefixes of
    that model's machines, which is exact.  Ties rank by model kind order
    (LDA < KNN < AdaBoost), then grid order.  A KNN configuration whose k
    exceeds the training set size is left out.
    """
    if len(np.asarray(X_val)) == 0:
        raise ValueError("grid_search: empty validation set")
    y_val = np.asarray(y_val, dtype=int)
    fits = {"LDA": fit_lda, "KNN": fit_knn}
    full = None
    candidates = []
    for order, (kind, cfg) in enumerate((kind, cfg) for kind in MODEL_KINDS for cfg in GRIDS[kind]):
        # a KNN k above the training set size cannot run: skipped, but it keeps its order number
        if kind == "KNN" and cfg["k"] > len(X_train):
            continue
        if kind == "AdaBoost":
            full = boosted() if full is None else full
            model = dataclasses.replace(full, params={
                "machines": [stumps[: cfg["n_stumps"]] for stumps in full.params["machines"]]})
        else:
            model = fits[kind](X_train, y_train, **cfg)
        pred = model.predict(X_val)
        candidates.append(Candidate(kind=kind, config=cfg, model=model, val_predictions=pred,
                                    val_accuracy=float(np.mean(pred == y_val)), order=order))
    candidates.sort(key=lambda c: (-c.val_accuracy, c.order))
    return candidates


def greedy_ensemble(candidates: Sequence[Candidate], y_val: Sequence[int]) -> TrainedModel:
    """Forward selection with replacement under plurality vote of the
    candidates' validation predictions, up to ENSEMBLE_MAX_SIZE votes.

    Starts from the best single candidate and only accepts additions that
    strictly improve validation accuracy, so the ensemble's validation
    accuracy is never below the best member's.
    """
    if not candidates:
        raise ValueError("greedy_ensemble: no candidates")
    y_val = np.asarray(y_val, dtype=int)
    classes = tuple(sorted({c for cand in candidates for c in cand.model.classes}))

    ballots = _ballots([cand.val_predictions for cand in candidates], max(classes) + 1)
    # the best candidate (highest validation accuracy, earliest order on ties)
    # seeds the ensemble, so its accuracy is the floor
    seed_index = min(range(len(candidates)), key=lambda i: (-candidates[i].val_accuracy, candidates[i].order))
    counts = [0] * len(candidates)
    counts[seed_index] = 1
    votes = ballots[seed_index]

    def hits(votes: np.ndarray) -> np.ndarray:
        """Validation rows a (rows, classes) vote tally gets right under
        plurality (ties to the lowest class index); one count per tally of a stack."""
        return (np.argmax(votes, axis=-1) == y_val).sum(axis=-1)

    best = hits(votes)
    while sum(counts) < ENSEMBLE_MAX_SIZE:
        # every one-vote addition at once; the earliest best one wins, and only on a strict gain
        scores = hits(votes + ballots)
        i = int(np.argmax(scores))
        if scores[i] <= best:
            break
        best, votes = scores[i], votes + ballots[i]
        counts[i] += 1

    members = [(cand.model, mult) for cand, mult in zip(candidates, counts) if mult]
    return TrainedModel(kind="Ensemble", classes=classes, params={"members": members})


# ---------------------------------------------------------------------------
# JSON serialization


def model_to_json(model: TrainedModel, seed: int | None = None) -> str:
    """The `model.json` document: `format_version`, `seed` and the model, each
    model's params as its fit function (or `greedy_ensemble`) names them."""
    def encode(m: TrainedModel) -> dict:
        params = m.params
        if m.kind == "Ensemble":
            params = {"members": [[encode(member), mult] for member, mult in params["members"]]}
        return {"kind": m.kind, "classes": m.classes, "scaler": None if m.scaler is None else vars(m.scaler),
                "params": params}

    root = {"format_version": MODEL_FORMAT_VERSION, "seed": seed, "model": encode(model)}
    # params as fitted: an array, a scaler's too, is written as nested lists
    return json.dumps(root, indent=2, sort_keys=True, default=np.ndarray.tolist)
