"""Classifier, grid-search, ensemble-selection, and serialization tests."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from loadsense import evaluate
from loadsense.core import TaskKind
from loadsense.evaluate import make_split_plan, run_nested_cv
from loadsense.learn import (
    ADABOOST_MAX_STUMPS,
    ENSEMBLE_MAX_SIZE,
    Candidate,
    GRIDS,
    MODEL_KINDS,
    TrainedModel,
    _adaboost_scores,
    accuracy,
    fit_adaboost,
    fit_adaboost_many,
    fit_knn,
    fit_lda,
    fit_scaler,
    greedy_ensemble,
    grid_search,
    model_from_json,
    model_to_json,
    plurality_vote,
)
from loadsense.stumps import _EPS, StumpBatch, _row_sums, presort


def blobs(rng, centers, n_per_class, scale=1.0):
    X, y = [], []
    for label, center in enumerate(centers):
        X.append(rng.normal(0.0, scale, size=(n_per_class, len(center))) + np.asarray(center))
        y.extend([label] * n_per_class)
    return np.vstack(X), np.asarray(y)


class TestScaler:
    def test_constant_column_scales_to_zero(self):
        X = np.asarray([[1.0, 5.0], [1.0, 7.0]])
        scaler = fit_scaler(X)
        assert np.allclose(scaler.transform(X)[:, 0], 0.0)

    def test_two_value_column_hand_computed(self):
        X = np.asarray([[0.0], [2.0]])
        scaled = fit_scaler(X).transform(X)
        assert scaled[:, 0] == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])

    def test_idempotent_statistics(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.0, size=(50, 4))
        once = fit_scaler(X).transform(X)
        second = fit_scaler(once)
        assert np.allclose(second.mean, 0.0, atol=1e-12)
        assert np.allclose(second.std, 1.0, atol=1e-12)

    def test_nan_imputed_with_train_mean(self):
        X = np.asarray([[1.0], [3.0], [np.nan]])
        scaler = fit_scaler(X)
        scaled = scaler.transform(np.asarray([[np.nan]]))
        assert scaled[0, 0] == 0.0  # imputed to the mean, then centered

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler(np.zeros((0, 3)))


class TestLda:
    def test_separable_blobs(self):
        rng = np.random.default_rng(1)
        X, y = blobs(rng, [(-5.0,), (5.0,)], 50, scale=0.1)
        model = fit_lda(X, y, shrinkage=0.1)
        Xt, yt = blobs(rng, [(-5.0,), (5.0,)], 200, scale=0.1)
        assert accuracy(model, Xt, yt) >= 0.99

    def test_no_signal_is_chance(self):
        accs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X, y = blobs(rng, [(0.0, 0.0), (0.0, 0.0)], 100)
            model = fit_lda(X, y, shrinkage=0.3)
            Xt, yt = blobs(rng, [(0.0, 0.0), (0.0, 0.0)], 200)
            accs.append(accuracy(model, Xt, yt))
        assert abs(np.mean(accs) - 0.5) < 0.1

    def test_full_shrinkage_is_nearest_class_mean(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng, [(-1.0, 0.0), (1.0, 0.5), (0.0, -1.0)], 10)
        model = fit_lda(X, y, shrinkage=1.0)
        Xt = rng.normal(size=(100, 2))
        means = np.asarray([X[y == c].mean(axis=0) for c in (0, 1, 2)])
        # equal priors and spherical covariance -> argmin distance to class mean
        d2 = ((Xt[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(model.predict(Xt), np.argmin(d2, axis=1))

    def test_singular_covariance_advises_shrinkage(self):
        X = np.asarray([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.asarray([0, 0, 1, 1])
        with pytest.raises(ValueError, match="shrinkage > 0"):
            fit_lda(X, y, shrinkage=0.0)

    def test_invalid_shrinkage_rejected(self):
        X, y = blobs(np.random.default_rng(0), [(-1.0,), (1.0,)], 5)
        with pytest.raises(ValueError):
            fit_lda(X, y, shrinkage=1.5)

    def test_class_with_one_sample_rejected(self):
        X = np.asarray([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="at least 2 samples"):
            fit_lda(X, np.asarray([0, 0, 1]), shrinkage=0.1)


class TestKnn:
    def test_k1_memorizes_training_set(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], 20)
        model = fit_knn(X, y, k=1)
        assert accuracy(model, X, y) == 1.0

    def test_k_equals_n_predicts_majority(self):
        X = np.asarray([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.asarray([0, 0, 0, 1, 1])
        model = fit_knn(X, y, k=5)
        assert np.all(model.predict(np.asarray([[10.0], [-10.0]])) == 0)

    def test_matches_brute_force_all_pairs(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, [(-1.0, -1.0), (1.0, 1.0), (1.0, -1.0)], 15)
        Xt = rng.normal(size=(50, 2))
        k = 5
        model = fit_knn(X, y, k=k)
        got = model.predict(Xt)
        for i, x in enumerate(Xt):
            d = np.asarray([float(((x - v) ** 2).sum()) for v in X])
            neighbors = np.argsort(d, kind="stable")[:k]
            counts = np.bincount(y[neighbors], minlength=3)
            best = counts.max()
            tied = set(np.flatnonzero(counts == best).tolist())
            if len(tied) == 1:
                expected = tied.pop()
            else:
                expected = next(int(y[idx]) for idx in neighbors if y[idx] in tied)
            assert got[i] == expected

    def test_k_bounds_validated(self):
        X, y = blobs(np.random.default_rng(0), [(-1.0,), (1.0,)], 3)
        with pytest.raises(ValueError):
            fit_knn(X, y, k=0)
        with pytest.raises(ValueError):
            fit_knn(X, y, k=7)


def _reference_predict_knn(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """The per-row vote loop `_predict_knn` ran before its one array pass: the oracle."""
    train_X = model.params["train_X"]
    train_y = model.params["train_y"]
    k = model.params["k"]
    out = np.empty(len(X), dtype=int)
    d2 = ((X[:, None, :] - train_X[None, :, :]) ** 2).sum(axis=2)
    for i in range(len(X)):
        order = np.argsort(d2[i], kind="stable")  # distance ties: training index order
        neighbors = order[:k]
        labels = train_y[neighbors]
        counts = np.bincount(labels, minlength=max(model.classes) + 1)
        best = counts.max()
        tied = set(np.flatnonzero(counts == best).tolist())
        if len(tied) == 1:
            out[i] = next(iter(tied))
        else:
            # vote tie: nearest neighbor among the tied classes decides
            for idx in neighbors:
                if train_y[idx] in tied:
                    out[i] = train_y[idx]
                    break
    return out


class TestKnnPredictOracle:
    def test_matches_the_row_loop_on_tie_heavy_data(self):
        """Integer points on a 3-value grid, so distance ties and vote ties are common."""
        rng = np.random.default_rng(19)
        n_vote_ties = 0
        for _ in range(1000):
            n, p = int(rng.integers(1, 16)), int(rng.integers(1, 3))
            classes = rng.choice(5, size=int(rng.integers(1, 4)), replace=False)
            X = rng.integers(0, 3, size=(n, p)).astype(float)
            y = rng.choice(classes, size=n)
            k = int(rng.integers(1, n + 1))
            Xt = rng.integers(0, 3, size=(int(rng.integers(0, 10)), p)).astype(float)
            model = fit_knn(X, y, k=k)
            expected = _reference_predict_knn(model, Xt)
            got = model.predict(Xt)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
            for x in Xt:
                counts = np.bincount(y[np.argsort(((X - x) ** 2).sum(axis=1), kind="stable")[:k]])
                n_vote_ties += int((counts == counts.max()).sum() > 1)
        assert n_vote_ties > 400  # the comparison covers many vote ties


class TestAdaBoost:
    def test_threshold_separable_1d(self):
        X = np.asarray([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        y = np.asarray([0, 0, 0, 1, 1, 1])
        model = fit_adaboost(X, y, n_stumps=3)
        assert accuracy(model, X, y) == 1.0

    def test_no_signal_is_chance(self):
        accs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(60, 2))
            y = rng.integers(0, 2, size=60)
            model = fit_adaboost(X, y, n_stumps=10)
            Xt = rng.normal(size=(300, 2))
            yt = rng.integers(0, 2, size=300)
            accs.append(accuracy(model, Xt, yt))
        assert abs(np.mean(accs) - 0.5) < 0.1

    def test_duplicating_training_points_gives_identical_model(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, [(-1.0, 0.5), (1.0, -0.5)], 12)
        a = fit_adaboost(X, y, n_stumps=20)
        b = fit_adaboost(np.vstack([X, X]), np.concatenate([y, y]), n_stumps=20)
        assert len(a.params["machines"]) == len(b.params["machines"])
        for stumps_a, stumps_b in zip(a.params["machines"], b.params["machines"]):
            assert len(stumps_a) == len(stumps_b)
            for (ja, ta, pa, aa), (jb, tb, pb, ab) in zip(stumps_a, stumps_b):
                assert (ja, pa) == (jb, pb)
                assert ta == pytest.approx(tb, abs=1e-12)
                assert aa == pytest.approx(ab, abs=1e-9)  # weight sums round differently

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(6)
        X, y = blobs(rng, [(-3.0,), (0.0,), (3.0,)], 30, scale=0.3)
        model = fit_adaboost(X, y, n_stumps=30)
        assert accuracy(model, X, y) >= 0.95


def _reference_fit_stump(X: np.ndarray, target: np.ndarray, w: np.ndarray):
    """The per-threshold stump search the presorted one replaced: the oracle."""
    n, p = X.shape
    best = None
    for j in range(p):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        # candidate thresholds: below the minimum, then midpoints of distinct values
        thresholds = [sorted_col[0] - 1.0]
        for a, b in zip(sorted_col, sorted_col[1:]):
            if b > a:
                thresholds.append(0.5 * (a + b))
        for thr in thresholds:
            pred = np.where(col > thr, 1.0, -1.0)
            err_pos = float(w[pred != target].sum())
            for polarity, err in ((1, err_pos), (-1, 1.0 - err_pos)):
                if best is None or err < best[0] - 1e-15:
                    best = (err, j, thr, polarity)
    return best


def _reference_best_stump(mismatch: np.ndarray, w: np.ndarray) -> tuple[float, int, int]:
    """The one-machine stump search the batched round replaced, an oracle:
    (err, candidate, polarity) of the best stump, with `mismatch` (T, n) True
    where a candidate with polarity +1 mispredicts a row.  Its cluster comes
    from one matrix product of approximate errors; only members are summed
    exactly, in candidate order under the 1e-15 chain."""
    err_pos = mismatch @ w
    approx = np.empty(2 * len(err_pos))
    approx[0::2] = err_pos
    approx[1::2] = 1.0 - err_pos
    slack = 8.0 * (len(w) + 2) * _EPS * max(float(w.sum()), 1.0)
    gap = 1e-15 + 2.0 * slack
    cut = approx.min()
    while (top := approx[approx <= cut + gap].max()) > cut:
        cut = top

    best = None
    for k in (approx <= cut).nonzero()[0].tolist():
        t, negative = divmod(k, 2)
        err = float(w[mismatch[t]].sum())
        if negative:
            err = 1.0 - err
        if best is None or err < best[0] - 1e-15:
            best = (err, t, -1 if negative else 1)
    return best


def _reference_boost(X: np.ndarray, y: np.ndarray, n_stumps: int) -> list:
    """The one-machine-at-a-time boosting loop the batch replaced, on
    `_reference_best_stump`: the machines, an oracle."""
    candidates = presort(X)
    machines = []
    for c in sorted(set(y.tolist())):
        mismatch = candidates.above != (y == c)
        wrong = np.where(mismatch, 1.0, -1.0)
        w = np.full(len(X), 1.0 / len(X))
        stumps = []
        for _ in range(n_stumps):
            err, t, polarity = _reference_best_stump(mismatch, w)
            if err >= 0.5:
                break
            err = min(max(err, 1e-10), 1.0 - 1e-10)
            alpha = 0.5 * np.log((1.0 - err) / err)
            w = w * np.exp(polarity * alpha * wrong[t])
            w /= w.sum()
            stumps.append((int(candidates.features[t]), candidates.thresholds[t], polarity, alpha))
        machines.append(stumps)
    return machines


def _fit_stumps(problems) -> list:
    """One batched round over (X, target, w) problems, one machine each: per
    problem (err, feature, threshold, polarity), the form the oracle returns."""
    presorts = [presort(X) for X, _, _ in problems]
    batch = StumpBatch(presorts, [(q, target > 0) for q, (_, target, _) in enumerate(problems)])
    w = np.zeros(batch.target.shape)
    for b, (_, _, wb) in enumerate(problems):
        w[b, :len(wb)] = wb
    err, t, negative, _ = batch.best(w)
    return [(float(e), int(ps.features[k]), ps.thresholds[k], -1 if neg else 1)
            for e, k, neg, ps in zip(err, t.tolist(), negative, presorts)]


def _fit_stump(X: np.ndarray, target: np.ndarray, w: np.ndarray):
    """The batched round with one machine."""
    return _fit_stumps([(X, target, w)])[0]


def _reference_adaboost_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """The stump-by-stump margin loop the stacked one replaced: the oracle."""
    scores = np.zeros((len(X), len(model.classes)))
    for ci, stumps in enumerate(model.params["machines"]):
        for j, thr, polarity, alpha in stumps:
            scores[:, ci] += alpha * polarity * np.where(X[:, j] > thr, 1.0, -1.0)
    return scores


def random_stump_problem(rng, trial):
    """Seeded stump-search input: n in 2-40, p in 1-8, with rounded duplicates,
    constant columns, an all-zero X, and uniform or random weights."""
    n = int(rng.integers(2, 41))
    p = int(rng.integers(1, 9))
    X = rng.normal(size=(n, p))
    shape = trial % 5
    if shape == 1:
        X = np.round(X, 1)
    elif shape == 2:
        X[:, int(rng.integers(0, p))] = 3.0
    elif shape == 3:
        X = np.zeros((n, p))
    elif shape == 4:
        X = np.round(X * 2.0) / 2.0
    target = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if trial % 2:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.random(n)
        w /= w.sum()
    return X, target, w


def _same_stump(got, want) -> bool:
    """Equal (err, feature, threshold, polarity); a NaN threshold (an
    all-NaN column) never equals itself, so two NaNs count as equal."""
    return got[:2] + got[3:] == want[:2] + want[3:] and (
        got[2] == want[2] or (math.isnan(got[2]) and math.isnan(want[2])))


def _check_one_and_batched(problems):
    """Each (X, target, w) problem's stump, searched alone and in batches of
    8 problems of different sizes, equals the oracle's."""
    wants = [_reference_fit_stump(*problem) for problem in problems]
    for trial, (problem, want) in enumerate(zip(problems, wants)):
        assert _same_stump(_fit_stump(*problem), want), trial
    for first in range(0, len(problems), 8):
        for trial, got in enumerate(_fit_stumps(problems[first:first + 8]), first):
            assert _same_stump(got, wants[trial]), trial


class TestStumpSearchOracle:
    def test_matches_reference_on_random_problems(self):
        rng = np.random.default_rng(2024)
        _check_one_and_batched([random_stump_problem(rng, trial) for trial in range(1200)])

    def test_matches_reference_with_non_finite_values(self):
        rng = np.random.default_rng(2025)
        problems = []
        for trial in range(200):
            X, target, w = random_stump_problem(rng, trial)
            X[rng.random(X.shape) < 0.1] = np.nan
            X[rng.random(X.shape) < 0.05] = np.inf
            X[rng.random(X.shape) < 0.05] = -np.inf
            problems.append((X, target, w))
        _check_one_and_batched(problems)

    def test_matches_reference_with_unnormalized_weights(self):
        """Weights summing to up to 1e6: the approximate errors stray far
        more than 1e-15, so the slack and the cluster's growth decide."""
        rng = np.random.default_rng(2032)
        problems = []
        for trial in range(400):
            X, target, w = random_stump_problem(rng, trial)
            problems.append((X, target, w * 10.0 ** rng.uniform(0.0, 6.0)))
        _check_one_and_batched(problems)

    def test_boosted_weights_match_reference(self):
        """Whole boosting runs: each round's stump depends on every earlier one."""
        rng = np.random.default_rng(2026)
        for trial in range(30):
            X, y = blobs(rng, [(-0.5, 0.0, 0.3), (0.5, 0.2, -0.3), (0.0, -0.4, 0.0)], 6)
            X = np.round(X, 1)
            target = np.where(y == trial % 3, 1.0, -1.0)
            w = np.full(len(X), 1.0 / len(X))
            for _ in range(40):
                got = _fit_stump(X, target, w)
                assert got == _reference_fit_stump(X, target, w)
                err, j, thr, polarity = got
                if err >= 0.5:
                    break
                err = min(max(err, 1e-10), 1.0 - 1e-10)
                alpha = 0.5 * np.log((1.0 - err) / err)
                w = w * np.exp(-alpha * target * polarity * np.where(X[:, j] > thr, 1.0, -1.0))
                w /= w.sum()


def _reference_fit_adaboost(X: np.ndarray, y: np.ndarray, n_stumps: int) -> list:
    """The boosting loop on the per-threshold oracle: each round's stump from
    `_reference_fit_stump`, predictions recomputed from X."""
    machines = []
    for c in sorted(set(y.tolist())):
        target = np.where(y == c, 1.0, -1.0)
        w = np.full(len(X), 1.0 / len(X))
        stumps = []
        for _ in range(n_stumps):
            err, j, thr, polarity = _reference_fit_stump(X, target, w)
            if err >= 0.5:
                break
            err = min(max(err, 1e-10), 1.0 - 1e-10)
            alpha = 0.5 * np.log((1.0 - err) / err)
            pred = polarity * np.where(X[:, j] > thr, 1.0, -1.0)
            w = w * np.exp(-alpha * target * pred)
            w /= w.sum()
            stumps.append((j, thr, polarity, alpha))
        machines.append(stumps)
    return machines


def tie_heavy_problem(rng, trial):
    """Seeded boosting input: n in 2-40, p in 1-5, 2 or 3 classes, integer
    features; some trials duplicate a column, add NaN and +-inf cells, or
    mix in rounded real values."""
    n = int(rng.integers(2, 41))
    p = int(rng.integers(1, 6))
    n_classes = 2 if n < 3 or trial % 2 else 3
    X = rng.integers(-2, 3, size=(n, p)).astype(float)
    if trial % 4 == 1:
        X[:, -1] = X[:, 0]
    if trial % 3 == 2:
        X[rng.random(X.shape) < 0.1] = np.nan
        X[rng.random(X.shape) < 0.05] = np.inf
        X[rng.random(X.shape) < 0.05] = -np.inf
    if trial % 5 == 4:
        X[:, 0] = np.round(rng.normal(size=n), 1)
    y = rng.integers(0, n_classes, size=n)
    y[:n_classes] = np.arange(n_classes)  # every class present
    return X, y


class TestAdaBoostModelOracle:
    def test_fit_matches_reference_loop_on_tie_heavy_problems(self):
        rng = np.random.default_rng(2027)
        for trial in range(150):
            X, y = tie_heavy_problem(rng, trial)
            n_stumps = int(rng.integers(1, 26))
            model = fit_adaboost(X, y, n_stumps=n_stumps)
            # json writes every float by repr, NaN included: equal text is equal bits
            assert json.dumps(model.params["machines"]) == json.dumps(_reference_fit_adaboost(X, y, n_stumps)), trial

    def test_cluster_chain_keeps_the_sequential_choice(self):
        """Three candidates 1.5e-15 and 0.6e-15 apart: the sequential chain
        takes the second (it beats the first by more than 1e-15), and the
        third, the smallest error, never beats the second by more than 1e-15."""
        X = np.asarray([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        target = np.asarray([-1.0, -1.0, -1.0, 1.0])
        w = np.asarray([0.1, 0.1 + 1.5e-15, 0.1 + 2.1e-15, 0.7 - 3.6e-15])
        # feature j, threshold 0.5, polarity -1 errs on the other two of rows 0-2
        errs = [1.0 - float(w[[j, 3]].sum()) for j in range(3)]
        assert errs[0] - 1e-15 > errs[1] and errs[1] - 1e-15 < errs[2] < errs[1]
        want = _reference_fit_stump(X, target, w)
        assert want == (errs[1], 1, 0.5, -1)
        assert _fit_stump(X, target, w) == want
        # the same machine between others in one batch
        rng = np.random.default_rng(2028)
        others = [random_stump_problem(rng, trial) for trial in range(6)]
        assert _fit_stumps(others[:3] + [(X, target, w)] + others[3:])[3] == want


class TestAdaBoostBatch:
    def _mixed_problems(self):
        """Tie-heavy problems whose n, p and class count vary within the
        batch, with the early-stop problem (machines of 1 and 3 stumps) among them."""
        rng = np.random.default_rng(2029)
        problems = [tie_heavy_problem(rng, trial) for trial in range(40)]
        return problems[:20] + [(EARLY_STOP_X, EARLY_STOP_Y)] + problems[20:]

    def test_batch_matches_the_reference_loop(self):
        problems = self._mixed_problems()
        assert len({(X.shape, len(set(y.tolist()))) for X, y in problems}) > 20
        models = [build() for build in fit_adaboost_many(problems, 25)]
        assert [len(m) for m in models[20].params["machines"]] == [1, 3]
        for trial, ((X, y), model) in enumerate(zip(problems, models)):
            # json writes every float by repr, NaN included: equal text is equal bits
            assert json.dumps(model.params["machines"]) == json.dumps(_reference_fit_adaboost(X, y, 25)), trial
            assert model.classes == tuple(sorted(set(y.tolist())))

    def test_batch_equals_fitting_each_problem_alone(self):
        problems = self._mixed_problems()
        for trial, ((X, y), build) in enumerate(zip(problems, fit_adaboost_many(problems, 30))):
            model, alone = build(), fit_adaboost(X, y, 30)
            assert model == alone and repr(model.params) == repr(alone.params), trial

    def test_rejected_problem_raises_only_when_built(self):
        X, y = blobs(np.random.default_rng(20), [(-1.0,), (1.0,)], 5)
        builders = fit_adaboost_many([(X, y), (X, np.zeros(len(X), dtype=int)), (X[:1], y[:1]), (X[:, :0], y)], 10)
        assert builders[0]() == fit_adaboost(X, y, 10)
        for rejected in builders[1:3]:
            with pytest.raises(ValueError, match="^fit_adaboost: need at least 2 classes$"):
                rejected()
        with pytest.raises(ValueError, match="^fit_adaboost: need at least 1 feature$"):
            builders[3]()

    def test_nested_cv_problems_match_the_sequential_loop(self, monkeypatch):
        """Every problem the three reports' nested CVs boost (seed 7, 10
        participants: 75), against the one-machine-at-a-time loop."""
        from test_evaluate import ten_participant_rows

        rows = ten_participant_rows()
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=7)
        batches = []

        def recording(problems, n_stumps):
            batches.append((problems, n_stumps))
            return fit_adaboost_many(problems, n_stumps)

        monkeypatch.setattr(evaluate, "fit_adaboost_many", recording)
        for task, scheme in ((TaskKind.NBACK, "multi"), (TaskKind.NBACK, "binary"), (TaskKind.VISUAL_SEARCH, "multi")):
            run_nested_cv(rows, task, scheme, plan)
        assert [(len(problems), n_stumps) for problems, n_stumps in batches] == [(25, ADABOOST_MAX_STUMPS)] * 3
        for problems, n_stumps in batches:
            for (X, y), build in zip(problems, fit_adaboost_many(problems, n_stumps)):
                assert repr(build().params["machines"]) == repr(_reference_boost(X, y, n_stumps))


class TestSummationOrder:
    """`_row_sums` must add exactly as ``ndarray.sum`` does, or the exact
    stump errors and the weight normalization shift in their last bits; a
    numpy whose summation order differs fails here by name."""

    def test_reduceat_segments_match_masked_sums(self):
        rng = np.random.default_rng(2030)
        for length in range(1, 201):
            values = rng.random((6, length)) * rng.choice([1e-3, 1.0, 1e3], size=(6, 1))
            mask = rng.random((6, length)) < rng.random((6, 1))
            want = [float(v[m].sum()) for v, m in zip(values, mask)]
            # the form itself: each segment a 0.0 slot, then the selected values
            segments = [np.concatenate([[0.0], v[m]]) for v, m in zip(values, mask)]
            sizes = np.asarray([len(seg) for seg in segments])
            assert np.add.reduceat(np.concatenate(segments), np.cumsum(sizes) - sizes).tolist() == want, length
            assert _row_sums(values, mask).tolist() == want, length

    def test_normalization_sums_match_whole_row_sums(self):
        rng = np.random.default_rng(2031)
        n = rng.integers(1, 201, size=300)
        w = np.where(np.arange(200) < n[:, None], rng.random((300, 200)) * 0.01, 0.0)
        want = [float(row[:k].sum()) for row, k in zip(w, n)]
        assert _row_sums(w, np.arange(200) < n[:, None]).tolist() == want


class TestAdaBoostPredictOracle:
    def test_scores_and_predictions_match_the_loop(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            X, y = blobs(rng, [(-1.0, 0.0), (1.0, 0.5), (0.0, -1.0)], 8)
            model = fit_adaboost(X, y, n_stumps=int(rng.integers(1, 60)))
            Xt = rng.normal(size=(25, 2))
            reference = _reference_adaboost_scores(model, Xt)
            assert np.array_equal(_adaboost_scores(model, Xt), reference)
            assert np.array_equal(model.predict(Xt), np.asarray(model.classes)[np.argmax(reference, axis=1)])

    def test_empty_machine_scores_zero(self):
        X = np.zeros((4, 1))
        y = np.asarray([0, 1, 0, 1])
        model = fit_adaboost(X, y, n_stumps=10)  # every stump errs 0.5: no stump kept
        assert model.params["machines"] == [[], []]
        assert np.array_equal(_adaboost_scores(model, X), np.zeros((4, 2)))


# one feature with conflicting duplicates: the machines stop on err >= 0.5
# after 1 and 3 stumps
EARLY_STOP_X = np.asarray([[2.0], [0.0], [2.0], [1.0], [1.0], [1.0], [0.0], [2.0], [0.0]])
EARLY_STOP_Y = np.asarray([0, 1, 1, 1, 0, 0, 0, 0, 0])


def _boosted(X, y):
    """The `boosted` argument of `grid_search`: the AdaBoost model at the grid's largest size."""
    return lambda: fit_adaboost(X, y, ADABOOST_MAX_STUMPS)


class TestGridSearch:
    def test_separable_data_reaches_perfect_validation(self):
        rng = np.random.default_rng(8)
        X, y = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], 30, scale=0.1)
        Xv, yv = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], 30, scale=0.1)
        candidates = grid_search(X, y, Xv, yv, _boosted(X, y))
        assert candidates[0].val_accuracy == 1.0

    def test_tie_breaks_by_kind_then_grid_order(self):
        rng = np.random.default_rng(9)
        X, y = blobs(rng, [(-5.0,), (5.0,)], 20, scale=0.1)
        candidates = grid_search(X, y, X, y, _boosted(X, y))
        perfect = [c for c in candidates if c.val_accuracy == candidates[0].val_accuracy]
        orders = [c.order for c in perfect]
        assert orders == sorted(orders)
        assert candidates[0].kind == "LDA" and candidates[0].config == {"shrinkage": 0.01}

    def test_empty_validation_rejected(self):
        X, y = blobs(np.random.default_rng(0), [(-1.0,), (1.0,)], 5)
        with pytest.raises(ValueError, match="empty validation"):
            grid_search(X, y, np.zeros((0, 1)), [], _boosted(X, y))

    def test_all_kinds_present_with_default_grids(self):
        rng = np.random.default_rng(10)
        X, y = blobs(rng, [(-1.0,), (1.0,)], 10)
        kinds = {c.kind for c in grid_search(X, y, X, y, _boosted(X, y))}
        assert kinds == set(MODEL_KINDS)
        assert len(grid_search(X, y, X, y, _boosted(X, y))) == sum(len(g) for g in GRIDS.values())


    @pytest.mark.parametrize("case", ["blobs", "early_stop"])
    def test_adaboost_candidates_equal_separate_fits(self, case):
        if case == "blobs":
            X, y = blobs(np.random.default_rng(18), [(-1.0, 0.0), (1.0, 0.5), (0.0, -1.0)], 7)
        else:
            X, y = EARLY_STOP_X, EARLY_STOP_Y
            assert [len(m) for m in fit_adaboost(X, y, n_stumps=100).params["machines"]] == [1, 3]
        candidates = grid_search(X, y, X, y, _boosted(X, y))
        boosted = {c.config["n_stumps"]: c.model for c in candidates if c.kind == "AdaBoost"}
        assert sorted(boosted) == [25, 50, 100]
        for n_stumps, model in boosted.items():
            assert model == fit_adaboost(X, y, n_stumps=n_stumps)

    def test_knn_configs_above_training_size_are_skipped(self):
        rng = np.random.default_rng(19)
        X, y = blobs(rng, [(-1.0,), (1.0,)], 4)  # 8 training rows: k = 9 cannot run
        candidates = grid_search(X, y, X, y, _boosted(X, y))
        knn = sorted((c.order, c.config["k"]) for c in candidates if c.kind == "KNN")
        assert knn == [(4, 1), (5, 3), (6, 5), (7, 7)]
        assert sorted(c.order for c in candidates if c.kind == "AdaBoost") == [9, 10, 11]
        assert len(candidates) == sum(len(g) for g in GRIDS.values()) - 1


def fixed_candidate(preds_on_val, X_val, kind="KNN", order=0, y_val=None):
    """Candidate whose validation predictions are forced via a k=1 lookup table."""
    model = fit_knn(X_val, preds_on_val, k=1)
    val_acc = float(np.mean(np.asarray(preds_on_val) == np.asarray(y_val)))
    return Candidate(kind=kind, config={"k": 1}, model=model, val_predictions=model.predict(X_val),
                     val_accuracy=val_acc, order=order)


class TestGreedyEnsemble:
    def test_single_candidate_is_returned_as_is(self):
        X_val = np.arange(6, dtype=float)[:, None]
        y_val = np.asarray([0, 0, 0, 1, 1, 1])
        cand = fixed_candidate(y_val, X_val, y_val=y_val)
        ensemble = greedy_ensemble([cand], y_val)
        assert ensemble.params["members"] == [(cand.model, 1)]

    def test_perfect_plus_random_keeps_perfect_accuracy(self):
        X_val = np.arange(10, dtype=float)[:, None]
        y_val = np.asarray([0, 1] * 5)
        perfect = fixed_candidate(y_val, X_val, order=0, y_val=y_val)
        noisy = fixed_candidate(1 - y_val, X_val, order=1, y_val=y_val)
        ensemble = greedy_ensemble([perfect, noisy], y_val)
        assert accuracy(ensemble, X_val, y_val) == 1.0

    def test_complementary_members_beat_best_single(self):
        X_val = np.arange(6, dtype=float)[:, None]
        y_val = np.asarray([0, 0, 0, 1, 1, 1])
        # three members, each wrong on a different single example
        preds = [
            np.asarray([1, 0, 0, 1, 1, 1]),
            np.asarray([0, 1, 0, 1, 1, 1]),
            np.asarray([0, 0, 1, 1, 1, 1]),
        ]
        candidates = [fixed_candidate(p, X_val, order=i, y_val=y_val) for i, p in enumerate(preds)]
        ensemble = greedy_ensemble(candidates, y_val)
        best_single = max(c.val_accuracy for c in candidates)
        assert accuracy(ensemble, X_val, y_val) == 1.0 > best_single

    def test_validation_accuracy_never_below_best_member(self):
        rng = np.random.default_rng(11)
        X_val = rng.normal(size=(30, 1))
        y_val = rng.integers(0, 3, size=30)
        for trial in range(20):
            candidates = [
                fixed_candidate(rng.integers(0, 3, size=30), X_val, order=i, y_val=y_val)
                for i in range(4)
            ]
            ensemble = greedy_ensemble(candidates, y_val)
            assert accuracy(ensemble, X_val, y_val) >= max(c.val_accuracy for c in candidates)

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            greedy_ensemble([], [0])


def _reference_ensemble_counts(candidates, y_val) -> list[int]:
    """Each candidate's votes in `greedy_ensemble`'s selection, by the loop over
    one-vote additions (scored by float accuracy) that it ran before the array
    pass: the oracle."""
    y_val = np.asarray(y_val, dtype=int)
    classes = tuple(sorted({c for cand in candidates for c in cand.model.classes}))
    preds = [cand.val_predictions for cand in candidates]
    seed_index = min(range(len(candidates)), key=lambda i: (-candidates[i].val_accuracy, candidates[i].order))
    counts = [0] * len(candidates)
    counts[seed_index] = 1

    def vote_accuracy(cnts) -> float:
        return float(np.mean(_reference_vote(preds, cnts, classes) == y_val))

    best_acc = vote_accuracy(counts)
    while sum(counts) < ENSEMBLE_MAX_SIZE:
        best_gain = None
        for i in range(len(candidates)):
            counts[i] += 1
            acc = vote_accuracy(counts)
            counts[i] -= 1
            if acc > best_acc and (best_gain is None or acc > best_gain[0]):
                best_gain = (acc, i)
        if best_gain is None:
            break
        best_acc, i = best_gain
        counts[i] += 1
    return counts


class TestGreedyEnsembleOracle:
    def test_matches_the_addition_loop_on_tie_heavy_ballots(self):
        """Two or three classes and up to 24 candidates, each right on about
        half of up to 60 validation rows, so accuracy ties between additions
        and vote ties within a row are common."""
        rng = np.random.default_rng(29)
        sizes = []
        for _ in range(600):
            n_val, n_cands = int(rng.integers(2, 61)), int(rng.integers(1, 25))
            labels = rng.choice(5, size=int(rng.integers(2, 4)), replace=False)
            X_val = np.arange(n_val, dtype=float)[:, None]
            y_val = rng.choice(labels, size=n_val)
            preds = [np.where(rng.random(n_val) < 0.5, y_val, rng.choice(labels, size=n_val)) for _ in range(n_cands)]
            candidates = [fixed_candidate(pred, X_val, order=int(order), y_val=y_val)
                          for pred, order in zip(preds, rng.permutation(n_cands))]
            ensemble = greedy_ensemble(candidates, y_val)
            votes = {id(model): mult for model, mult in ensemble.params["members"]}
            counts = [votes.get(id(cand.model), 0) for cand in candidates]
            assert counts == _reference_ensemble_counts(candidates, y_val)
            sizes.append(sum(counts))
        assert sum(size > 2 for size in sizes) > 100  # many runs accept several additions


def _reference_vote(preds, counts, classes):
    """The float vote loop that `_predict_ensemble` and `greedy_ensemble` each
    carried before `plurality_vote`: the oracle for the shared vote."""
    votes = np.zeros((len(preds[0]), max(classes) + 1))
    for pred, mult in zip(preds, counts):
        if mult:
            for c in classes:
                votes[:, c] += mult * (pred == c)
    return np.argmax(votes, axis=1)


class TestPluralityVote:
    def test_matches_the_old_vote_loop(self):
        rng = np.random.default_rng(17)
        n_tied_rows = 0
        for _ in range(600):
            n_classes = int(rng.integers(2, 5))
            # labels drawn from a wider range, so some class indices have no voter
            classes = tuple(sorted(rng.choice(n_classes + 2, size=n_classes, replace=False).tolist()))
            n_members = int(rng.integers(1, 8))
            n = int(rng.integers(1, 25))
            preds = [rng.choice(classes, size=n) for _ in range(n_members)]
            counts = rng.integers(0, 4, size=n_members)
            counts[rng.integers(n_members)] += 1
            got = plurality_vote(preds, counts.tolist(), max(classes) + 1)
            np.testing.assert_array_equal(got, _reference_vote(preds, counts, classes))
            votes = np.zeros((n, max(classes) + 1), dtype=int)
            for pred, count in zip(preds, counts):
                votes[np.arange(n), pred] += count
            n_tied_rows += int(np.sum((votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1))
        assert n_tied_rows > 500  # the comparison covers many ties

    def test_ties_go_to_the_lowest_class_index(self):
        preds = [np.asarray([2, 1, 0]), np.asarray([1, 2, 2])]
        assert plurality_vote(preds, [1, 1], 3).tolist() == [1, 1, 0]

    def test_multiplicity_counts_as_repeated_votes(self):
        preds = [np.asarray([0, 1]), np.asarray([2, 2]), np.asarray([1, 0])]
        assert plurality_vote(preds, [1, 1, 1], 3).tolist() == [0, 0]  # three-way ties
        assert plurality_vote(preds, [1, 1, 2], 3).tolist() == [1, 0]


class TestDeterminismAndScaling:
    def test_prediction_invariant_to_feature_scaling_with_scaler(self):
        rng = np.random.default_rng(12)
        X, y = blobs(rng, [(-1.0, 2.0), (1.0, -2.0)], 25)
        Xt = rng.normal(size=(40, 2))
        for fit in (
            lambda X_, y_, s: dataclasses.replace(fit_lda(X_, y_, shrinkage=0.1), scaler=s),
            lambda X_, y_, s: dataclasses.replace(fit_knn(X_, y_, k=3), scaler=s),
            lambda X_, y_, s: dataclasses.replace(fit_adaboost(X_, y_, n_stumps=15), scaler=s),
        ):
            scaler = fit_scaler(X)
            base = fit(scaler.transform(X), y, scaler).predict(Xt)
            X10 = X * 10.0
            scaler10 = fit_scaler(X10)
            scaled = fit(scaler10.transform(X10), y, scaler10).predict(Xt * 10.0)
            assert np.array_equal(base, scaled)

    def test_repeat_prediction_is_identical(self):
        rng = np.random.default_rng(13)
        X, y = blobs(rng, [(-1.0,), (0.0,), (1.0,)], 20)
        Xt = rng.normal(size=(50, 1))
        model = fit_adaboost(X, y, n_stumps=25)
        assert np.array_equal(model.predict(Xt), model.predict(Xt))


def _scaled_model(kind: str, rng=None) -> TrainedModel:
    """A fitted model of `kind` with its scaler attached, on three 2-D blobs."""
    rng = rng or np.random.default_rng(14)
    X, y = blobs(rng, [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.5)], 15)
    scaler = fit_scaler(X)
    Xs = scaler.transform(X)
    fitters = {
        "LDA": lambda: fit_lda(Xs, y, shrinkage=0.1),
        "KNN": lambda: fit_knn(Xs, y, k=3),
        "AdaBoost": lambda: fit_adaboost(Xs, y, n_stumps=10),
    }
    return dataclasses.replace(fitters[kind](), scaler=scaler)


def _unscaled_document(kind: str) -> dict:
    """The `model` object of a `_scaled_model` document with its scaler left out."""
    return json.loads(model_to_json(dataclasses.replace(_scaled_model(kind), scaler=None)))["model"]


def _ensemble(rng=None) -> TrainedModel:
    rng = rng or np.random.default_rng(15)
    X, y = blobs(rng, [(-2.0,), (2.0,)], 20)
    return greedy_ensemble(grid_search(X, y, X, y, _boosted(X, y)), y)


def _assert_same(restored, fitted):
    """Equal values held in the same way: a model field by field, an array
    as an array of the same dtype, an int as an int, a float as a float."""
    if isinstance(fitted, TrainedModel):
        assert (restored.kind, restored.classes) == (fitted.kind, fitted.classes)
        _assert_same(restored.scaler and vars(restored.scaler), fitted.scaler and vars(fitted.scaler))
        _assert_same(restored.params, fitted.params)
    elif isinstance(fitted, dict):
        assert type(restored) is dict and restored.keys() == fitted.keys()
        for name in fitted:
            _assert_same(restored[name], fitted[name])
    elif isinstance(fitted, (list, tuple)):
        assert type(restored) is type(fitted) and len(restored) == len(fitted)
        for r, f in zip(restored, fitted):
            _assert_same(r, f)
    elif isinstance(fitted, np.ndarray):
        assert isinstance(restored, np.ndarray) and restored.dtype == fitted.dtype
        assert np.array_equal(restored, fitted)
    else:
        assert isinstance(restored, float if isinstance(fitted, float) else type(fitted)) and restored == fitted


class TestSerialization:
    @pytest.mark.parametrize("kind", ["LDA", "KNN", "AdaBoost"])
    def test_round_trip_preserves_predictions(self, kind):
        rng = np.random.default_rng(14)
        model = _scaled_model(kind, rng)
        restored = model_from_json(model_to_json(model, seed=7))
        Xt = rng.normal(size=(30, 2))
        assert np.array_equal(model.predict(Xt), restored.predict(Xt))

    def test_ensemble_round_trip(self):
        rng = np.random.default_rng(15)
        ensemble = _ensemble(rng)
        restored = model_from_json(model_to_json(ensemble))
        Xt = rng.normal(size=(40, 1))
        assert np.array_equal(ensemble.predict(Xt), restored.predict(Xt))

    @pytest.mark.parametrize("kind", ["LDA", "KNN", "AdaBoost", "Ensemble"])
    def test_decoded_model_is_the_fitted_model(self, kind):
        model = _ensemble() if kind == "Ensemble" else _scaled_model(kind)
        _assert_same(model_from_json(model_to_json(model, seed=7)), model)

    @pytest.mark.parametrize("kind", ["LDA", "KNN", "AdaBoost", "Ensemble"])
    def test_encoding_a_decoded_model_gives_the_same_text(self, kind):
        text = model_to_json(_ensemble() if kind == "Ensemble" else _scaled_model(kind), seed=7)
        assert model_to_json(model_from_json(text), seed=7) == text

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(kind="SVM"), "unknown model kind 'SVM'"),
        (lambda doc: doc["params"].pop("k"), r"^KNN model: params \['train_X', 'train_y'\]"),
        (lambda doc: doc["params"].update(weights=[1.0]), r"^KNN model: params \['k', 'train_X', 'train_y', 'weights'\]"),
    ], ids=["unknown_kind", "missing_param", "extra_param"])
    def test_malformed_model_is_rejected_naming_its_kind(self, edit, message):
        root = json.loads(model_to_json(_scaled_model("KNN")))
        edit(root["model"])
        with pytest.raises(ValueError, match=message):
            model_from_json(json.dumps(root))

    @pytest.mark.parametrize("edit, message", [
        (lambda root: root["model"]["params"].update(k="3"), r"^KNN model: field 'k' is '3', not an int in \[1, 45\]"),
        (lambda root: root["model"]["params"].update(k=0), r"^KNN model: field 'k' is 0,"),
        (lambda root: root["model"]["params"].update(k=99), r"^KNN model: field 'k' is 99,"),
        (lambda root: root["model"]["params"].update(k=True), r"^KNN model: field 'k' is True,"),
        (lambda root: root["model"].pop("scaler"), r"^KNN model: fields \['classes', 'kind', 'params'\], expected"),
        (lambda root: root["model"].pop("classes"), r"^KNN model: fields \['kind', 'params', 'scaler'\], expected"),
        (lambda root: root["model"].update(classes=[0, "1", 2]), r"^KNN model: field 'classes' is \[0, '1', 2\],"),
        (lambda root: root["model"].update(classes=[0, True, 2]), r"^KNN model: field 'classes' is \[0, True, 2\],"),
        (lambda root: root["model"].update(params=[]), r"^KNN model: params \[\], expected"),
        (lambda root: root["model"].update(kind=["KNN"]), r"^field 'kind': unknown model kind \['KNN'\]"),
        (lambda root: root["model"].pop("kind"), r"^field 'kind': unknown model kind None"),
        (lambda root: root.pop("model"), r"^model document: expected a JSON object with a 'model' field"),
        ('[{"format_version": 1}]', r"^model document: expected a JSON object"),
    ], ids=["k_string", "k_zero", "k_above_train_rows", "k_bool", "no_scaler", "no_classes", "class_string",
            "class_bool", "params_array", "kind_list", "no_kind", "no_model", "array_root"])
    def test_malformed_document_is_a_value_error_naming_the_field(self, edit, message):
        """`edit` changes a KNN model's document in place, or is the whole document."""
        text = edit
        if callable(edit):
            root = json.loads(model_to_json(_scaled_model("KNN")))
            edit(root)
            text = json.dumps(root)
        with pytest.raises(ValueError, match=message):
            model_from_json(text)

    @pytest.mark.parametrize("kind, edit, message", [
        ("KNN", lambda doc: doc.update(scaler=[1, 2]), r"^KNN model: field 'scaler' is \[1, 2\], not null or an"),
        ("KNN", lambda doc: doc["scaler"].pop("std"), r"^KNN model: field 'scaler' is \{'mean': \[.*\]\}, not null"),
        ("KNN", lambda doc: doc["scaler"].update(mean="x"), r"^KNN model: field 'scaler.mean' is 'x', not a numeric"),
        ("KNN", lambda doc: doc["params"]["train_y"].__setitem__(0, 0.5),
         r"^KNN model: field 'train_y' is \[0.5, .*\], not an array of ints"),
        ("KNN", lambda doc: doc.update(classes=[0, 1]), r"^KNN model: field 'train_y' is .*, not an array of labels"),
        ("KNN", lambda doc: doc.update(classes=[0, 1, -2]), r"^KNN model: field 'classes' is \[0, 1, -2\], not a list"),
        ("Ensemble", lambda doc: doc["params"].update(members=[1]), r"^Ensemble model: field 'members' is \[1\],"),
        ("Ensemble", lambda doc: doc["params"].update(members=[]), r"^Ensemble model: field 'members' is \[\], not a"),
        ("Ensemble", lambda doc: doc["params"]["members"][0].__setitem__(1, "x"),
         r"^Ensemble model: field 'members' is \[\[\{.*\}, 'x'\]\], not a non-empty list of \[model, multiplicity"),
        ("Ensemble", lambda doc: doc["params"]["members"][0].__setitem__(1, 0), r"^Ensemble model: field 'members'"),
        ("Ensemble", lambda doc: doc["params"]["members"][0].__setitem__(1, True), r"^Ensemble model: field 'members'"),
        ("Ensemble", lambda doc: doc["params"]["members"][0][0].update(kind="SVM"), r"unknown model kind 'SVM'"),
        ("AdaBoost", lambda doc: doc["params"].update(machines=3), r"^AdaBoost model: field 'machines' is 3, not a"),
        ("AdaBoost", lambda doc: doc["params"]["machines"][0][0].pop(), r"^AdaBoost model: field 'machines'"),
        ("AdaBoost", lambda doc: doc["params"]["machines"][0][0].__setitem__(0, 1.0), r"^AdaBoost model: field"),
        ("LDA", lambda doc: doc["params"].update(means="x"), r"^LDA model: field 'means' is 'x', not a numeric array"),
        ("LDA", lambda doc: doc["params"]["means"][0].pop(), r"^LDA model: field 'means' is .*, not a numeric array"),
        ("LDA", lambda doc: [row.append(0.0) for row in doc["params"]["means"]],
         r"^LDA model: field 'means' has shape \(3, 3\), not \(3, 2\)"),
        ("LDA", lambda doc: doc.update(classes=[0, 1]), r"^LDA model: field 'means' has shape \(3, 2\), not \(2, 2\)"),
        ("LDA", lambda doc: doc["params"]["cov_inv"].append([0.0, 0.0]),
         r"^LDA model: field 'cov_inv' has shape \(3, 2\), not \(2, 2\)"),
        ("LDA", lambda doc: doc["params"]["log_priors"].pop(),
         r"^LDA model: field 'log_priors' has shape \(2,\), not \(3,\)"),
        ("KNN", lambda doc: doc["params"]["train_y"].pop(), r"^KNN model: field 'train_y' has shape \(44,\), not \(45,\)"),
        ("KNN", lambda doc: doc["params"].update(train_X=doc["params"]["train_X"][0]),
         r"^KNN model: field 'train_X' has shape \(2,\), not \(2, 2\)"),
        ("KNN", lambda doc: doc["scaler"]["mean"].append(0.0),
         r"^KNN model: field 'scaler.mean' has shape \(3,\), not \(2,\)"),
        ("KNN", lambda doc: doc["scaler"]["std"].pop(), r"^KNN model: field 'scaler.std' has shape \(1,\), not \(2,\)"),
        ("AdaBoost", lambda doc: doc["scaler"]["std"].pop(),
         r"^AdaBoost model: field 'scaler.std' has shape \(1,\), not \(2,\)"),
        ("AdaBoost", lambda doc: doc["params"]["machines"].pop(),
         r"^AdaBoost model: field 'machines' is .*, not one list of stumps per class \(3\)"),
        ("AdaBoost", lambda doc: doc["params"]["machines"][0][0].__setitem__(0, 99),
         r"^AdaBoost model: field 'machines' is .*, not stumps on feature indices in \[0, 2\)"),
        ("AdaBoost", lambda doc: doc["params"]["machines"][0][0].__setitem__(0, -1),
         r"^AdaBoost model: field 'machines' is .*, not stumps on feature indices in \[0, 2\)"),
        ("Ensemble", lambda doc: doc.update(scaler={"mean": [0.0, 0.0], "std": [1.0, 1.0]}),
         r"^KNN model: field 'train_X' has shape \(40, 1\), not \(40, 2\)"),
        ("Ensemble", lambda doc: doc.update(scaler={"mean": [0.0], "std": [1.0]},
                                            params={"members": [[_unscaled_document("AdaBoost"), 1]]}),
         r"^AdaBoost model: field 'machines' is .*, not stumps on feature indices in \[0, 1\)"),
        ("LDA", lambda doc: doc["scaler"].update(std=[0.0, -1.0]),
         r"^LDA model: field 'scaler.std' is \[0.0, -1.0\], not an array of numbers > 0"),
        ("KNN", lambda doc: doc["scaler"]["std"].__setitem__(1, 0.0),
         r"^KNN model: field 'scaler.std' is .*, not an array of numbers > 0"),
        ("LDA", lambda doc: doc["params"]["means"][0].__setitem__(0, math.nan),
         r"^LDA model: field 'means' is \[\[nan, .*\]\], not an array of finite numbers"),
        ("LDA", lambda doc: doc["params"]["log_priors"].__setitem__(2, -math.inf),
         r"^LDA model: field 'log_priors' is .*, not an array of finite numbers"),
        ("KNN", lambda doc: doc["params"]["train_X"][3].__setitem__(1, math.inf),
         r"^KNN model: field 'train_X' is .*, not an array of finite numbers"),
        ("KNN", lambda doc: doc["scaler"]["mean"].__setitem__(0, math.nan),
         r"^KNN model: field 'scaler.mean' is \[nan, .*\], not an array of finite numbers"),
        ("AdaBoost", lambda doc: doc["params"]["machines"][1][0].__setitem__(1, math.nan),
         r"^AdaBoost model: field 'machines' is .*, not a list of lists of \[feature, threshold, polarity, alpha\]"),
        ("AdaBoost", lambda doc: doc["params"]["machines"][0][0].__setitem__(3, math.inf), r"^AdaBoost model: field"),
    ], ids=["scaler_array", "scaler_no_std", "scaler_mean_string", "train_y_float", "train_y_not_in_classes",
            "class_negative", "members_int", "members_empty", "multiplicity_string", "multiplicity_zero",
            "multiplicity_bool", "member_kind", "machines_int", "stump_short", "stump_float_feature",
            "means_string", "means_ragged", "means_three_columns", "means_fewer_classes", "cov_inv_not_square",
            "log_priors_short", "train_y_short", "train_X_one_row", "scaler_mean_long", "scaler_std_short",
            "adaboost_scaler_std_short", "machines_one_short", "stump_feature_99", "stump_feature_negative",
            "ensemble_scaler_wider_than_member", "ensemble_scaler_narrower_than_stump", "scaler_std_not_positive",
            "scaler_std_zero", "means_nan", "log_priors_minus_inf", "train_X_inf", "scaler_mean_nan",
            "stump_threshold_nan", "stump_alpha_inf"])
    def test_malformed_params_are_a_value_error_naming_the_kind_and_field(self, kind, edit, message):
        """`edit` changes the document of a fitted `kind` model in place."""
        root = json.loads(model_to_json(_ensemble() if kind == "Ensemble" else _scaled_model(kind)))
        edit(root["model"])
        with pytest.raises(ValueError, match=message):
            model_from_json(json.dumps(root))

    def test_version_mismatch_rejected(self):
        with pytest.raises(ValueError, match="format version"):
            model_from_json('{"format_version": 999, "model": {}}')

    def test_serialization_is_deterministic(self):
        rng = np.random.default_rng(16)
        X, y = blobs(rng, [(-1.0,), (1.0,)], 10)
        model = fit_lda(X, y, shrinkage=0.1)
        assert model_to_json(model, seed=1) == model_to_json(model, seed=1)


class TestPredictInputWidth:
    """`predict` takes a 2-D matrix of the model's feature count: a wrong
    width is a ValueError naming the kind, never a broadcast or an IndexError."""

    @pytest.mark.parametrize("kind, scaled", [("LDA", True), ("LDA", False), ("KNN", True), ("KNN", False),
                                              ("AdaBoost", True)])
    @pytest.mark.parametrize("shape", [(6, 1), (6, 3), (6,), (1, 6, 2)])
    def test_input_not_of_the_feature_count_is_rejected(self, kind, scaled, shape):
        """The count is the scaler's, else LDA `cov_inv`'s or KNN `train_X`'s."""
        model = _scaled_model(kind)
        model = model if scaled else dataclasses.replace(model, scaler=None)
        message = rf"^{kind} model: input has shape {re.escape(str(shape))}, not \(rows, 2\)$"
        with pytest.raises(ValueError, match=message):
            model.predict(np.zeros(shape))
        assert model.predict(np.zeros((6, 2))).shape == (6,)

    @pytest.mark.parametrize("index", [99, 2, -1])
    def test_unscaled_adaboost_rejects_a_stump_outside_the_input(self, index):
        document = _unscaled_document("AdaBoost")
        document["params"]["machines"][0][0][0] = index
        model = model_from_json(json.dumps({"format_version": 1, "seed": None, "model": document}))
        with pytest.raises(ValueError, match=rf"^AdaBoost model: input has 2 columns, a stump reads column {index}$"):
            model.predict(np.zeros((6, 2)))

    def test_unscaled_adaboost_rejects_a_vector(self):
        model = dataclasses.replace(_scaled_model("AdaBoost"), scaler=None)
        with pytest.raises(ValueError, match=r"^AdaBoost model: input has shape \(6,\), not \(rows, columns\)$"):
            model.predict(np.zeros(6))

    def test_ensemble_checks_its_scaler_then_its_members(self):
        ensemble = _ensemble()  # one feature, members unscaled; the first member to predict raises
        first = ensemble.params["members"][0][0].kind
        with pytest.raises(ValueError, match=rf"^{first} model: input has shape \(4, 2\), not \(rows, 1\)$"):
            ensemble.predict(np.zeros((4, 2)))
        scaled = dataclasses.replace(ensemble, scaler=fit_scaler(np.arange(8.0).reshape(4, 2)))
        with pytest.raises(ValueError, match=r"^Ensemble model: input has shape \(4, 1\), not \(rows, 2\)$"):
            scaled.predict(np.zeros((4, 1)))
