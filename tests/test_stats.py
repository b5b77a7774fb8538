"""Statistics tests: t distribution, Pearson, Cronbach's alpha, paired t,
descriptives, correlation matrices, and the reliability screen.

Brute-force oracles are written from the defining formulas; the t-tail
probabilities are checked against closed forms (df = 1, 2) and numeric
integration of the density (scipy.integrate.quad, test-only dependency).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from loadsense import stats
from loadsense.core import FEATURE_NAMES, FeatureRow, FeatureVector, LoadLevel, TaskKind
from loadsense.evaluate import featurize_dataset
from loadsense.stats import (
    CONDITIONS,
    DIMENSIONS,
    betainc_reg,
    condition_matrices,
    correlation_matrices,
    cronbach_alpha,
    descriptive_table,
    paired_t,
    pearson,
    reliability_screen,
    render_correlation_matrix,
    render_descriptive_table,
    significance_stars,
    student_t_sf_two_tailed,
)
from loadsense.synth import GeneratorConfig, generate_dataset, null_config

finite_floats = st.floats(min_value=-100.0, max_value=100.0)


def t_density(x: float, df: float) -> float:
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


class TestStudentT:
    def test_df2_closed_form(self):
        # P(|T| >= |t|) = 1 - |t| / sqrt(2 + t^2) for df = 2
        for t in (-5.0, -1.3, 0.0, 0.7, 2.4641, 10.0):
            expected = 1.0 - abs(t) / math.sqrt(2.0 + t * t)
            assert student_t_sf_two_tailed(t, 2) == pytest.approx(expected, abs=1e-10)

    def test_df1_cauchy_closed_form(self):
        for t in (-8.0, -0.5, 0.0, 1.0, 3.3):
            expected = 1.0 - 2.0 * math.atan(abs(t)) / math.pi
            assert student_t_sf_two_tailed(t, 1) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("df", [5, 30, 44])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.96, 3.2, 4.72])
    def test_against_numeric_integration(self, df, t):
        tail, _ = quad(t_density, t, np.inf, args=(df,))
        assert student_t_sf_two_tailed(t, df) == pytest.approx(2.0 * tail, abs=1e-8)

    def test_symmetry(self):
        for df in (3, 10, 42):
            for t in (0.3, 1.7, 2.9):
                assert student_t_sf_two_tailed(t, df) == student_t_sf_two_tailed(-t, df)

    def test_betainc_endpoints(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_nonpositive_df_rejected(self):
        with pytest.raises(ValueError):
            student_t_sf_two_tailed(1.0, 0)


def brute_pearson_r(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    return num / den


class TestPearson:
    def test_identical_columns(self):
        res = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.statistic == 1.0
        assert res.p_value == 0.0

    def test_negated_columns(self):
        res = pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
        assert res.statistic == -1.0

    def test_hand_computed(self):
        res = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert res.statistic == pytest.approx(0.9820, abs=1e-4)
        assert res.df == 1

    def test_zero_variance_is_degenerate(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]).degenerate

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=3, max_size=60))
    def test_matches_brute_force(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        res = pearson(x, y)
        if res.degenerate:
            assert len(set(x)) == 1 or len(set(y)) == 1 or brute_variance_zero(x) or brute_variance_zero(y)
            return
        assert res.statistic == pytest.approx(max(-1.0, min(1.0, brute_pearson_r(x, y))), abs=1e-9)


def brute_variance_zero(v):
    m = sum(v) / len(v)
    return sum((a - m) ** 2 for a in v) == 0.0


class TestPairedT:
    def test_equal_samples(self):
        res = paired_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_hand_computed_differences(self):
        # d = [1, 2, 3]: mean 2, sd 1, t = 2 / (1/sqrt(3)) = 3.4641, df = 2
        res = paired_t([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert res.statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-4)
        assert res.df == 2
        expected_p = 1.0 - (2.0 * (0.5 * (1.0 + res.statistic / math.sqrt(2.0 + res.statistic**2))) - 1.0)
        assert res.p_value == pytest.approx(expected_p, abs=1e-10)
        assert res.p_value == pytest.approx(0.0742, abs=1e-4)

    def test_constant_nonzero_difference_is_degenerate(self):
        assert paired_t([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]).degenerate

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError):
            paired_t([1.0], [2.0])

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=60))
    def test_matches_brute_force(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        res = paired_t(x, y)
        d = [a - b for a, b in zip(x, y)]
        n = len(d)
        mean = sum(d) / n
        var = sum((v - mean) ** 2 for v in d) / (n - 1)
        if var == 0.0:
            assert res.statistic == 0.0 if mean == 0.0 else res.degenerate
            return
        assert res.statistic == pytest.approx(mean / math.sqrt(var / n), rel=1e-9, abs=1e-9)


class TestCronbachAlpha:
    def test_identical_columns_give_one(self):
        data = np.tile(np.asarray([[1.0], [2.0], [3.0]]), (1, 4))
        assert cronbach_alpha(data).statistic == pytest.approx(1.0, abs=1e-12)

    def test_two_item_hand_computed(self):
        data = np.asarray([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0]])
        assert cronbach_alpha(data).statistic == pytest.approx(0.9474, abs=1e-4)

    def test_zero_total_variance_is_degenerate(self):
        data = np.asarray([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]])
        assert cronbach_alpha(data).degenerate

    def test_listwise_deletion(self):
        data = np.asarray([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0], [np.nan, 9.0]])
        assert cronbach_alpha(data).statistic == pytest.approx(0.9474, abs=1e-4)
        assert cronbach_alpha(data).n == 3

    @given(
        st.lists(
            st.tuples(finite_floats, finite_floats, finite_floats),
            min_size=2,
            max_size=40,
        )
    )
    def test_matches_brute_force(self, rows):
        data = np.asarray(rows, dtype=float)
        res = cronbach_alpha(data)
        k = data.shape[1]
        total = data.sum(axis=1)
        tm = total.mean()
        total_var = sum((v - tm) ** 2 for v in total) / (len(total) - 1)
        if total_var == 0.0:
            assert res.degenerate
            return
        item_vars = 0.0
        for j in range(k):
            m = data[:, j].mean()
            item_vars += sum((v - m) ** 2 for v in data[:, j]) / (len(data) - 1)
        assert res.statistic == pytest.approx(k / (k - 1) * (1 - item_vars / total_var), rel=1e-9, abs=1e-9)


def engineered_matrix(rng, alpha_target: float, n: int = 40, k: int = 6) -> np.ndarray:
    """Participant x item matrix whose population alpha is alpha_target.

    With shared-signal variance s2 and item-noise variance e2,
    alpha = k*s2 / (k*s2 + e2) when items are signal + independent noise,
    so e2 / s2 = k * (1 - alpha) / alpha.
    """
    s2 = 1.0
    e2 = k * (1.0 - alpha_target) / alpha_target * s2
    shared = rng.normal(0.0, math.sqrt(s2), size=(n, 1))
    return shared + rng.normal(0.0, math.sqrt(e2), size=(n, k))


class TestReliabilityScreen:
    def test_engineered_fixture_retains_heart_only(self):
        rng = np.random.default_rng(42)
        matrices = {
            "hr_mean": engineered_matrix(rng, 0.95),
            "hrv_rmssd": engineered_matrix(rng, 0.95),
            "lhipa_left": engineered_matrix(rng, 0.35),
            "lhipa_right": engineered_matrix(rng, 0.35),
            "drive_avg_dev": engineered_matrix(rng, 0.33),
        }
        alphas, retained, excluded = reliability_screen(matrices)
        assert retained == {"hr_mean", "hrv_rmssd"}
        assert excluded == {"lhipa_left", "lhipa_right", "drive_avg_dev"}
        assert alphas["hr_mean"] >= 0.9 and alphas["lhipa_left"] <= 0.4

    def test_perfect_reliability_retains_all(self):
        data = np.tile(np.linspace(0, 1, 10)[:, None], (1, 6))
        alphas, retained, excluded = reliability_screen({d: data for d in DIMENSIONS})
        assert retained == set(DIMENSIONS) and not excluded

    def test_zero_threshold_retains_all_nondegenerate(self, monkeypatch):
        monkeypatch.setattr(stats, "RELIABILITY_THRESHOLD", -np.inf)
        rng = np.random.default_rng(0)
        matrices = {d: rng.normal(size=(20, 6)) for d in DIMENSIONS}
        _, retained, excluded = reliability_screen(matrices)
        assert retained == set(DIMENSIONS) and not excluded


def feature_rows(values_by_participant):
    """Feature rows with hr_mean = given value."""
    rows = []
    for pid, per_condition in values_by_participant.items():
        for (task, level), v in per_condition.items():
            rows.append(FeatureRow(pid, task, level, FeatureVector(hr_mean=v)))
    return rows


class TestDescriptiveTable:
    def test_three_participant_fixture_matches_brute_force(self):
        cond = (TaskKind.NBACK, LoadLevel.EASY)
        rows = feature_rows({"a": {cond: 70.0}, "b": {cond: 80.0}, "c": {cond: 90.0}})
        table = descriptive_table(condition_matrices(rows))
        mean, std, n = table["hr_mean"][cond]
        assert (mean, n) == (80.0, 3)
        assert std == pytest.approx(10.0)

    def test_single_observation_has_no_std(self):
        cond = (TaskKind.NBACK, LoadLevel.HARD)
        table = descriptive_table(condition_matrices(feature_rows({"a": {cond: 70.0}})))
        assert table["hr_mean"][cond] == (70.0, None, 1)

    def test_empty_cells(self):
        table = descriptive_table(condition_matrices([]))
        assert table["hr_mean"][(TaskKind.NBACK, LoadLevel.EASY)] == (None, None, 0)

    def test_accepts_a_generator(self):
        cond = (TaskKind.NBACK, LoadLevel.EASY)
        rows = feature_rows({"a": {cond: 70.0}, "b": {cond: 80.0}})
        table = descriptive_table(condition_matrices(iter(rows)))
        assert table["hr_mean"][cond][2] == 2

    def test_rendering_has_all_dimensions(self):
        text = render_descriptive_table(descriptive_table(condition_matrices([])))
        for dim in DIMENSIONS:
            assert dim in text


class TestConditionMatrix:
    def test_build_from_rows(self):
        cond = (TaskKind.NBACK, LoadLevel.EASY)
        matrix = condition_matrices(feature_rows({"a": {cond: 70.0}}))["hr_mean"]
        assert matrix.shape == (1, len(CONDITIONS))
        j = CONDITIONS.index(cond)
        assert matrix[0, j] == 70.0
        assert np.isnan(matrix[0, (j + 1) % 6])


# ---------------------------------------------------------------------------
# The tuple-row scans that `condition_matrices` and the column-wise
# `descriptive_table` replaced, kept as their oracle.


def _reference_descriptive_table(rows):
    """Per-dimension, per-condition (mean, std, n) over (participant, task,
    level, FeatureVector) rows, scanning every row for each cell."""
    rows = list(rows)
    table = {}
    for dim in DIMENSIONS:
        cells = {}
        for cond in CONDITIONS:
            task, level = cond
            vals = [
                row[3].value(dim)
                for row in rows
                if row[1] is task and row[2] is level and row[3].value(dim) is not None
            ]
            if not vals:
                cells[cond] = (None, None, 0)
            elif len(vals) == 1:
                cells[cond] = (float(vals[0]), None, 1)
            else:
                arr = np.asarray(vals, dtype=float)
                cells[cond] = (float(arr.mean()), float(arr.std(ddof=1)), len(vals))
        table[dim] = cells
    return table


def _reference_build_condition_matrix(rows, dimension):
    """One dimension's (participants, participants x 6-condition values)."""
    if dimension not in FEATURE_NAMES:
        raise KeyError(dimension)
    participants = sorted({row[0] for row in rows})
    index = {p: i for i, p in enumerate(participants)}
    values = np.full((len(participants), len(CONDITIONS)), np.nan)
    cond_index = {cond: j for j, cond in enumerate(CONDITIONS)}
    for participant, task, level, features in rows:
        v = features.value(dimension)
        if v is not None:
            values[index[participant], cond_index[(task, level)]] = v
    return tuple(participants), values


EASY, MEDIUM, HARD = LoadLevel.EASY, LoadLevel.MEDIUM, LoadLevel.HARD
NBACK, SEARCH = TaskKind.NBACK, TaskKind.VISUAL_SEARCH

# hand-built rows, in (participant, task, level) order as featurization sorts them
HAND_BUILT = {
    # "b" lacks hr_mean in nback easy and lhipa_left everywhere
    "missing_feature": [
        FeatureRow("a", NBACK, EASY, FeatureVector(hr_mean=70.0, lhipa_left=0.1)),
        FeatureRow("b", NBACK, EASY, FeatureVector(lhipa_right=0.3)),
        FeatureRow("c", NBACK, EASY, FeatureVector(hr_mean=90.5, lhipa_left=0.2, drive_avg_dev=0.4)),
    ],
    "single_observation": [
        FeatureRow("a", SEARCH, HARD, FeatureVector(hr_mean=71.25, hrv_rmssd=40.0)),
    ],
    # nothing for visual search at all, and nothing for nback hard
    "empty_condition": [
        FeatureRow(p, NBACK, level, FeatureVector(hr_mean=60.0 + i + int(level), hrv_rmssd=30.0 - i))
        for i, p in enumerate(("a", "b", "c")) for level in (EASY, MEDIUM)
    ],
    # "b" lacks nback medium; "c" has only visual search
    "participant_lacks_condition": [
        FeatureRow("a", NBACK, EASY, FeatureVector(hr_mean=70.0, drive_avg_dev=0.25)),
        FeatureRow("a", NBACK, MEDIUM, FeatureVector(hr_mean=72.0, drive_avg_dev=0.5)),
        FeatureRow("b", NBACK, EASY, FeatureVector(hr_mean=80.0, drive_avg_dev=0.75)),
        FeatureRow("c", SEARCH, EASY, FeatureVector(hr_mean=65.0)),
        FeatureRow("c", SEARCH, MEDIUM, FeatureVector(hr_mean=66.0, lhipa_right=0.125)),
    ],
}


@pytest.fixture(scope="module", params=[(7, False), (11, False), (7, True)],
                ids=["seed7", "seed11", "seed7-null"])
def cohort_rows(request):
    seed, null = request.param
    config = GeneratorConfig(n_participants=10, seed=seed)
    return featurize_dataset(generate_dataset(null_config(config) if null else config))


def _assert_same_table(new, old):
    """Identical cells: the same None places and bit-identical floats."""
    assert list(new) == list(old)
    for dim in old:
        assert list(new[dim]) == list(old[dim])
        for cond, cell in old[dim].items():
            got = new[dim][cond]
            assert [v is None for v in got] == [v is None for v in cell]
            assert [np.float64(v).tobytes() for v in got if v is not None] == \
                   [np.float64(v).tobytes() for v in cell if v is not None]


def _assert_matches_the_row_scans(rows):
    tuples = [(r.participant, r.task, r.level, r.features) for r in rows]
    matrices = condition_matrices(rows)
    assert list(matrices) == list(DIMENSIONS)
    for dim in DIMENSIONS:
        _, values = _reference_build_condition_matrix(tuples, dim)
        assert matrices[dim].shape == values.shape
        assert np.array_equal(np.isnan(matrices[dim]), np.isnan(values))
        assert matrices[dim].tobytes() == values.tobytes()
    _assert_same_table(descriptive_table(matrices), _reference_descriptive_table(tuples))


class TestConditionArraysOracle:
    def test_seeded_cohort_matches_the_row_scans(self, cohort_rows):
        _assert_matches_the_row_scans(cohort_rows)

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_rows_match_the_row_scans(self, case):
        _assert_matches_the_row_scans(HAND_BUILT[case])


class TestCorrelationMatrices:
    def test_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(1)
        cols = {f"c{i}": rng.normal(size=20) for i in range(4)}
        matrix = correlation_matrices(cols)
        assert np.all(np.diag(matrix.r) == 1.0)

    def test_perfectly_correlated_pair_gets_double_star(self):
        x = np.linspace(0, 1, 30)
        matrix = correlation_matrices({"a": x, "b": 2 * x})
        assert matrix.r[0, 1] == pytest.approx(1.0)
        text = render_correlation_matrix(matrix)
        assert "1.000**" in text

    def test_matches_brute_force_pairwise(self):
        rng = np.random.default_rng(7)
        cols = {f"c{i}": rng.normal(size=25) for i in range(3)}
        matrix = correlation_matrices(cols)
        names = list(cols)
        for i in range(3):
            for j in range(i + 1, 3):
                expected = brute_pearson_r(cols[names[i]].tolist(), cols[names[j]].tolist())
                assert matrix.r[i, j] == pytest.approx(expected, abs=1e-9)

    def test_pairwise_nan_handling(self):
        a = np.asarray([1.0, 2.0, 3.0, np.nan, 5.0])
        b = np.asarray([2.0, 4.0, 6.0, 8.0, 10.0])
        matrix = correlation_matrices({"a": a, "b": b})
        assert matrix.r[0, 1] == pytest.approx(1.0)


class TestSignificanceStars:
    def test_thresholds(self):
        assert significance_stars(0.04) == "*"
        assert significance_stars(0.0005) == "**"
        assert significance_stars(0.2) == ""
        assert significance_stars(float("nan")) == ""
