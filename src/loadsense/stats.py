"""Statistical gates: descriptives, Pearson correlations, Cronbach's alpha
reliability screening, and paired t-tests.  `stats_files` builds the `stats`
command's four files from feature rows.

The Student-t CDF is computed in-package via the regularized incomplete
beta function (continued-fraction evaluation), so no statistics library is
needed at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import FeatureRow, LoadLevel, TaskKind, feature_matrix, provenance_header

# Table 2 style dimensions: one representative value per physiological channel
DIMENSIONS = ("hr_mean", "hrv_rmssd", "lhipa_right", "lhipa_left", "drive_avg_dev")

CONDITIONS = tuple((task, level) for task in TaskKind for level in LoadLevel)

RELIABILITY_THRESHOLD = 0.7


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: float
    p_value: float
    n: int
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Student-t distribution


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # the even, then the odd term of the fraction
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf_two_tailed(t: float, df: float) -> float:
    """Two-tailed p-value P(|T| >= |t|) for a Student-t variable with df degrees."""
    if df <= 0:
        raise ValueError("df must be positive")
    x = df / (df + t * t)
    return betainc_reg(df / 2.0, 0.5, x)


# ---------------------------------------------------------------------------
# Tests and estimators


def pearson(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Pearson's r with df = n-2 and a two-tailed p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError("pearson: unequal lengths")
    n = len(x)
    if n < 3:
        raise ValueError("pearson: need at least 3 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        return TestResult(statistic=float("nan"), df=n - 2, p_value=float("nan"), n=n, degenerate=True)
    r = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        return TestResult(statistic=r, df=df, p_value=0.0, n=n)
    t = r * math.sqrt(df / (1.0 - r * r))
    return TestResult(statistic=r, df=df, p_value=student_t_sf_two_tailed(t, df), n=n)


def paired_t(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Paired-sample t-test, df = n-1, two-tailed."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError("paired_t: unequal lengths")
    n = len(x)
    if n < 2:
        raise ValueError("paired_t: need at least 2 pairs")
    d = x - y
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        if float(np.mean(d)) == 0.0:
            return TestResult(statistic=0.0, df=n - 1, p_value=1.0, n=n)
        return TestResult(statistic=float("nan"), df=n - 1, p_value=float("nan"), n=n, degenerate=True)
    t = float(np.mean(d)) / (sd / math.sqrt(n))
    return TestResult(statistic=t, df=n - 1, p_value=student_t_sf_two_tailed(t, n - 1), n=n)


def cronbach_alpha(items: np.ndarray) -> TestResult:
    """Cronbach's alpha over the k item columns of an (n, k) array, with
    listwise deletion of rows holding a NaN.

    alpha = k/(k-1) * (1 - sum(item variances) / variance(row sums)),
    sample (n-1) variances.
    """
    data = np.asarray(items, dtype=float)
    data = data[~np.isnan(data).any(axis=1)]
    n, k = data.shape
    if k < 2:
        raise ValueError("cronbach_alpha: need at least 2 item columns")
    if n < 2:
        raise ValueError("cronbach_alpha: need at least 2 complete rows")
    item_vars = np.var(data, axis=0, ddof=1)
    total_var = float(np.var(data.sum(axis=1), ddof=1))
    if total_var == 0.0:
        return TestResult(statistic=float("nan"), df=n - 1, p_value=float("nan"), n=n, degenerate=True)
    alpha = k / (k - 1) * (1.0 - float(item_vars.sum()) / total_var)
    return TestResult(statistic=alpha, df=n - 1, p_value=float("nan"), n=n)


def reliability_screen(
    matrices: Mapping[str, np.ndarray],
) -> tuple[dict[str, float], set[str], set[str]]:
    """Retain dimensions whose alpha over their (participants, conditions)
    array meets RELIABILITY_THRESHOLD.

    Returns (alphas, retained, excluded).  Excluded dimensions are skipped
    by downstream hypothesis tests; classification still uses all features.
    """
    results = {name: cronbach_alpha(matrix) for name, matrix in matrices.items()}
    retained = {name for name, result in results.items()
                if not result.degenerate and result.statistic >= RELIABILITY_THRESHOLD}
    return {name: result.statistic for name, result in results.items()}, retained, set(results) - retained


# ---------------------------------------------------------------------------
# Tables


def condition_matrices(rows: Iterable[FeatureRow]) -> dict[str, np.ndarray]:
    """Each DIMENSIONS name's participants (sorted) x CONDITIONS array over
    feature rows, one row per (participant, task, level).  NaN marks a
    missing feature or a condition the participant lacks."""
    rows = list(rows)
    participants = {p: i for i, p in enumerate(sorted({row.participant for row in rows}))}
    cube = np.full((len(DIMENSIONS), len(participants), len(CONDITIONS)), np.nan)
    cube[:, [participants[row.participant] for row in rows],
         [CONDITIONS.index((row.task, row.level)) for row in rows]] = feature_matrix(rows, DIMENSIONS).T
    return dict(zip(DIMENSIONS, cube))


def descriptive_table(
    matrices: Mapping[str, np.ndarray],
) -> dict[str, dict[tuple[TaskKind, LoadLevel], tuple[float | None, float | None, int]]]:
    """Per-dimension, per-condition (mean, std, n) over `condition_matrices`.

    Cells with no data are (None, None, 0); single-observation cells have
    std None per the n-1 convention.
    """
    table: dict[str, dict[tuple[TaskKind, LoadLevel], tuple]] = {}
    for dim, matrix in matrices.items():
        cells = {}
        for cond, column in zip(CONDITIONS, matrix.T):
            vals = column[~np.isnan(column)]
            if len(vals) == 0:
                cells[cond] = (None, None, 0)
            elif len(vals) == 1:
                cells[cond] = (float(vals[0]), None, 1)
            else:
                cells[cond] = (float(vals.mean()), float(vals.std(ddof=1)), len(vals))
        table[dim] = cells
    return table


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, ...]
    r: np.ndarray
    p: np.ndarray


def correlation_matrices(columns: Mapping[str, Sequence[float]]) -> CorrelationMatrix:
    """Pairwise Pearson correlations over named columns.

    NaN entries are dropped pairwise.  Diagonal is exactly 1.  Pairs with
    fewer than 3 complete observations or zero variance get NaN.
    """
    labels = tuple(columns.keys())
    data = [np.asarray(columns[label], dtype=float) for label in labels]
    k = len(labels)
    diagonal = np.eye(k, dtype=bool)
    r = np.where(diagonal, 1.0, np.nan)
    p = np.where(diagonal, 0.0, np.nan)
    for i in range(k):
        for j in range(i + 1, k):
            mask = ~np.isnan(data[i]) & ~np.isnan(data[j])
            if mask.sum() >= 3 and not (result := pearson(data[i][mask], data[j][mask])).degenerate:
                r[i, j] = r[j, i] = result.statistic
                p[i, j] = p[j, i] = result.p_value
    return CorrelationMatrix(labels=labels, r=r, p=p)


def significance_stars(p_value: float) -> str:
    """Appendix-style markers: * for p < .05, ** for p < .001."""
    if math.isnan(p_value):
        return ""
    if p_value < 0.001:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


def render_correlation_matrix(matrix: CorrelationMatrix) -> str:
    """Lower-triangular aligned text table with significance stars."""
    width = max(14, max(len(l) for l in matrix.labels) + 2)
    lines = ["".ljust(width) + "".join(l.ljust(width) for l in matrix.labels)]
    for i, label in enumerate(matrix.labels):
        cells = []
        for j in range(len(matrix.labels)):
            if j > i:
                cells.append("".ljust(width))
            elif np.isnan(matrix.r[i, j]):
                cells.append("n/a".ljust(width))
            else:
                stars = "" if i == j else significance_stars(matrix.p[i, j])
                cells.append(f"{matrix.r[i, j]:.3f}{stars}".ljust(width))
        lines.append(label.ljust(width) + "".join(cells))
    return "\n".join(lines) + "\n"


def render_descriptive_table(table) -> str:
    header = ["dimension"] + [f"{t.value}_{l.name.lower()}" for t, l in CONDITIONS]
    lines = [",".join(header)]
    for dim in DIMENSIONS:
        cells = [dim]
        for cond in CONDITIONS:
            mean, std, count = table[dim][cond]
            if mean is None:
                cells.append("")
            elif std is None:
                cells.append(f"{mean:.4f}")
            else:
                cells.append(f"{mean:.4f}+-{std:.4f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def stats_files(rows: Iterable[FeatureRow], seed: int) -> tuple[dict[str, str], set[str], set[str]]:
    """The `stats` command's outputs from feature rows: file name -> text of
    descriptives.csv, reliability.csv, correlations.txt (every (dimension,
    condition) column against every other) and paired_tests.csv (the
    manipulation checks, easy-vs-medium and medium-vs-hard per task, on the
    retained dimensions), then the retained and excluded dimension sets."""
    matrices = condition_matrices(rows)
    header = provenance_header(seed)

    alphas, retained, excluded = reliability_screen(matrices)
    reliability = ["dimension,alpha,retained"]
    for dim, a in alphas.items():
        reliability.append(f"{dim},{'' if math.isnan(a) else f'{a:.4f}'},{dim in retained}")

    columns = {f"{dim}.{task.value}.{level.name.lower()}": matrix[:, j]
               for dim, matrix in matrices.items() for j, (task, level) in enumerate(CONDITIONS)}

    tests = ["dimension,task,comparison,t,df,p,n"]
    for dim in sorted(retained):
        for task in TaskKind:
            for lo, hi in ((LoadLevel.EASY, LoadLevel.MEDIUM), (LoadLevel.MEDIUM, LoadLevel.HARD)):
                x, y = (matrices[dim][:, CONDITIONS.index((task, level))] for level in (lo, hi))
                mask = ~np.isnan(x) & ~np.isnan(y)
                if mask.sum() < 2:
                    continue
                res = paired_t(x[mask], y[mask])
                tests.append(f"{dim},{task.value},{lo.name.lower()}-vs-{hi.name.lower()},"
                             f"{res.statistic:.4f},{res.df},{res.p_value:.6f},{res.n}")

    files = {
        "descriptives.csv": header + render_descriptive_table(descriptive_table(matrices)),
        "reliability.csv": header + "\n".join(reliability) + "\n",
        "correlations.txt": render_correlation_matrix(correlation_matrices(columns)),
        "paired_tests.csv": header + "\n".join(tests) + "\n",
    }
    return files, retained, excluded
