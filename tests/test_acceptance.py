"""Acceptance gate: one test per shipping criterion.

Each criterion is exercised at its stated tolerance; slow end-to-end
criteria use the library API (which the CLI wraps 1:1) plus one real CLI
determinism pass.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from loadsense.cli import run_cli
from loadsense.cardiac import hr_stats, rmssd
from loadsense.core import TaskKind
from loadsense.evaluate import (
    FEATURE_SUBSETS,
    REPORT_ROWS,
    featurize_dataset,
    make_split_plan,
    render_report,
    run_nested_cv,
)
from loadsense.learn import Candidate, accuracy, fit_knn, greedy_ensemble
from loadsense.pupil import SYM16, _dwt_step, dwt_detail, lhipa
from loadsense.stats import cronbach_alpha, paired_t, pearson, reliability_screen
from loadsense.synth import GeneratorConfig, generate_dataset, null_config

FIXTURES = Path(__file__).parent / "fixtures" / "lhipa_reference.csv"


# --------------------------------------------------------------------------
# Criterion 1: formula oracles, 1000 random inputs each, < 10 s total


def test_criterion_1_formula_oracles():
    rng = np.random.default_rng(101)
    start = time.monotonic()

    for _ in range(1000):
        rr = rng.uniform(400.0, 1500.0, size=rng.integers(2, 40))
        diffs = np.diff(rr)
        brute = math.sqrt(sum(d * d for d in diffs) / len(diffs))
        assert abs(rmssd(rr) - brute) <= 1e-9

    for _ in range(1000):
        rr = rng.uniform(400.0, 1500.0, size=rng.integers(1, 40))
        hrs = [60000.0 / v for v in rr]
        mean, lo, hi, std = hr_stats(rr)
        assert abs(mean - sum(hrs) / len(hrs)) <= 1e-9
        assert lo == min(hrs) and hi == max(hrs)
        if len(hrs) > 1:
            m = sum(hrs) / len(hrs)
            brute_std = math.sqrt(sum((h - m) ** 2 for h in hrs) / (len(hrs) - 1))
            assert abs(std - brute_std) <= 1e-9

    for _ in range(1000):
        n = int(rng.integers(3, 50))
        x = rng.normal(size=n)
        y = 0.4 * x + rng.normal(size=n)
        res = pearson(x, y)
        ref_r, ref_p = scipy.stats.pearsonr(x, y)
        assert abs(res.statistic - ref_r) <= 1e-9
        assert abs(res.p_value - ref_p) <= 1e-8

    for _ in range(1000):
        n = int(rng.integers(2, 50))
        k = int(rng.integers(2, 8))
        data = rng.normal(size=(n, 1)) + rng.normal(size=(n, k))
        res = cronbach_alpha(data)
        if res.degenerate:
            continue
        item_vars = data.var(axis=0, ddof=1).sum()
        total_var = data.sum(axis=1).var(ddof=1)
        brute = k / (k - 1) * (1.0 - item_vars / total_var)
        assert abs(res.statistic - brute) <= 1e-9

    for _ in range(1000):
        n = int(rng.integers(2, 50))
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        res = paired_t(x, y)
        ref = scipy.stats.ttest_rel(x, y)
        assert abs(res.statistic - ref.statistic) <= 1e-9
        assert abs(res.p_value - ref.pvalue) <= 1e-8

    assert time.monotonic() - start < 10.0


# --------------------------------------------------------------------------
# Criterion 2: LHIPA fidelity against the frozen offline oracle fixtures


def _fixture_signal(seed: int, rate_hz: float, duration_s: float) -> np.ndarray:
    rng = np.random.default_rng(1000 + seed)
    n = int(duration_s * rate_hz)
    t = np.arange(n) / rate_hz
    signal = np.full(n, 4.0 + rng.normal(0.0, 0.3))
    for _ in range(3):
        freq = rng.uniform(0.1, 0.5)
        amp = rng.uniform(0.05, 0.15)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        signal = signal + amp * np.sin(2.0 * math.pi * freq * t + phase)
    return signal + rng.normal(0.0, 0.02, size=n)


def test_criterion_2_lhipa_fidelity():
    with open(FIXTURES) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    for row in rows:
        signal = _fixture_signal(int(row["seed"]), float(row["rate_hz"]), float(row["duration_s"]))
        assert lhipa(signal) == pytest.approx(float(row["expected_lhipa"]), abs=1e-6)

    assert lhipa(np.full(14400, 4.0)) == 0.0

    for n in (1024, 4096, 14400):
        x = np.random.default_rng(n).normal(size=n)
        energy = float(np.sum(_dwt_step(x, np.asarray(SYM16.dec_lo)) ** 2) + np.sum(dwt_detail(x, 1) ** 2))
        assert energy == pytest.approx(float(np.sum(x**2)), rel=1e-6)


# --------------------------------------------------------------------------
# Criterion 3: split hygiene over 100 seeded plans


def test_criterion_3_split_hygiene():
    ids = [f"p{i:03d}" for i in range(45)]
    for seed in range(100):
        plan = make_split_plan(ids, k=5, seed=seed)
        for fold in plan.folds:
            test, val, train = set(fold.test), set(fold.validation), set(fold.train)
            assert len(test) == 9 and len(val) == 12 and len(train) == 24
            assert not (test & val) and not (test & train) and not (val & train)


# --------------------------------------------------------------------------
# Criterion 4: greedy ensemble never falls below its best member (exact)


def test_criterion_4_ensemble_guarantee():
    rng = np.random.default_rng(404)
    X_val = np.arange(24, dtype=float)[:, None]
    for trial in range(50):
        y_val = rng.integers(0, 3, size=24)
        candidates = []
        for i in range(int(rng.integers(1, 7))):
            preds = np.where(rng.random(24) < 0.6, y_val, rng.integers(0, 3, size=24))
            model = fit_knn(X_val, preds, k=1)
            val_acc = float(np.mean(preds == y_val))
            candidates.append(Candidate(kind="KNN", config={"k": 1}, model=model,
                                        val_predictions=model.predict(X_val), val_accuracy=val_acc, order=i))
        ensemble = greedy_ensemble(candidates, y_val)
        best_single = max(c.val_accuracy for c in candidates)
        assert accuracy(ensemble, X_val, y_val) >= best_single


# --------------------------------------------------------------------------
# Criterion 5: end-to-end workload signal, seed 7, < 60 s


def test_criterion_5_end_to_end_mwl_signal():
    start = time.monotonic()
    dataset = generate_dataset(GeneratorConfig(seed=7, n_participants=45))
    rows = featurize_dataset(dataset)
    plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=7)
    report = run_nested_cv(rows, TaskKind.NBACK, "binary", plan, subsets=("heart", "all"))
    elapsed = time.monotonic() - start
    heart_mean = report.cells[("Ensemble", "heart")][0]
    all_mean = report.cells[("Ensemble", "all")][0]
    assert heart_mean >= 60.0
    assert all_mean >= 60.0
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# Criterion 6: perceptual-load null stays at chance over 3 seeds


@pytest.mark.parametrize("null", [False, True], ids=["generate_dataset", "generate_null_dataset"])
def test_criterion_6_end_to_end_pl_null(null):
    for seed in (1, 2, 3):
        config = GeneratorConfig(seed=seed, n_participants=45)
        dataset = generate_dataset(null_config(config) if null else config)
        rows = featurize_dataset(dataset)
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=seed)
        report = run_nested_cv(rows, TaskKind.VISUAL_SEARCH, "multi", plan, subsets=("all",))
        for (model, _), (mean, _) in report.cells.items():
            assert abs(mean - 100.0 / 3.0) <= 12.0, f"null={null} seed {seed} {model}: {mean:.1f}%"


# --------------------------------------------------------------------------
# Criterion 7: reliability screen on the engineered fixture


def test_criterion_7_reliability_screen():
    # seed chosen so the realized alphas land clear of both thresholds
    rng = np.random.default_rng(6)

    def matrix(alpha_target: float, n: int = 45, k: int = 6) -> np.ndarray:
        noise_var = k * (1.0 - alpha_target) / alpha_target
        shared = rng.normal(size=(n, 1))
        return shared + rng.normal(0.0, math.sqrt(noise_var), size=(n, k))

    matrices = {
        "hr_mean": matrix(0.96),
        "hrv_rmssd": matrix(0.96),
        "lhipa_left": matrix(0.30),
        "lhipa_right": matrix(0.30),
        "drive_avg_dev": matrix(0.30),
    }
    alphas, retained, excluded = reliability_screen(matrices)
    assert alphas["hr_mean"] >= 0.9 and alphas["hrv_rmssd"] >= 0.9
    assert all(alphas[d] <= 0.4 for d in ("lhipa_left", "lhipa_right", "drive_avg_dev"))
    assert retained == {"hr_mean", "hrv_rmssd"}
    assert excluded == {"lhipa_left", "lhipa_right", "drive_avg_dev"}


# --------------------------------------------------------------------------
# Criterion 8: CLI byte-identical re-runs at --threads 1 and 8


def test_criterion_8_cli_determinism(tmp_path):
    def tree(root: Path) -> dict[str, bytes]:
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    synth_args = ["synth", "--out", str(tmp_path / "s"), "--participants", "10", "--seed", "5"]
    assert run_cli(synth_args) == 0
    first = tree(tmp_path / "s")
    assert run_cli(synth_args) == 0
    assert tree(tmp_path / "s") == first

    dataset = str(tmp_path / "s" / "dataset")
    for threads in ("1", "8"):
        out = tmp_path / f"e{threads}"
        args = ["evaluate", "--dataset", dataset, "--out", str(out), "--seed", "5",
                "--task", "nback", "--scheme", "multi", "--subset", "heart",
                "--threads", threads]
        assert run_cli(args) == 0
        first = tree(out)
        assert run_cli(args) == 0
        assert tree(out) == first
    # thread count does not change results either
    for name in ("report_nback_multi.csv", "report_nback_multi.txt"):
        assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e8" / name).read_bytes()


# --------------------------------------------------------------------------
# Criterion 9: report shape, 4 model rows x 5 subset columns, chance caption


def test_criterion_9_report_shape():
    dataset = generate_dataset(GeneratorConfig(seed=0, n_participants=12))
    rows = featurize_dataset(dataset)
    plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=0)
    for task, scheme, chance in (
        (TaskKind.NBACK, "multi", "33.33"),
        (TaskKind.NBACK, "binary", "50"),
    ):
        report = run_nested_cv(rows, task, scheme, plan)
        text = render_report(report, "csv")
        data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        header, *body = data_lines
        assert header.split(",")[1:] == list(FEATURE_SUBSETS)  # 5 subset columns
        assert [r.split(",")[0] for r in body] == list(REPORT_ROWS)  # 4 model rows
        assert all(len(r.split(",")) == 6 for r in body)
        caption_line = next(l for l in text.splitlines() if l.startswith("# caption="))
        assert f"random chance level is {chance}%" in caption_line
