"""Correctness checks for the benchmark's outputs.

Each check recomputes what it verifies separately from the program (plain
Python formulas, the naive LHIPA transcription in
scripts/make_lhipa_fixtures.py, scipy.stats) or tests a property the method
must have.  None compares against a saved copy of earlier output.  Every
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np

from loadsense.core import FEATURE_NAMES, TaskKind
from loadsense.evaluate import render_report

ROOT = Path(__file__).resolve().parents[1]

MODEL_ROWS = ("LDA", "KNN", "AdaBoost", "Ensemble")
SUBSET_COLUMNS = ("all", "eye_drive", "heart_eye", "heart_drive", "heart")


def _segment_key(seg):
    return (seg.participant_id, seg.task.value, int(seg.level))


def check_roundtrip(generated, loaded, skipped: list[str]) -> list[str]:
    """Every written segment loads back bit-exactly, and none is skipped."""
    errors = [f"segment skipped on load: {msg}" for msg in skipped]
    if len(loaded.segments) != len(generated.segments):
        errors.append(f"wrote {len(generated.segments)} segments, loaded {len(loaded.segments)}")
        return errors
    for want, got in zip(sorted(generated.segments, key=_segment_key), sorted(loaded.segments, key=_segment_key)):
        where = "/".join(map(str, _segment_key(want)))
        if _segment_key(want) != _segment_key(got) or want.duration_s.hex() != got.duration_s.hex():
            errors.append(f"{where}: identity or duration differs after the round trip")
            continue
        for channel in ("rr_intervals", "pupil_left", "pupil_right", "driving"):
            a = np.asarray(getattr(want, channel), dtype=np.float64)
            b = np.asarray(getattr(got, channel), dtype=np.float64)
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                errors.append(f"{where}: {channel} is not bit-identical after the round trip")
        events_a = [(e.t_s.hex(), e.kind.value, e.payload) for e in want.events]
        events_b = [(e.t_s.hex(), e.kind.value, e.payload) for e in got.events]
        if events_a != events_b:
            errors.append(f"{where}: events differ after the round trip")
    return errors


def _clean_rr(rr: list[float]) -> list[float]:
    """Artifact rejection as specified: keep 300..2000 ms beats whose change
    from the last kept beat is at most 25%."""
    kept: list[float] = []
    for value in rr:
        if 300.0 <= value <= 2000.0 and (not kept or abs(value - kept[-1]) / kept[-1] <= 0.25):
            kept.append(value)
    return kept


def check_cardiac(dataset, rows) -> list[str]:
    """hr_mean and hrv_rmssd equal the plain-Python formulas on the cleaned RR."""
    by_key = {(r.participant, r.task.value, int(r.level)): r.features for r in rows}
    errors = []
    for seg in dataset.segments:
        key = _segment_key(seg)
        features = by_key.get(key)
        if features is None:
            errors.append(f"{key}: no feature row")
            continue
        kept = _clean_rr([rr for _, rr in seg.rr_intervals])
        if len(kept) < 2:
            if features.hr_mean is not None:
                errors.append(f"{key}: hr_mean present for an unusable RR channel")
            continue
        hr_mean = sum(60000.0 / rr for rr in kept) / len(kept)
        rmssd = math.sqrt(sum((b - a) ** 2 for a, b in zip(kept, kept[1:])) / (len(kept) - 1))
        for name, want, got in (("hr_mean", hr_mean, features.hr_mean), ("hrv_rmssd", rmssd, features.hrv_rmssd)):
            if got is None or not math.isclose(want, got, rel_tol=1e-9):
                errors.append(f"{key}: {name} {got!r} != {want!r}")
    return errors


def _uniform_pupil(samples, rate_hz: float = 120.0):
    """Gap handling as specified: confidence < 0.6 is a gap; more than 25%
    gap or under 2 s of signal is unusable; interior gaps are bridged
    linearly onto a uniform grid from the first to the last good sample."""
    arr = np.asarray(samples, dtype=float)
    good = arr[:, 2] >= 0.6
    if good.sum() < 2 or (~good).mean() > 0.25:
        return None
    t, d = arr[good, 0], arr[good, 1]
    if t[-1] - t[0] < 2.0:
        return None
    n = int(math.floor((t[-1] - t[0]) * rate_hz)) + 1
    return np.interp(t[0] + np.arange(n) / rate_hz, t, d).tolist()


def check_lhipa(dataset, rows, seed: int, n_segments: int = 2) -> list[str]:
    """LHIPA of `n_segments` seeded picks (alternating eyes) matches the
    naive transcription in scripts/make_lhipa_fixtures.py within 1e-6."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        from make_lhipa_fixtures import naive_lhipa
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    from loadsense.pupil import SYM16

    by_key = {(r.participant, r.task.value, int(r.level)): r.features for r in rows}
    picks = random.Random(seed).sample(sorted(dataset.segments, key=_segment_key), n_segments)
    errors = []
    for i, seg in enumerate(picks):
        eye = ("left", "right")[i % 2]
        key = _segment_key(seg)
        got = by_key[key].value(f"lhipa_{eye}")
        signal = _uniform_pupil(getattr(seg, f"pupil_{eye}"))
        if signal is None:
            if got is not None:
                errors.append(f"{key}: lhipa_{eye} {got!r} for an unusable pupil channel")
            continue
        want = naive_lhipa(signal, 120.0, list(SYM16.dec_lo))
        if got is None or abs(got - want) > 1e-6:
            errors.append(f"{key}: lhipa_{eye} {got!r} != naive {want!r}")
    return errors


def check_report_csv(text: str, scheme: str, n_folds: int = 5) -> list[str]:
    """4 model rows x 5 subsets, means in [0, 100], stds >= 0, and the
    caption names the scheme's chance level and the fold count."""
    errors = []
    comments = [l for l in text.splitlines() if l.startswith("#")]
    body = [l for l in text.splitlines() if l and not l.startswith("#")]
    chance = "33.33%" if scheme == "multi" else "50%"
    caption = next((l for l in comments if l.startswith("# caption=")), "")
    if f"over {n_folds} folds" not in caption or f"chance level is {chance}" not in caption:
        errors.append(f"caption {caption!r} lacks the fold count or the {chance} chance level")
    if not body or body[0].split(",") != ["model", *SUBSET_COLUMNS]:
        errors.append(f"report header {body[:1]!r} is not model + the 5 subsets")
        return errors
    if [l.split(",")[0] for l in body[1:]] != list(MODEL_ROWS):
        errors.append(f"report rows {[l.split(',')[0] for l in body[1:]]} are not {list(MODEL_ROWS)}")
    for line in body[1:]:
        cells = line.split(",")[1:]
        if len(cells) != len(SUBSET_COLUMNS):
            errors.append(f"row {line!r} does not have 5 cells")
        for cell in cells:
            mean, _, std = cell.partition("+-")
            if not (0.0 <= float(mean) <= 100.0 and float(std) >= 0.0):
                errors.append(f"cell {cell!r} outside [0, 100] or with a negative std")
    return errors


def _read_features_csv(path: Path) -> dict[tuple[str, str, str], dict[str, float | None]]:
    with open(path, encoding="utf-8") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    table = {}
    for rec in csv.DictReader(lines):
        key = (rec["participant"], rec["task"], rec["level"])
        table[key] = {n: (float(rec[n]) if rec[n] != "" else None) for n in FEATURE_NAMES}
    return table


def _column(table, dim: str, task: str, level: str) -> list[float]:
    participants = sorted({k[0] for k in table})
    out = []
    for p in participants:
        row = table.get((p, task, level))
        v = None if row is None else row[dim]
        out.append(math.nan if v is None else v)
    return out


def _stars(p: float) -> str:
    return "" if math.isnan(p) else "**" if p < 0.001 else "*" if p < 0.05 else ""


def check_stats(features_csv: Path, stats_dir: Path) -> list[str]:
    """Paired-t rows and the Pearson correlation matrix agree with
    scipy.stats, recomputed from the features table the same run wrote."""
    from scipy import stats as sps

    table = _read_features_csv(features_csv)
    errors = []

    retained = set()
    with open(stats_dir / "reliability.csv", encoding="utf-8") as fh:
        for rec in csv.DictReader(l for l in fh if not l.startswith("#")):
            if rec["retained"] == "True":
                retained.add(rec["dimension"])
    expected_rows = {(d, t.value, f"{lo}-vs-{hi}") for d in retained for t in TaskKind
                     for lo, hi in (("easy", "medium"), ("medium", "hard"))}
    seen_rows = set()
    with open(stats_dir / "paired_tests.csv", encoding="utf-8") as fh:
        for rec in csv.DictReader(l for l in fh if not l.startswith("#")):
            key = (rec["dimension"], rec["task"], rec["comparison"])
            seen_rows.add(key)
            lo, _, hi = rec["comparison"].partition("-vs-")
            a = np.asarray(_column(table, rec["dimension"], rec["task"], lo))
            b = np.asarray(_column(table, rec["dimension"], rec["task"], hi))
            mask = ~np.isnan(a) & ~np.isnan(b)
            ref = sps.ttest_rel(a[mask], b[mask])
            if (abs(float(rec["t"]) - ref.statistic) > 0.51e-4 or abs(float(rec["p"]) - ref.pvalue) > 0.51e-6
                    or int(rec["df"]) != mask.sum() - 1 or int(rec["n"]) != mask.sum()):
                errors.append(f"paired t {key}: file t={rec['t']} p={rec['p']}, "
                              f"scipy t={ref.statistic:.6f} p={ref.pvalue:.8f}")
    if seen_rows != expected_rows:
        errors.append(f"paired t rows {sorted(seen_rows)} != retained dimensions x tasks x comparisons")

    lines = (stats_dir / "correlations.txt").read_text(encoding="utf-8").splitlines()
    labels = lines[0].split()
    if len(lines) != len(labels) + 1:
        return errors + [f"correlations.txt has {len(lines) - 1} rows for {len(labels)} columns"]
    columns = {}
    for label in labels:
        dim, task, level = label.split(".")
        columns[label] = np.asarray(_column(table, dim, task, level))
    n_pairs = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, line in enumerate(lines[1:]):
            tokens = line.split()
            if tokens[0] != labels[i] or len(tokens) != i + 2:
                errors.append(f"correlations.txt row {i} is malformed: {line!r}")
                continue
            for j, cell in enumerate(tokens[1:]):
                x, y = columns[labels[i]], columns[labels[j]]
                mask = ~np.isnan(x) & ~np.isnan(y)
                if i == j:
                    ok = cell == "1.000"
                elif mask.sum() < 3 or np.ptp(x[mask]) == 0 or np.ptp(y[mask]) == 0:
                    ok = cell == "n/a"
                else:
                    ref = sps.pearsonr(x[mask], y[mask])
                    value = cell.rstrip("*")
                    ok = (value != "n/a" and abs(float(value) - ref.statistic) <= 0.51e-3
                          and cell[len(value):] == _stars(ref.pvalue))
                    n_pairs += 1
                if not ok:
                    errors.append(f"pearson {labels[i]} x {labels[j]}: file {cell!r}")
    if n_pairs == 0:
        errors.append("correlations.txt has no Pearson entry to check")
    return errors


def check_threads_identical(report_t1, report_t2) -> list[str]:
    """A report computed at threads=2 renders byte-identically to the
    threads=1 report restricted to the same subsets."""
    subsets = {s for _, s in report_t2.cells}
    restricted = dataclasses.replace(report_t1, cells={k: v for k, v in report_t1.cells.items() if k[1] in subsets})
    errors = []
    for fmt in ("csv", "txt"):
        if render_report(restricted, fmt) != render_report(report_t2, fmt):
            errors.append(f"threads=2 {fmt} report differs from threads=1 on subsets {sorted(subsets)}")
    return errors

