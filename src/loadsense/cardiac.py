"""ECG-derived features: heart-rate statistics and HRV-RMSSD."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# artifact-rejection bounds for raw RR intervals
MIN_RR_MS = 300.0
MAX_RR_MS = 2000.0
MAX_SUCCESSIVE_CHANGE = 0.25


def clean_rr(rr: Sequence[float]) -> list[float]:
    """Drop beats outside [MIN_RR_MS, MAX_RR_MS] and jumps larger than
    MAX_SUCCESSIVE_CHANGE of the previous beat.

    The change check compares each candidate against the last *surviving*
    beat, so a single ectopic does not reject its successors.
    """
    if len(rr) == 0:
        raise ValueError("clean_rr: empty RR sequence")
    kept: list[float] = []
    for value in rr:
        if not MIN_RR_MS <= value <= MAX_RR_MS:
            continue
        if kept and abs(value - kept[-1]) / kept[-1] > MAX_SUCCESSIVE_CHANGE:
            continue
        kept.append(value)
    if not kept:
        raise ValueError("no valid RR intervals")
    return kept


def hr_stats(rr: Sequence[float]) -> tuple[float, float, float, float]:
    """(mean, min, max, sample std) of instantaneous heart rate, 60000/rr_ms per beat."""
    if len(rr) == 0:
        raise ValueError("hr_stats: empty RR sequence")
    hr = 60000.0 / np.asarray(rr, dtype=float)
    std = float(np.std(hr, ddof=1)) if len(hr) > 1 else 0.0
    return float(np.mean(hr)), float(np.min(hr)), float(np.max(hr)), std


def rmssd(rr: Sequence[float]) -> float:
    """Root mean square of successive RR differences, in milliseconds."""
    if len(rr) < 2:
        raise ValueError("RMSSD undefined for fewer than 2 intervals")
    diffs = np.diff(np.asarray(rr, dtype=float))
    return math.sqrt(float(np.mean(diffs**2)))


def compute_cardiac_features(rr_intervals: np.ndarray) -> dict[str, float] | None:
    """The five ECG features of an (onset_s, rr_ms) array by feature name; None when unusable."""
    try:
        kept = clean_rr(rr_intervals[:, 1])
    except ValueError:
        return None
    if len(kept) < 2:
        return None
    mean, lo, hi, std = hr_stats(kept)
    return {"hr_mean": mean, "hr_min": lo, "hr_max": hi, "hr_std": std, "hrv_rmssd": rmssd(kept)}
