"""ECG feature tests: cleaning policy, HR statistics, RMSSD."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_segment
from loadsense.cardiac import MAX_RR_MS, MIN_RR_MS, clean_rr, compute_cardiac_features, hr_stats, rmssd

rr_lists = st.lists(st.floats(min_value=400.0, max_value=1500.0), min_size=2, max_size=200)


class TestCleanRr:
    def test_clean_input_passes(self):
        assert clean_rr([1000.0, 1000.0, 1000.0]) == [1000.0, 1000.0, 1000.0]

    def test_below_minimum_dropped(self):
        assert clean_rr([1000.0, 50.0, 1000.0]) == [1000.0, 1000.0]

    def test_large_jump_dropped_against_last_survivor(self):
        # 1300 is a +62.5% jump from 800; 810 is then compared against 800
        assert clean_rr([800.0, 1300.0, 810.0]) == [800.0, 810.0]

    def test_all_rejected_raises(self):
        with pytest.raises(ValueError, match="no valid RR intervals"):
            clean_rr([100.0, 5000.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            clean_rr([])

    @given(rr_lists)
    def test_output_is_subsequence_within_bounds(self, rr):
        kept = clean_rr(rr)
        assert all(MIN_RR_MS <= v <= MAX_RR_MS for v in kept)
        it = iter(rr)
        assert all(any(v == w for w in it) for v in kept)  # subsequence check


class TestHrStats:
    def test_constant_series(self):
        assert hr_stats([1000.0, 1000.0, 1000.0]) == (60.0, 60.0, 60.0, 0.0)

    def test_two_beats_hand_computed(self):
        mean, lo, hi, std = hr_stats([800.0, 1000.0])
        assert (mean, lo, hi) == (67.5, 60.0, 75.0)
        assert std == pytest.approx(10.6066, abs=1e-4)  # sqrt((7.5^2 + 7.5^2) / 1)

    def test_single_beat(self):
        assert hr_stats([800.0]) == (75.0, 75.0, 75.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hr_stats([])

    @given(rr_lists)
    def test_matches_brute_force(self, rr):
        mean, lo, hi, std = hr_stats(rr)
        hrs = [60000.0 / v for v in rr]
        assert mean == pytest.approx(sum(hrs) / len(hrs), abs=1e-9)
        assert lo == min(hrs) and hi == max(hrs)
        brute_std = math.sqrt(sum((h - sum(hrs) / len(hrs)) ** 2 for h in hrs) / (len(hrs) - 1))
        assert std == pytest.approx(brute_std, abs=1e-9)

    @given(rr_lists)
    def test_permutation_invariant(self, rr):
        forward = hr_stats(rr)
        shuffled = hr_stats(list(reversed(rr)))
        assert forward == pytest.approx(shuffled, abs=1e-9)


class TestRmssd:
    def test_constant_series_is_zero(self):
        assert rmssd([1000.0, 1000.0, 1000.0]) == 0.0

    def test_hand_computed(self):
        # diffs 10, -20 -> sqrt((100 + 400) / 2) = sqrt(250)
        assert rmssd([1000.0, 1010.0, 990.0]) == pytest.approx(math.sqrt(250.0), abs=1e-9)

    def test_single_interval_raises(self):
        with pytest.raises(ValueError, match="RMSSD undefined"):
            rmssd([1000.0])

    @given(rr_lists, st.floats(min_value=-200.0, max_value=200.0))
    def test_translation_invariant(self, rr, c):
        assert rmssd([v + c for v in rr]) == pytest.approx(rmssd(rr), abs=1e-6)

    @given(rr_lists, st.floats(min_value=0.5, max_value=2.0))
    def test_scales_linearly(self, rr, a):
        assert rmssd([a * v for v in rr]) == pytest.approx(a * rmssd(rr), rel=1e-9, abs=1e-9)

    @given(rr_lists)
    def test_reversal_invariant(self, rr):
        assert rmssd(list(reversed(rr))) == pytest.approx(rmssd(rr), abs=1e-9)


class TestComputeCardiacFeatures:
    def test_composes_the_formulas(self, clean_segment):
        feats = compute_cardiac_features(clean_segment.rr_intervals)
        rr = [v for _, v in clean_segment.rr_intervals]
        mean, lo, hi, std = hr_stats(rr)
        assert feats is not None
        assert (feats["hr_mean"], feats["hr_min"], feats["hr_max"], feats["hr_std"]) == (mean, lo, hi, std)
        assert feats["hrv_rmssd"] == rmssd(rr)
        assert clean_rr(rr) == rr  # every beat used

    def test_empty_channel_gives_none(self, clean_segment):
        seg = dataclasses.replace(clean_segment, rr_intervals=())
        assert compute_cardiac_features(seg.rr_intervals) is None

    def test_unusable_channel_gives_none(self, clean_segment):
        seg = dataclasses.replace(clean_segment, rr_intervals=((1.0, 10.0), (1.1, 20.0)))
        assert compute_cardiac_features(seg.rr_intervals) is None

    def test_hr_order_invariant_holds(self, clean_segment):
        rng = np.random.default_rng(0)
        rr = tuple((float(t), float(800 + rng.normal(0, 30))) for t in np.arange(1, 100))
        seg = dataclasses.replace(clean_segment, rr_intervals=rr)
        feats = compute_cardiac_features(seg.rr_intervals)
        assert feats["hr_min"] <= feats["hr_mean"] <= feats["hr_max"]
        assert feats["hr_std"] >= 0 and feats["hrv_rmssd"] >= 0
