"""Wavelet machinery and pupillary-activity index tests.

The 50-signal fixture file was produced offline by scripts/make_lhipa_fixtures.py,
which transcribes the index pipeline naively (explicit per-coefficient sums);
these tests only replay the frozen expected values.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loadsense.pupil import (
    RESAMPLE_RATE_HZ,
    SYM16,
    _band_ratio,
    _dwt_step,
    compute_lhipa,
    dwt_detail,
    lhipa,
    max_decomposition_level,
    modulus_maxima,
    preprocess_pupil,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lhipa_reference.csv"


def _fixture_signal(seed: int, rate_hz: float, duration_s: float) -> np.ndarray:
    """Regenerate the fixture input signals (same recipe as the oracle script)."""
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


class TestFilterBank:
    def test_lowpass_sums_to_sqrt2(self):
        assert sum(SYM16.dec_lo) == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_even_shifts_are_orthonormal(self):
        lo = np.asarray(SYM16.dec_lo)
        for shift in range(0, len(lo), 2):
            expected = 1.0 if shift == 0 else 0.0
            assert np.dot(lo, np.roll(lo, shift) * (np.arange(len(lo)) >= shift)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_highpass_annihilates_constants(self):
        assert sum(SYM16.dec_hi) == pytest.approx(0.0, abs=1e-10)

    def test_filter_length(self):
        assert SYM16.filter_len == 32


class TestDwt:
    @pytest.mark.parametrize("n", [64, 100, 257, 1000, 14400, 19999])
    @pytest.mark.parametrize("level", [1, 2, 4, 6])
    def test_output_length_is_ceil_n_over_2_to_level(self, n, level):
        if n < 2**level:
            pytest.skip("too short for this level")
        x = np.random.default_rng(n * 31 + level).normal(size=n)
        expected = n
        for _ in range(level):
            expected = math.ceil(expected / 2)
        assert len(dwt_detail(x, level)) == expected

    def test_spec_length_example(self):
        x = np.random.default_rng(0).normal(size=14400)
        assert len(dwt_detail(x, 4)) == 900

    def test_constant_signal_gives_zero_details(self):
        x = np.full(4096, 4.0)
        for level in (1, 2, 3, 4):
            assert np.max(np.abs(dwt_detail(x, level))) <= 1e-10

    @pytest.mark.parametrize("n", [64, 128, 1024, 4096, 14400])
    def test_parseval_identity_at_level_1(self, n):
        x = np.random.default_rng(n).normal(size=n)
        energy = np.sum(_dwt_step(x, np.asarray(SYM16.dec_lo)) ** 2) + np.sum(dwt_detail(x, 1) ** 2)
        assert energy == pytest.approx(np.sum(x**2), rel=1e-6)

    def test_level_below_one_rejected(self):
        with pytest.raises(ValueError):
            dwt_detail(np.zeros(64), 0)

    def test_too_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            dwt_detail(np.zeros(4), 3)


class TestMaxDecompositionLevel:
    def test_formula(self):
        # floor(log2(n / (filter_len - 1)))
        assert max_decomposition_level(14400) == int(math.floor(math.log2(14400 / 31)))

    @given(st.integers(min_value=64, max_value=100000))
    def test_matches_direct_formula(self, n):
        assert max_decomposition_level(n) == int(math.floor(math.log2(n / 31)))


class TestModulusMaxima:
    def test_single_peak(self):
        assert modulus_maxima([0.0, 1.0, 0.0]).tolist() == [0.0, 1.0, 0.0]

    def test_plateau_killed_by_strict_left_rule(self):
        assert modulus_maxima([1.0, 1.0, 1.0]).tolist() == [0.0, 0.0, 0.0]

    def test_signed_output_preserved(self):
        assert modulus_maxima([0.0, -2.0, 0.0, 3.0, 0.0]).tolist() == [0.0, -2.0, 0.0, 3.0, 0.0]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            modulus_maxima([1.0, 2.0])

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=60))
    def test_matches_brute_force_rule(self, xs):
        out = modulus_maxima(xs)
        for i, v in enumerate(out):
            if 0 < i < len(xs) - 1 and abs(xs[i]) > abs(xs[i - 1]) and abs(xs[i]) >= abs(xs[i + 1]):
                assert v == xs[i]
            else:
                assert v == 0.0


class TestLhipa:
    def test_constant_signal_is_exactly_zero(self):
        assert lhipa(np.full(14400, 4.0)) == 0.0

    def test_matches_frozen_oracle_fixtures(self):
        with open(FIXTURES) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        for row in rows:
            signal = _fixture_signal(int(row["seed"]), float(row["rate_hz"]), float(row["duration_s"]))
            assert lhipa(signal) == pytest.approx(float(row["expected_lhipa"]), abs=1e-6)

    def test_offset_invariance(self):
        signal = _fixture_signal(5, 120.0, 120.0)
        assert lhipa(signal + 2.5) == pytest.approx(lhipa(signal), abs=1e-9)

    def test_bounded_by_detail_count_per_second(self):
        signal = _fixture_signal(9, 120.0, 120.0)
        n_low = len(dwt_detail(signal, max_decomposition_level(len(signal)) // 2))
        value = lhipa(signal)
        assert 0.0 <= value <= n_low / (len(signal) / RESAMPLE_RATE_HZ)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            lhipa(np.zeros(64))


def _reference_band_ratio(cd_l, cd_h, stride):
    """The per-coefficient loop `_band_ratio` replaced: the oracle for it."""
    ratio = np.zeros(len(cd_l))
    for i in range(len(cd_l)):
        j = i * stride
        if j >= len(cd_h):
            break
        den = cd_h[j]
        ratio[i] = cd_l[i] / den if abs(den) >= 1e-12 else 0.0
    return ratio


def _bands(samples):
    """The normalized detail bands and stride that `lhipa` forms from a signal."""
    lof = max_decomposition_level(len(samples)) // 2
    cd_h = dwt_detail(samples, 1) / math.sqrt(2.0)
    cd_l = dwt_detail(samples, lof) / math.sqrt(2.0**lof)
    return cd_l, cd_h, 2 ** (lof - 1)


class TestBandRatioOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_signals_match_the_loop_bit_for_bit(self, seed):
        rate, duration = ((60.0, 120.0), (120.0, 150.0))[seed % 2]
        cd_l, cd_h, stride = _bands(_fixture_signal(seed, rate, duration))
        assert _band_ratio(cd_l, cd_h, stride).tobytes() == _reference_band_ratio(cd_l, cd_h, stride).tobytes()

    def test_zero_high_band_gives_zeros_like_the_loop(self):
        cd_l, cd_h, stride = _bands(_fixture_signal(1, 120.0, 120.0))
        cd_h = np.zeros_like(cd_h)
        ratio = _band_ratio(cd_l, cd_h, stride)
        assert ratio.tobytes() == _reference_band_ratio(cd_l, cd_h, stride).tobytes()
        assert not np.any(ratio)

    @pytest.mark.parametrize("n_low,n_high,stride", [(10, 40, 4), (10, 33, 4), (10, 5, 1), (3, 0, 2), (0, 8, 2)])
    def test_short_high_band_tiny_and_non_finite_denominators(self, n_low, n_high, stride):
        rng = np.random.default_rng(n_low * 100 + n_high)
        cd_l = rng.normal(size=n_low)
        cd_h = rng.normal(size=n_high)
        special = np.array([1e-12, -1e-12, 9.999e-13, 0.0, -0.0, np.nan, np.inf, 5e-324])
        used = cd_h[::stride]  # a view: the denominators the ratio reads
        used[: len(special)] = special[: len(used)]
        assert _band_ratio(cd_l, cd_h, stride).tobytes() == _reference_band_ratio(cd_l, cd_h, stride).tobytes()


class TestPreprocess:
    def test_uniform_gapless_input_is_identity(self):
        t = np.arange(1200) / 120.0
        raw = np.array([(float(tt), 4.0 + 0.1 * math.sin(tt), 1.0) for tt in t])
        samples = preprocess_pupil(raw)
        assert samples is not None
        assert np.allclose(samples, [d for _, d, _ in raw], atol=1e-12)

    def test_gap_in_constant_signal_interpolates_to_constant(self):
        t = np.arange(1200) / 120.0
        raw = np.array([(float(tt), 4.0, 0.0 if 0.5 < tt < 0.7 else 1.0) for tt in t])
        samples = preprocess_pupil(raw)
        assert samples is not None
        assert np.allclose(samples, 4.0, atol=1e-12)

    def test_forty_percent_gap_is_missing(self):
        t = np.arange(1200) / 120.0
        raw = np.array([(float(tt), 4.0, 0.0 if i % 5 < 2 else 1.0) for i, tt in enumerate(t)])
        assert preprocess_pupil(raw) is None

    def test_every_gap_sample_counts_the_same(self):
        # 72 gap samples in 10 s either way: one 0.6 s gap, or six 0.1 s gaps
        one_gap = np.column_stack((np.arange(1200) / 120.0, np.full(1200, 4.0), np.ones(1200)))
        six_gaps = one_gap.copy()
        one_gap[240:312, 2] = 0.0
        for k in range(1, 7):
            six_gaps[120 * k : 120 * k + 12, 2] = 0.0
        for raw in (one_gap, six_gaps):
            samples = preprocess_pupil(raw)
            assert samples is not None and len(samples) == 1200

    def test_under_two_seconds_is_missing(self):
        raw = np.array([(i / 120.0, 4.0, 1.0) for i in range(120)])
        assert preprocess_pupil(raw) is None

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            preprocess_pupil([])


class TestComputeLhipa:
    def test_matches_direct_pipeline_on_clean_input(self):
        signal = _fixture_signal(11, 120.0, 120.0)
        raw = np.array([(float(i / 120.0), float(v), 1.0) for i, v in enumerate(signal)])
        assert compute_lhipa(raw) == pytest.approx(lhipa(signal), abs=1e-12)

    def test_empty_and_gappy_inputs_give_none(self):
        assert compute_lhipa([]) is None
        raw = np.array([(i / 120.0, 4.0, 0.0) for i in range(14400)])
        assert compute_lhipa(raw) is None
