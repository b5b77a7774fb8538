"""Pupillary activity index from the low/high-frequency wavelet detail ratio.

The index counts thresholded modulus maxima of the ratio between a
low-frequency and a high-frequency detail band of the pupil diameter
signal resampled to RESAMPLE_RATE_HZ, per second of signal.  The wavelet
machinery (a 32-tap least-asymmetric orthonormal filter bank with
periodized extension) is self-contained; the filter coefficients are
embedded as constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PUPIL_GAP_CONFIDENCE, PUPIL_MAX_GAP_FRACTION, pupil_gap_fraction

# Decomposition low-pass filter: 32-tap orthonormal least-asymmetric filter
# with 16 vanishing moments, generated by spectral factorization of the
# degree-15 Daubechies polynomial (root subset chosen to minimize impulse
# response asymmetry).  sum == sqrt(2), shifts by 2 are orthonormal.
_SYM16_DEC_LO = (
    7.681055321580372e-06,
    2.1884746082762307e-06,
    -0.00012571947066341882,
    -6.867177495769291e-05,
    0.0008278878337619905,
    0.0004739582164680316,
    -0.002829015110854247,
    0.00027894521822966297,
    0.009068176115021837,
    -0.008896898240355958,
    -0.037832884428177754,
    0.0018288836548515813,
    0.05593153234187481,
    0.014878476138344018,
    0.09354335053640268,
    0.48961122195009915,
    0.7302317048616664,
    0.3430049861902869,
    -0.18908481775394087,
    -0.21335773210182848,
    0.04794252996031356,
    0.10496536620780125,
    0.0011683676555562733,
    -0.0320553214132558,
    -0.002317790908133712,
    0.00759862665051159,
    0.0006523872206013787,
    -0.0012946563598614225,
    -7.910406860844333e-05,
    0.0001461664821495393,
    2.4953464053690486e-06,
    -8.758106543097312e-06,
)


@dataclass(frozen=True)
class WaveletSpec:
    """Orthonormal filter bank given by its decomposition low-pass; periodized extension only."""

    dec_lo: tuple[float, ...]

    @property
    def dec_hi(self) -> tuple[float, ...]:
        # quadrature mirror of the low-pass; annihilates constants
        lo = self.dec_lo
        n = len(lo)
        return tuple((-1.0) ** i * lo[n - 1 - i] for i in range(n))

    @property
    def filter_len(self) -> int:
        return len(self.dec_lo)


SYM16 = WaveletSpec(dec_lo=_SYM16_DEC_LO)


MIN_USABLE_S = 2.0
RESAMPLE_RATE_HZ = 120.0


def preprocess_pupil(raw: np.ndarray) -> np.ndarray | None:
    """Gap-fill and resample an (n, 3) array of (t, diameter, confidence)
    samples to the uniform RESAMPLE_RATE_HZ grid; returns the diameters.

    Samples below the confidence threshold are gaps, and every gap sample
    counts the same toward the gap budget, however long its gap.
    Leading/trailing gaps are trimmed; interior gaps of any length are
    bridged by linear interpolation.  Returns None when more than 25% of the
    samples are gaps (the rule `validate_segment` warns on), fewer than
    2 s of usable signal remain, any sample time is not finite, or a sample
    that is not a gap has a non-finite diameter (a gap's diameter is unused).
    """
    if len(raw) == 0:
        raise ValueError("preprocess_pupil: empty input")
    if not np.isfinite(raw[:, 0]).all():
        return None
    good = raw[:, 2] >= PUPIL_GAP_CONFIDENCE
    if not np.isfinite(raw[good, 1]).all():
        return None
    if good.sum() < 2:
        return None
    if pupil_gap_fraction(raw) > PUPIL_MAX_GAP_FRACTION:
        return None

    t = raw[good, 0]
    d = raw[good, 1]
    t0, t1 = t[0], t[-1]
    if t1 - t0 < MIN_USABLE_S:
        return None

    n = int(math.floor((t1 - t0) * RESAMPLE_RATE_HZ)) + 1
    grid = t0 + np.arange(n) / RESAMPLE_RATE_HZ
    return np.interp(grid, t, d)


def _dwt_step(x: np.ndarray, filt: np.ndarray) -> np.ndarray:
    """One analysis step with periodized extension and downsampling by 2.

    Odd-length input is first extended by repeating its last sample.
    Output length is ceil(len(x) / 2).
    """
    if len(x) % 2:
        x = np.concatenate([x, x[-1:]])
    n = len(x)
    L = len(filt)
    # left periodic pad so index 2k+1-i never wraps negative
    xe = np.concatenate([x[-(L - 1):], x]) if n >= L - 1 else np.concatenate(
        [np.tile(x, (L - 1) // n + 1)[-(L - 1):], x]
    )
    conv = np.convolve(xe, filt)
    return conv[L : L + n : 2].copy()


def dwt_detail(signal: Sequence[float], level: int) -> np.ndarray:
    """Detail coefficients at `level`: level-1 low-pass cascades then one high-pass."""
    if level < 1:
        raise ValueError("level must be >= 1")
    x = np.asarray(signal, dtype=float)
    if len(x) < 2**level:
        raise ValueError(f"signal of length {len(x)} too short for level {level}")
    lo = np.asarray(SYM16.dec_lo)
    hi = np.asarray(SYM16.dec_hi)
    for _ in range(level - 1):
        x = _dwt_step(x, lo)
    return _dwt_step(x, hi)


def max_decomposition_level(n: int) -> int:
    return int(math.floor(math.log2(n / (SYM16.filter_len - 1))))


def modulus_maxima(x: Sequence[float]) -> np.ndarray:
    """Keep x[i] where |x[i]| strictly exceeds its left neighbor and is >= its
    right neighbor; everything else (including endpoints) becomes 0."""
    x = np.asarray(x, dtype=float)
    if len(x) < 3:
        raise ValueError("modulus_maxima: need at least 3 samples")
    m = np.abs(x)
    out = np.zeros_like(x)
    keep = (m[1:-1] > m[:-2]) & (m[1:-1] >= m[2:])
    out[1:-1][keep] = x[1:-1][keep]
    return out


def _band_ratio(cd_l: np.ndarray, cd_h: np.ndarray, stride: int) -> np.ndarray:
    """cd_l[i] / cd_h[i * stride] for each low-band coefficient; 0 where that
    high-band coefficient is below 1e-12 in magnitude or past its band's end."""
    den = cd_h[::stride][: len(cd_l)]
    ratio = np.zeros(len(cd_l))
    np.divide(cd_l[: len(den)], den, out=ratio[: len(den)], where=np.abs(den) >= 1e-12)
    return ratio


def lhipa(samples: np.ndarray) -> float:
    """Low/high pupillary activity index of RESAMPLE_RATE_HZ samples, in events per second.

    Pipeline: detail bands at levels 1 (high) and maxlevel//2 (low), each
    normalized by 1/sqrt(2^level); pointwise low/high ratio with index
    mapping i -> i * 2^(lof-1) and zero where the denominator vanishes;
    modulus maxima; universal threshold sigma * sqrt(2 * log2(n)) zeroing
    large-magnitude maxima; surviving count divided by signal duration.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    maxlevel = max_decomposition_level(n)
    if maxlevel < 2:
        raise ValueError("signal too short for the two-band decomposition")
    hif, lof = 1, maxlevel // 2

    cd_h = dwt_detail(x, hif) / math.sqrt(2.0**hif)
    cd_l = dwt_detail(x, lof) / math.sqrt(2.0**lof)

    maxima = modulus_maxima(_band_ratio(cd_l, cd_h, 2 ** (lof - hif)))
    lam = float(np.std(maxima)) * math.sqrt(2.0 * math.log2(len(maxima)))
    kept = maxima.copy()
    kept[np.abs(kept) > lam] = 0.0
    count = int(np.count_nonzero(kept))
    return count / (n / RESAMPLE_RATE_HZ)


def compute_lhipa(raw: np.ndarray) -> float | None:
    """Preprocess one eye's (n, 3) sample array and compute the index; None when unusable."""
    if len(raw) == 0:
        return None
    samples = preprocess_pupil(raw)
    if samples is None:
        return None
    try:
        return lhipa(samples)
    except ValueError:
        return None
