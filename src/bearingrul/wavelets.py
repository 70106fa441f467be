"""The db5 wavelet transform, WPD, threshold denoising, Savitzky-Golay, kurtosis.

The signal stage is fixed: every transform uses the 10-tap Daubechies-5
pair DB5, denoising thresholds two detail levels, and smoothing uses the
(5, 2) Savitzky-Golay weights SAVGOL.

All transforms use periodized boundary extension, which keeps them exactly
orthonormal at every even length (odd lengths are wrap-padded by one sample
before filtering), so decompose -> reconstruct is exact to machine precision.
The Savitzky-Golay filter uses mirror extension instead, since smoothing has
no reconstruction requirement.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyInput,
    FloatOverflow,
    InvalidConfig,
    LengthMismatch,
    NegativeThreshold,
    SignalTooShort,
    TooShort,
    ZeroVariance,
)


def _as_samples(x):
    """Accept anything array-like; return a float64 1-D array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D signal")
    return arr


# ---------------------------------------------------------------------------
# The db5 filter pair
# ---------------------------------------------------------------------------

class FilterPair(NamedTuple):
    """Orthonormal two-channel decomposition pair.

    lowpass sums to sqrt(2) and has unit energy; highpass is its
    quadrature mirror (alternating-sign reversal). Reconstruction uses the
    time-reversed filters, which the periodized transpose applies implicitly.
    """

    lowpass: np.ndarray
    highpass: np.ndarray


# Daubechies' minimum-phase lowpass with 5 vanishing moments (Daubechies
# 1988): the float64 values of its spectral factorization.
_DB5_LOWPASS = np.array([
    0.16010239797419293, 0.6038292697971896, 0.724308528437773,
    0.13842814590132088, -0.242294887066382, -0.03224486958463847,
    0.0775714938400457, -0.006241490212798271, -0.012580751999081994,
    0.003335725285473771,
])
DB5 = FilterPair(_DB5_LOWPASS, _DB5_LOWPASS[::-1] * np.tile([1.0, -1.0], 5))


# ---------------------------------------------------------------------------
# One DWT level and its inverse
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _taps(n: int) -> np.ndarray:
    """Read-only (n/2, 10) map: row i holds the periodized input positions
    (2i + k) % n that output i of an even length-n level reads at tap k."""
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(DB5.lowpass.size)[None, :]) % n
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=16)
def _scatter(n: int) -> np.ndarray:
    """_taps(n) flattened tap by tap: the output position of every entry of
    a (10, n/2) contribution array, in the order idwt_level sums them."""
    idx = _taps(n).T.ravel()
    idx.flags.writeable = False
    return idx


def dwt_level(x):
    """One DB5 analysis step: periodized convolution + downsample by 2.

    Odd-length inputs are wrap-padded by one sample first, so both outputs
    have length ceil(len(x)/2).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise EmptyInput("dwt_level on empty input")
    if x.size < 2:
        raise SignalTooShort("dwt_level needs at least 2 samples")
    if x.size % 2:
        x = np.concatenate([x, x[:1]])
    windows = x[_taps(x.size)]
    return windows @ DB5.lowpass, windows @ DB5.highpass


def idwt_level(approx, detail):
    """Exact inverse of dwt_level (transpose of the orthonormal analysis map).

    Scatters every tap's contribution back through the same tap table; the
    sums run tap by tap, each over the outputs in order.
    """
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.size != detail.size:
        raise LengthMismatch(
            f"approx length {approx.size} != detail length {detail.size}")
    if approx.size == 0:
        raise EmptyInput("idwt_level on empty coefficients")
    n = 2 * approx.size
    # Each entry is the product np.outer forms, and the same sum.
    contrib = DB5.lowpass[:, None] * approx.ravel()
    contrib += DB5.highpass[:, None] * detail.ravel()
    return np.bincount(_scatter(n), weights=contrib.ravel(), minlength=n)


# ---------------------------------------------------------------------------
# Wavelet packet decomposition
# ---------------------------------------------------------------------------

def wpd(x, level: int) -> np.ndarray:
    """Decompose both branches recursively to `level`, periodized boundaries.

    Returns a (2^level, m) float64 array, one subband per row in natural
    order: the bits of the row index spell the filter path from the root,
    0 = lowpass, 1 = highpass, most significant bit first.
    """
    if level < 1:
        raise InvalidConfig("level must be >= 1")
    sig = _as_samples(x)
    if sig.size < 2 ** level:
        raise SignalTooShort(
            f"wpd level {level} needs at least {2 ** level} samples, got {sig.size}")
    bands = [sig]
    for _ in range(level):
        bands = [half for b in bands for half in dwt_level(b)]
    return np.stack(bands)


# ---------------------------------------------------------------------------
# Threshold denoising
# ---------------------------------------------------------------------------

def universal_threshold(detail, n: int) -> float:
    """Donoho universal rule: sigma_hat * sqrt(2 ln n).

    sigma_hat is the median absolute detail coefficient divided by 0.6745;
    n is the original signal length.
    """
    detail = np.asarray(detail, dtype=np.float64)
    if detail.size == 0:
        raise EmptyInput("universal_threshold on empty detail band")
    if n < 2:
        raise ValueError("n must be >= 2")
    sigma = _median(np.abs(detail)) / 0.6745
    return float(sigma * np.sqrt(2.0 * np.log(n)))


def _median(values):
    """np.median of a 1-D float64 array, bit for bit, without its wrappers.

    The one partition np.median makes puts the middle value(s) in place and
    the largest value last; a NaN sorts last and is then the median.
    """
    half = values.size // 2
    if values.size % 2:
        part = np.partition(values, (half, -1))
        mid = part[half]
    else:
        part = np.partition(values, (half - 1, half, -1))
        mid = (part[half - 1] + part[half]) / 2.0
    return part[-1] if np.isnan(part[-1]) else mid


def soft_threshold(c, t: float):
    """Shrink toward zero: sign(c) * max(|c| - t, 0)."""
    if t < 0:
        raise NegativeThreshold(f"threshold must be >= 0, got {t}")
    c = np.asarray(c, dtype=np.float64)
    return np.sign(c) * np.maximum(np.abs(c) - t, 0.0)


def wavelet_denoise(x):
    """Soft-threshold both detail bands of a two-level DWT and reconstruct.

    The approximation passes through. The noise scale is estimated once
    from the level-1 detail band and the resulting universal threshold is
    applied to both detail levels. Each level's wrap padding (odd inputs)
    is cut off again on the way back, so the output has the input's length.
    """
    samples = _as_samples(x)
    if samples.size < 4:
        raise SignalTooShort(f"need at least 2^2 samples, got {samples.size}")
    approx1, detail1 = dwt_level(samples)
    approx2, detail2 = dwt_level(approx1)
    t = universal_threshold(detail1, samples.size)
    approx1 = idwt_level(approx2, soft_threshold(detail2, t))[:approx1.size]
    return idwt_level(approx1, soft_threshold(detail1, t))[:samples.size]


# ---------------------------------------------------------------------------
# Savitzky-Golay smoothing
# ---------------------------------------------------------------------------

def _savgol_weights():
    # The least-squares quadratic fit to 5 samples, read at the center, is a
    # fixed linear map: w = A (A^T A)^{-1} e0 with A[r, j] = r^j, r = -2..2.
    design = np.vander(np.arange(-2.0, 3.0), 3, increasing=True)
    return design @ np.linalg.solve(design.T @ design, np.eye(3)[:, 0])


SAVGOL = _savgol_weights()


def savgol_filter(x):
    """Smooth with SAVGOL by centered convolution; mirror-extend the boundaries.

    The output has the input's length.
    """
    samples = _as_samples(x)
    if samples.size < SAVGOL.size:
        raise SignalTooShort(
            f"signal length {samples.size} < window {SAVGOL.size}")
    # Mirror extension without repeating the edge sample: np.pad's "reflect".
    padded = np.concatenate((samples[2:0:-1], samples, samples[-2:-4:-1]))
    return np.convolve(padded, SAVGOL[::-1], mode="valid")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def kurtosis(x) -> float:
    """Pearson (non-excess) kurtosis m4 / m2^2; Gaussian data gives ~3.

    Central sample moments with 1/n normalization. Translation- and
    scale-invariant by construction.
    """
    samples = _as_samples(x)
    if samples.size < 4:
        raise TooShort(f"kurtosis needs at least 4 samples, got {samples.size}")
    n = samples.size  # each mean is sum / n, as ndarray.mean divides
    with np.errstate(over="ignore", invalid="ignore"):
        centered = samples - samples.sum() / n
        m2 = float((centered ** 2).sum() / n)
        m4 = float((centered ** 4).sum() / n)
    if m2 == 0.0:
        raise ZeroVariance("kurtosis undefined for a constant signal")
    # A NaN sample gives NaN; finite ones may overflow or underflow.
    if not (m4 < np.inf and m2 * m2 > 0.0) and not np.isnan(samples).any():
        raise FloatOverflow("kurtosis moments leave the float64 range")
    return m4 / (m2 * m2)
