"""Wavelet filter banks, DWT/WPD, threshold denoising, Savitzky-Golay, kurtosis.

The signal stage is fixed: every transform uses the 10-tap Daubechies-5
pair DB5, denoising thresholds DENOISE_LEVELS detail levels, and smoothing
uses the (5, 2) Savitzky-Golay kernel SAVGOL.

All transforms use periodized boundary extension, which keeps them exactly
orthonormal at every even length (odd lengths are wrap-padded by one sample
before filtering), so decompose -> reconstruct is exact to machine precision.
The Savitzky-Golay filter uses mirror extension instead, since smoothing has
no reconstruction requirement.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import (
    EmptyInput,
    InvalidConfig,
    InvalidWindow,
    LengthMismatch,
    NegativeThreshold,
    OrderTooHigh,
    SignalTooShort,
    TooShort,
    ZeroVariance,
)

SQRT2 = np.sqrt(2.0)
DENOISE_LEVELS = 2


def _as_samples(x):
    """Accept anything array-like; return a float64 1-D array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D signal")
    return arr


# ---------------------------------------------------------------------------
# Filter banks
# ---------------------------------------------------------------------------

@dataclass
class FilterBank:
    """Orthonormal two-channel decomposition pair.

    lowpass sums to sqrt(2) and has unit energy; highpass is its
    quadrature mirror (alternating-sign reversal). Reconstruction uses the
    time-reversed filters, which the periodized transpose applies implicitly.
    """

    lowpass: np.ndarray
    highpass: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.lowpass = np.asarray(self.lowpass, dtype=np.float64)
        self.highpass = np.asarray(self.highpass, dtype=np.float64)
        if abs(self.lowpass.sum() - SQRT2) > 1e-12:
            raise ValueError(f"{self.name}: lowpass must sum to sqrt(2)")
        if abs((self.lowpass ** 2).sum() - 1.0) > 1e-12:
            raise ValueError(f"{self.name}: lowpass must have unit energy")
        if not np.allclose(self.highpass, quadrature_mirror(self.lowpass),
                           rtol=0.0, atol=1e-12):
            raise ValueError(f"{self.name}: highpass is not the quadrature mirror")


def quadrature_mirror(lowpass):
    """Alternating-sign reversal: g[k] = (-1)^k h[L-1-k]."""
    g = np.asarray(lowpass, dtype=np.float64)[::-1].copy()
    g[1::2] *= -1.0
    return g


def daubechies_filters(order: int) -> FilterBank:
    """Daubechies orthonormal filter pair with `order` vanishing moments.

    Built by spectral factorization: the binomial half-band polynomial
    P(y) = sum_k C(order-1+k, k) y^k is rooted, each y-root mapped to its
    inside-unit-circle z-root of z^2 - (2-4y)z + 1 = 0, and the lowpass
    assembled as (1+z)^order times the minimum-phase root product.
    Supported for order 1..10.
    """
    if not 1 <= order <= 10:
        raise ValueError("daubechies_filters supports orders 1..10")
    poly = [comb(order - 1 + k, k) for k in range(order)]
    yroots = np.roots(poly[::-1]) if order > 1 else np.array([])
    h = np.array([1.0 + 0j])
    for _ in range(order):
        h = np.convolve(h, [1.0, 1.0])
    for y in yroots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        z = (b + disc) / 2.0
        if abs(z) >= 1.0:
            z = (b - disc) / 2.0
        h = np.convolve(h, [1.0, -z])
    h = np.real(h)
    h *= SQRT2 / h.sum()
    return FilterBank(lowpass=h, highpass=quadrature_mirror(h), name=f"db{order}")


DB5 = daubechies_filters(5)


# ---------------------------------------------------------------------------
# DWT / inverse DWT
# ---------------------------------------------------------------------------

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
    n = x.size
    taps = DB5.lowpass.size
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(taps)[None, :]) % n
    windows = x[idx]
    return windows @ DB5.lowpass, windows @ DB5.highpass


def idwt_level(approx, detail):
    """Exact inverse of dwt_level (transpose of the orthonormal analysis map)."""
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.size != detail.size:
        raise LengthMismatch(
            f"approx length {approx.size} != detail length {detail.size}")
    if approx.size == 0:
        raise EmptyInput("idwt_level on empty coefficients")
    n = 2 * approx.size
    x = np.zeros(n)
    for k in range(DB5.lowpass.size):
        pos = (2 * np.arange(approx.size) + k) % n
        np.add.at(x, pos, approx * DB5.lowpass[k] + detail * DB5.highpass[k])
    return x


@dataclass
class DwtCoeffs:
    """Multi-level DWT output; details[0] is level 1 (finest).

    input_lengths[L] records the pre-padding length entering level L+1,
    which is exactly the bookkeeping idwt needs to undo wrap-padding.
    """

    approximation: np.ndarray
    details: list
    levels: int
    input_lengths: list = field(default_factory=list)


def dwt(x, levels: int) -> DwtCoeffs:
    """Cascade dwt_level on the approximation branch `levels` times."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    a = _as_samples(x)
    if a.size < 2 ** levels:
        raise SignalTooShort(
            f"need at least 2^{levels} samples, got {a.size}")
    details, lengths = [], []
    for _ in range(levels):
        lengths.append(a.size)
        a, d = dwt_level(a)
        details.append(d)
    return DwtCoeffs(approximation=a, details=details, levels=levels,
                     input_lengths=lengths)


def idwt(coeffs: DwtCoeffs):
    """Invert dwt exactly, truncating any wrap-padding level by level."""
    a = coeffs.approximation
    for level in range(coeffs.levels - 1, -1, -1):
        a = idwt_level(a, coeffs.details[level])
        a = a[:coeffs.input_lengths[level]]
    return a


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
    sigma = np.median(np.abs(detail)) / 0.6745
    return float(sigma * np.sqrt(2.0 * np.log(n)))


def soft_threshold(c, t: float):
    """Shrink toward zero: sign(c) * max(|c| - t, 0)."""
    if t < 0:
        raise NegativeThreshold(f"threshold must be >= 0, got {t}")
    c = np.asarray(c, dtype=np.float64)
    return np.sign(c) * np.maximum(np.abs(c) - t, 0.0)


def wavelet_denoise(x):
    """Soft-threshold all DENOISE_LEVELS detail bands; approximation passes through.

    The noise scale is estimated once from the level-1 detail band and the
    resulting universal threshold is applied to every detail level.
    """
    samples = _as_samples(x)
    coeffs = dwt(samples, DENOISE_LEVELS)
    t = universal_threshold(coeffs.details[0], samples.size)
    coeffs.details = [soft_threshold(d, t) for d in coeffs.details]
    return idwt(coeffs)


# ---------------------------------------------------------------------------
# Savitzky-Golay smoothing
# ---------------------------------------------------------------------------

@dataclass
class SavGolKernel:
    """Centered least-squares polynomial smoothing weights."""

    weights: np.ndarray
    window: int
    poly_order: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("kernel weights must sum to 1")
        if not np.allclose(self.weights, self.weights[::-1], rtol=0.0, atol=1e-12):
            raise ValueError("kernel must be symmetric")


def savgol_kernel(window: int, order: int) -> SavGolKernel:
    """Weights of the least-squares polynomial fit evaluated at the center.

    Fitting a degree-`order` polynomial to the window and reading its value
    at the central sample is a fixed linear map: w = A (A^T A)^{-1} e0
    with A[r, j] = r^j over offsets r = -half..half.
    """
    if window < 1 or window % 2 == 0:
        raise InvalidWindow(f"window must be odd and positive, got {window}")
    if order < 0 or order >= window:
        raise OrderTooHigh(f"order {order} must satisfy 0 <= order < window {window}")
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    design = np.vander(offsets, order + 1, increasing=True)
    weights = design @ np.linalg.solve(design.T @ design,
                                       np.eye(order + 1)[:, 0])
    return SavGolKernel(weights=weights, window=window, poly_order=order)


SAVGOL = savgol_kernel(5, 2)


def savgol_filter(x):
    """Smooth with SAVGOL by centered convolution; mirror-extend the boundaries.

    The output has the input's length.
    """
    samples = _as_samples(x)
    if samples.size < SAVGOL.window:
        raise SignalTooShort(
            f"signal length {samples.size} < window {SAVGOL.window}")
    half = SAVGOL.window // 2
    padded = np.pad(samples, half, mode="reflect")
    return np.convolve(padded, SAVGOL.weights[::-1], mode="valid")


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
    centered = samples - samples.mean()
    m2 = float((centered ** 2).mean())
    if m2 == 0.0:
        raise ZeroVariance("kurtosis undefined for a constant signal")
    m4 = float((centered ** 4).mean())
    return m4 / (m2 * m2)
