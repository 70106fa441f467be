"""The denoise kernels in numpy's generic forms, for tests.

bearingrul.wavelets computes these with direct forms (one concatenate for
the mirror padding, a partition for the median, a cached scatter index
and broadcasting for the inverse DWT, sum / n for each moment). The forms
here are the references their bits are compared against: np.pad reflect,
np.median, np.outer with the _taps(n).T.ravel() bincount, and .mean(),
with kurtosis's fourth powers as squared squares (`** 4` differs).
The steps the library shares with them (dwt_level, soft_threshold, the
filters and weights) are taken from the library.
"""

import numpy as np

from bearingrul import wavelets as wv
from bearingrul.errors import ZeroVariance


def savgol_filter(x):
    padded = np.pad(x, wv.SAVGOL.size // 2, mode="reflect")
    return np.convolve(padded, wv.SAVGOL[::-1], mode="valid")


def universal_threshold(detail, n):
    sigma = np.median(np.abs(detail)) / 0.6745
    return float(sigma * np.sqrt(2.0 * np.log(n)))


def idwt_level(approx, detail):
    n = 2 * approx.size
    contrib = np.outer(wv.DB5.lowpass, approx) + np.outer(wv.DB5.highpass, detail)
    return np.bincount(wv._taps(n).T.ravel(), weights=contrib.ravel(), minlength=n)


def wavelet_denoise(x):
    approx1, detail1 = wv.dwt_level(x)
    approx2, detail2 = wv.dwt_level(approx1)
    t = universal_threshold(detail1, x.size)
    approx1 = idwt_level(approx2, wv.soft_threshold(detail2, t))[:approx1.size]
    return idwt_level(approx1, wv.soft_threshold(detail1, t))[:x.size]


def kurtosis(x):
    centered = x - x.mean()
    m2 = float((centered ** 2).mean())
    if m2 == 0.0:
        raise ZeroVariance("kurtosis undefined for a constant signal")
    m4 = float(((centered ** 2) ** 2).mean())
    return m4 / (m2 * m2)
