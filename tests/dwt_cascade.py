"""N-level DWT cascade over wavelets.dwt_level / idwt_level, for tests.

The library itself only runs the two levels of wavelet_denoise; this
cascade checks the single-level transforms at other depths.
"""

import numpy as np

from bearingrul import wavelets as wv


def dwt(x, levels):
    """Cascade dwt_level on the approximation branch `levels` times.

    Returns (approximation, details, lengths): details[0] is level 1
    (finest), and lengths[L] is the pre-padding length entering level L+1,
    which idwt needs to undo wrap-padding.
    """
    approx, details, lengths = np.asarray(x, dtype=np.float64), [], []
    for _ in range(levels):
        lengths.append(approx.size)
        approx, detail = wv.dwt_level(approx)
        details.append(detail)
    return approx, details, lengths


def idwt(approx, details, lengths):
    """Invert dwt exactly, truncating any wrap-padding level by level."""
    for detail, n in zip(reversed(details), reversed(lengths)):
        approx = wv.idwt_level(approx, detail)[:n]
    return approx
