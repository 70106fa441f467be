"""features.SAMPLE_DTYPE arrays built from raw signals."""

import numpy as np

from bearingrul import features as ft


def records(rows):
    """The SAMPLE_DTYPE array of (hor signal, ver signal, label) rows, each
    signal turned into its WPD image; the rows are consumed in order."""
    return np.array([(ft.wpd_image(h), ft.wpd_image(v), label) for h, v, label in rows],
                    dtype=ft.SAMPLE_DTYPE)


def random_records(n, rng, label=0.5):
    """n records of standard-normal 4096-sample signals, each row's hor
    signal drawn before its ver signal."""
    return records((rng.normal(size=4096), rng.normal(size=4096), label)
                   for _ in range(n))
