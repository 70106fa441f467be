"""Bearing remaining-useful-life prognostics toolkit.

Submodules:
    wavelets   the db5 DWT and WPD, threshold denoising, Savitzky-Golay,
               kurtosis
    features   sliding windows, degradation-onset detection, RUL labels,
               WPD images, dataset assembly
    autodiff   float64 tensor engine with reverse-mode differentiation
    model      two-channel windowed-attention regression network
    training   losses, Adam, training loop, evaluation metrics
    dataio     PRONOSTIA ingestion, synthetic records, binary containers
    cli        command-line pipeline drivers
"""

__version__ = "0.1.0"
