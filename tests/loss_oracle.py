"""The loss formulas on plain arrays, for tests.

training.loss_node builds the loss as an autodiff graph; these evaluate
the same formulas directly on a PredictionBatch and are the reference
its values and gradients are checked against.
"""

import numpy as np


def custom_loss(batch, lam: float = 1.0) -> float:
    """Mean of squared error plus lam * hinge on overestimation."""
    e = batch.errors
    return float(np.mean(e ** 2 + lam * np.maximum(0.0, e)))


def mse_loss(batch) -> float:
    return float(np.mean(batch.errors ** 2))
