"""The loss formulas on plain arrays, for tests.

training.loss_node builds the loss as an autodiff graph; these evaluate
the same formulas directly on (preds, targets) arrays and are the
reference its values and gradients are checked against.
"""

import numpy as np


def errors(preds, targets) -> np.ndarray:
    return np.asarray(preds, dtype=np.float64) - np.asarray(targets, dtype=np.float64)


def custom_loss(preds, targets, lam: float = 1.0) -> float:
    """Mean of squared error plus lam * hinge on overestimation."""
    e = errors(preds, targets)
    return float(np.mean(e ** 2 + lam * np.maximum(0.0, e)))


def mse_loss(preds, targets) -> float:
    return float(np.mean(errors(preds, targets) ** 2))
