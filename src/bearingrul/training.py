"""Losses, Adam, the training loop, and the evaluation metrics report.

The asymmetric loss adds a hinge on overestimation to plain MSE:

    L = (1/N) sum_i [ (p_i - y_i)^2 + lam * max(0, p_i - y_i) ]

so late predictions (p > y) pay an extra linear penalty while early ones do
not; at lam = 0 it is exactly MSE, so MSE is trained as TrainConfig(lam=0).
The scoring metric is likewise asymmetric: a sample with error e
contributes exp(e/5) - 1 when late (e >= 0) and exp(-e/15) - 1 when
early, i.e. a late miss costs about three times an equally large early
one. Note the per-sample score term is positive for any nonzero error;
when comparing models on this metric the convention reported alongside
(sum or mean) must match. metrics_report computes every metric from one
vector of errors, preds - targets.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .errors import (DivergedLoss, EmptyBatch, EmptyDataset, InvalidConfig,
                     ShapeMismatch)

HINGE_RATE = 5.0    # divisor of late (positive) errors in the score
EARLY_RATE = 15.0   # divisor of early (negative) errors in the score


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 16
    epochs: int = 100
    seed: int = 0
    lam: float = 1.0           # hinge weight; 0 trains on plain MSE

    def __post_init__(self):
        if not (0 < self.learning_rate < math.inf and self.batch_size > 0):
            raise InvalidConfig("learning_rate must be finite and positive, "
                                "and batch_size positive")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")
        if not 0 <= self.lam < math.inf:
            raise InvalidConfig(f"lam must be finite and >= 0, not {self.lam}")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def loss_node(preds: ad.Tensor, targets: np.ndarray, lam: float) -> ad.Tensor:
    """Differentiable loss on a prediction tensor: MSE plus lam times the
    mean hinge, which is left out of the graph when lam is 0.

    The hinge uses relu, whose subgradient at exactly zero error is 0.
    """
    if preds.size == 0:
        raise EmptyBatch("empty prediction batch")
    diff = ad.sub(preds, np.asarray(targets, dtype=np.float64))
    loss = ad.mean(ad.square(diff))
    if lam > 0:
        loss = ad.add(loss, ad.mul(ad.mean(ad.relu(diff)), lam))
    return loss


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 16384  # elements per adam_step block; a block of each of its 6 vectors stays in cache


class AdamState:
    """Moment vectors aligned with the parameter vector, the step count, and
    two block-sized scratch vectors that each update reuses instead of
    allocating."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.scratch = np.empty((2, min(size, ADAM_BLOCK)))


def adam_step(flat: np.ndarray, grad: np.ndarray, state: AdamState,
              cfg: TrainConfig) -> AdamState:
    """One bias-corrected Adam update of `flat`, in place.

    m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, then
    flat -= lr (m / c1) / (sqrt(v / c2) + eps) with c_i = 1 - b_i^t,
    each product and quotient rounded in that order; b1, b2 and eps are
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS. The update runs over blocks of
    ADAM_BLOCK elements, so the six vectors it touches stay in cache
    between its 14 passes; every element sees the same operations.
    """
    if grad.shape != flat.shape or flat.ndim != 1:
        raise ShapeMismatch(f"grad {grad.shape} vs params {flat.shape}, "
                            "both 1-D and equal")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for lo in range(0, flat.size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, flat.size)
        p, g, m, v = flat[lo:hi], grad[lo:hi], state.m[lo:hi], state.v[lo:hi]
        tmp, step = state.scratch[:, :hi - lo]
        np.multiply(g, 1.0 - b1, out=tmp)
        m *= b1
        m += tmp
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v *= b2
        v += tmp
        np.divide(m, c1, out=step)
        step *= cfg.learning_rate
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step /= tmp
        p -= step
    return state


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_mae: Optional[float] = None


@np.errstate(over="ignore", invalid="ignore")
def train(dataset, model_cfg, train_cfg: TrainConfig, val_dataset=()):
    """Seeded full training run on SAMPLE_DTYPE records; returns (params,
    history), with val_dataset's MAE per epoch when it is nonempty.

    Per epoch: shuffle (seeded), then per batch forward (which prepares
    only that batch's images) -> loss -> backward -> Adam, so no
    whole-dataset image array is held. An epoch's last batch holds what is
    left, so a batch_size above len(dataset) makes one step over all of it.
    A non-finite batch loss, or a non-finite parameter after an epoch,
    aborts with DivergedLoss; numpy's overflow and invalid-value warnings
    on the way there are silenced, so the error is the only report.
    Epoch order, shuffling, dropout masks and updates are all derived from
    train_cfg.seed, so identical configs give bit-identical trajectories.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    params = model_mod.init_params(model_cfg, seed=train_cfg.seed)

    shuffle_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=train_cfg.seed, spawn_key=(1,)))
    state = AdamState(params.flat.size)
    history = []
    step = 0
    for epoch in range(train_cfg.epochs):
        order = shuffle_rng.permutation(len(dataset))
        loss_sum = 0.0
        for start in range(0, len(dataset), train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            drop_rng = np.random.default_rng(np.random.SeedSequence(
                entropy=train_cfg.seed, spawn_key=(2, step)))
            batch = dataset[idx]
            preds = model_mod.forward_batch(params, batch, training=True,
                                            rng=drop_rng)
            loss = loss_node(preds, batch["label"], train_cfg.lam)
            value = float(loss.data)
            if not np.isfinite(value):
                raise DivergedLoss(f"non-finite loss at epoch {epoch}, step {step}")
            params.zero_grad()
            ad.backward(loss)
            adam_step(params.flat, params.grad, state, train_cfg)
            loss_sum += value * idx.size
            step += 1
        if not np.isfinite(params.flat).all():
            raise DivergedLoss(f"non-finite parameters after epoch {epoch}")
        stats = EpochStats(epoch=epoch, train_loss=loss_sum / len(dataset))
        if len(val_dataset):
            val_preds = model_mod.predict_batch(params, val_dataset)
            stats.val_mae = metrics_report(val_preds, val_dataset["label"])["mae"]
        history.append(stats)
    return params, history


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def score_terms(errors: np.ndarray) -> np.ndarray:
    e = np.asarray(errors, dtype=np.float64)
    return np.where(e < 0, np.expm1(-e / EARLY_RATE), np.expm1(e / HINGE_RATE))


def metrics_report(preds, targets) -> dict:
    """The metrics evaluation commands emit, from errors = preds - targets:
    sample count, MAE, the score summed (the verbatim definition) and
    averaged (size-independent), and the fraction predicted late."""
    errors = (np.asarray(preds, dtype=np.float64)
              - np.asarray(targets, dtype=np.float64))
    terms = score_terms(errors)
    return {
        "n": errors.size,
        "mae": float(np.mean(np.abs(errors))),
        "score_sum": float(terms.sum()),
        "score_mean": float(terms.mean()),
        "late_fraction": float(np.mean(errors > 0)),
    }
