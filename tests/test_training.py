import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import bearingrul.autodiff as ad
from bearingrul import model as md, training as tr
from bearingrul.autodiff import Tensor
from bearingrul.errors import DivergedLoss, EmptyBatch, EmptyDataset, ShapeMismatch
from loss_oracle import custom_loss, errors, mse_loss
from sample_arrays import random_records, records


def tiny_dataset(n=12, seed=0):
    rng = np.random.default_rng(seed)
    return records((rng.normal(size=4096) + label, rng.normal(size=4096), label)
                   for label in np.linspace(1.0, 0.0, n))


# --- loss formulas ---

def test_custom_loss_late_example():
    assert custom_loss([0.8], [0.5], lam=1.0) == pytest.approx(0.39, abs=1e-12)


def test_custom_loss_early_example():
    assert custom_loss([0.2], [0.5], lam=1.0) == pytest.approx(0.09, abs=1e-12)


def test_custom_loss_zero_at_exact():
    assert custom_loss([0.3, 0.7], [0.3, 0.7], lam=2.0) == 0.0


def test_custom_loss_lambda_zero_equals_mse_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = rng.normal(0.5, 0.3, size=8), rng.random(8)
        assert custom_loss(*b, lam=0.0) == mse_loss(*b)


def test_custom_loss_dominates_mse():
    rng = np.random.default_rng(1)
    for _ in range(50):
        b = rng.normal(0.5, 0.4, size=6), rng.random(6)
        assert custom_loss(*b, lam=1.0) >= mse_loss(*b)
        if np.all(errors(*b) <= 0):
            assert custom_loss(*b, lam=1.0) == mse_loss(*b)


def test_mse_loss_example():
    assert mse_loss([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_empty_batch_rejected():
    with pytest.raises(EmptyBatch):
        tr.loss_node(Tensor(np.zeros(0)), np.zeros(0), tr.LossConfig())


def test_loss_node_matches_metric_value():
    rng = np.random.default_rng(2)
    preds = rng.normal(0.5, 0.3, size=10)
    targets = rng.random(10)
    node = tr.loss_node(Tensor(preds), targets, tr.LossConfig(kind="custom", lam=1.3))
    assert float(node.data) == pytest.approx(
        custom_loss(preds, targets, 1.3), rel=1e-12)


def test_loss_node_gradient_matches_finite_difference():
    rng = np.random.default_rng(3)
    preds = rng.normal(0.5, 0.3, size=8)
    targets = rng.random(8)
    # keep away from the hinge kink
    preds[np.abs(preds - targets) < 1e-3] += 0.01
    p = Tensor(preds, requires_grad=True)
    ad.backward(tr.loss_node(p, targets, tr.LossConfig(kind="custom", lam=1.0)))
    h = 1e-6
    for i in range(8):
        shifted = preds.copy()
        shifted[i] += h
        up = custom_loss(shifted, targets, 1.0)
        shifted[i] -= 2 * h
        down = custom_loss(shifted, targets, 1.0)
        num = (up - down) / (2 * h)
        assert abs(p.grad[i] - num) / max(abs(num), 1e-8) < 1e-6


def test_hinge_subgradient_zero_at_tie():
    p = Tensor(np.array([0.5]), requires_grad=True)
    ad.backward(tr.loss_node(p, np.array([0.5]), tr.LossConfig(kind="custom", lam=5.0)))
    assert p.grad[0] == 0.0


# --- scoring metric ---

def test_score_zero_error():
    assert tr.metrics_report([0.5], [0.5])["score_mean"] == 0.0


def test_score_late_example():
    term = tr.metrics_report([0.65], [0.5])["score_sum"]
    assert term == pytest.approx(0.030455, abs=1e-6)


def test_score_early_example():
    term = tr.metrics_report([0.35], [0.5])["score_sum"]
    assert term == pytest.approx(0.010050, abs=1e-6)


def test_score_late_exceeds_early_for_equal_magnitude():
    rng = np.random.default_rng(4)
    for _ in range(30):
        e = rng.uniform(0.01, 0.5)
        late = tr.score_terms(np.array([e]))[0]
        early = tr.score_terms(np.array([-e]))[0]
        assert late > early > 0


def test_score_sum_additive_over_partitions():
    rng = np.random.default_rng(5)
    preds, targets = rng.normal(0.5, 0.3, 10), rng.random(10)
    whole = tr.metrics_report(preds, targets)["score_sum"]
    parts = (tr.metrics_report(preds[:4], targets[:4])["score_sum"]
             + tr.metrics_report(preds[4:], targets[4:])["score_sum"])
    assert whole == pytest.approx(parts, rel=1e-12)


def test_score_mean_is_sum_over_n():
    rng = np.random.default_rng(6)
    r = tr.metrics_report(rng.normal(0.5, 0.2, 7), rng.random(7))
    assert r["score_mean"] == pytest.approx(r["score_sum"] / 7, rel=1e-12)


# --- MAE / late fraction ---

def test_mae_example():
    mae = tr.metrics_report([0.2, 0.4], [0.1, 0.5])["mae"]
    assert mae == pytest.approx(0.1, abs=1e-12)


def test_mae_permutation_invariant():
    r1 = tr.metrics_report([0.2, 0.4, 0.9], [0.1, 0.5, 0.8])
    r2 = tr.metrics_report([0.9, 0.2, 0.4], [0.8, 0.1, 0.5])
    assert r1["mae"] == r2["mae"]


def test_late_fraction_examples():
    assert tr.metrics_report([0.1, 0.2], [0.5, 0.6])["late_fraction"] == 0.0
    assert tr.metrics_report([0.6, 0.4], [0.5, 0.5])["late_fraction"] == 0.5


def test_late_early_tie_partition():
    b = [0.6, 0.4, 0.5], [0.5, 0.5, 0.5]
    late = tr.metrics_report(*b)["late_fraction"]
    early = float(np.mean(errors(*b) < 0))
    ties = float(np.mean(errors(*b) == 0))
    assert late + early + ties == 1.0


def test_metrics_report_keys():
    terms = tr.score_terms(errors([0.5, 0.6], [0.5, 0.5]))
    assert tr.metrics_report([0.5, 0.6], [0.5, 0.5]) == {
        "n": 2, "mae": pytest.approx(0.05), "score_sum": float(terms.sum()),
        "score_mean": float(terms.mean()), "late_fraction": 0.5}


# --- Adam ---

def test_adam_single_step_hand_value():
    cfg = tr.TrainConfig(learning_rate=1e-4, batch_size=1, epochs=1)
    theta = np.array([1.0])
    state = tr.AdamState(theta.size)
    tr.adam_step(theta, np.array([1.0]), state, cfg)
    expected = 1.0 - 1e-4 / (1.0 + 1e-8)
    assert theta[0] == pytest.approx(expected, abs=1e-18)
    assert state.t == 1


def test_adam_zero_gradient_no_move():
    cfg = tr.TrainConfig(learning_rate=1e-2, batch_size=1, epochs=1)
    theta = np.array([2.0, -1.0])
    tr.adam_step(theta, np.zeros(2), tr.AdamState(theta.size), cfg)
    np.testing.assert_allclose(theta, [2.0, -1.0], atol=0)


def test_adam_shape_mismatch():
    cfg = tr.TrainConfig(learning_rate=1e-2, batch_size=1, epochs=1)
    theta = np.zeros(3)
    with pytest.raises(ShapeMismatch):
        tr.adam_step(theta, np.zeros(4), tr.AdamState(theta.size), cfg)


def test_adam_descends_quadratic():
    cfg = tr.TrainConfig(learning_rate=0.05, batch_size=1, epochs=1)
    theta = np.array([3.0])
    state = tr.AdamState(theta.size)
    for _ in range(200):
        tr.adam_step(theta, 2.0 * theta, state, cfg)
    assert abs(theta[0]) < 0.5


def test_adam_rejects_a_vector_that_is_not_1d():
    cfg = tr.TrainConfig(learning_rate=1e-2, batch_size=1, epochs=1)
    theta = np.zeros((2, 3))
    with pytest.raises(ShapeMismatch):
        tr.adam_step(theta, np.zeros((2, 3)), tr.AdamState(theta.size), cfg)


def _adam_unblocked(flat, grad, m, v, t, lr):
    """Adam's 14-op sequence over whole vectors, as it ran before blocking."""
    b1, b2 = tr.ADAM_BETA1, tr.ADAM_BETA2
    tmp, step = np.empty_like(flat), np.empty_like(flat)
    np.multiply(grad, 1.0 - b1, out=tmp)
    m *= b1
    m += tmp
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    v *= b2
    v += tmp
    np.divide(m, 1.0 - b1 ** t, out=step)
    step *= lr
    np.divide(v, 1.0 - b2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += tr.ADAM_EPS
    step /= tmp
    flat -= step


@pytest.mark.parametrize("size", [1, tr.ADAM_BLOCK - 1, tr.ADAM_BLOCK,
                                  tr.ADAM_BLOCK + 1,
                                  md.expected_param_count(md.desk_config())])
def test_blocked_adam_matches_unblocked_bit_for_bit(size):
    cfg = tr.TrainConfig(learning_rate=1e-3, batch_size=1, epochs=1)
    rng = np.random.default_rng(size)
    flat = rng.normal(size=size)
    want_flat, want_m, want_v = flat.copy(), np.zeros(size), np.zeros(size)
    state = tr.AdamState(size)
    for step in range(1, 4):
        grad = rng.normal(size=size) * 10.0 ** rng.integers(-8, 3, size=size)
        tr.adam_step(flat, grad, state, cfg)
        _adam_unblocked(want_flat, grad, want_m, want_v, step, cfg.learning_rate)
    for got, want in ((flat, want_flat), (state.m, want_m), (state.v, want_v)):
        assert got.tobytes() == want.tobytes()


# The paper preset at desk widths: depths (2, 2, 6, 2) on a 32x32 token
# grid build 5 shifted blocks, (1, 1, 3, 0) per stage.
PAPER_DEPTHS = dataclasses.replace(md.paper_config(), embed_dim_base=16,
                                   heads=(1, 2, 4, 8))


@pytest.mark.parametrize("cfg", [md.desk_config(), PAPER_DEPTHS],
                         ids=["desk", "paper-depths"])
def test_backward_reaches_every_parameter(cfg):
    params = md.init_params(cfg, seed=0)
    rng = np.random.default_rng(4)
    samples = random_records(2, rng)
    labels = rng.random(2)

    def backward():
        preds = md.forward_batch(params, samples, training=True, rng=5)
        ad.backward(tr.loss_node(preds, labels, tr.LossConfig()))

    for tensor in params.tensors.values():
        tensor.grad = None
    backward()
    missing = [name for name, t in params.tensors.items() if t.grad is None]
    assert missing == []
    fresh = np.concatenate([t.grad for t in params.tensors.values()], axis=None)
    params.zero_grad()
    backward()
    assert params.grad.tobytes() == fresh.tobytes()


def test_two_train_steps_hold_one_graph_at_a_time():
    """Step k's graph is gone before step k+1's forward, although `train`
    still has step k's preds and loss bound while it runs that forward."""
    cfg, tcfg = md.desk_config(), tr.TrainConfig()
    params = md.init_params(cfg, seed=0)
    rng = np.random.default_rng(6)
    samples = random_records(8, rng)
    labels = rng.random(8)
    state = tr.AdamState(params.flat.size)
    params.zero_grad()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for step in range(2):
            preds = md.forward_batch(params, samples, training=True, rng=step)
            loss = tr.loss_node(preds, labels, tr.LossConfig())
            if step == 0:
                graph = tracemalloc.get_traced_memory()[0] - base
            params.zero_grad()
            ad.backward(loss)
            tr.adam_step(params.flat, params.grad, state, tcfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 5e6 < graph < 12e6  # the desk graph at batch 8 is about 10 MB
    assert peak < 1.5 * graph


# --- training loop ---

def test_train_empty_dataset():
    with pytest.raises(EmptyDataset):
        tr.train([], md.desk_config(),
                 tr.TrainConfig(batch_size=1, epochs=1), tr.LossConfig())


def test_train_batch_larger_than_dataset():
    with pytest.raises(EmptyDataset):
        tr.train(tiny_dataset(4), md.desk_config(),
                 tr.TrainConfig(batch_size=16, epochs=1), tr.LossConfig())


def test_train_zero_epochs_returns_init():
    dataset = tiny_dataset(6)
    cfg = md.desk_config()
    tcfg = tr.TrainConfig(batch_size=4, epochs=0, seed=9)
    params, history = tr.train(dataset, cfg, tcfg, tr.LossConfig())
    reference = md.init_params(cfg, seed=9)
    assert history == []
    for name in reference.tensors:
        assert np.array_equal(params[name].data, reference[name].data)


def test_train_seeded_runs_identical():
    dataset = tiny_dataset(8)
    cfg = md.desk_config()
    tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=5)
    p1, h1 = tr.train(dataset, cfg, tcfg, tr.LossConfig())
    p2, h2 = tr.train(dataset, cfg, tcfg, tr.LossConfig())
    assert [e.train_loss for e in h1] == [e.train_loss for e in h2]
    for name in p1.tensors:
        assert np.array_equal(p1[name].data, p2[name].data)


# sha256 of every trained parameter's <f8 bytes in sorted-name order; any
# change to init draws, the forward/backward numerics or the Adam update order
# moves it. Re-recorded when the head began one product per record.
GOLDEN_SEEDED_DESK_RUN = \
    "ac40671665d2a1a723314110919c0dd25ab02a644b5a728ebc3a0165b02323fc"


def test_train_seeded_run_matches_golden_hash():
    tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=5)
    params, _ = tr.train(tiny_dataset(8), md.desk_config(), tcfg, tr.LossConfig())
    digest = hashlib.sha256()
    for name in sorted(params.tensors):
        digest.update(params[name].data.astype("<f8").tobytes())
    assert digest.hexdigest() == GOLDEN_SEEDED_DESK_RUN


# sha256 of predict_batch's <f8 output for jittered seeded desk params on
# tiny_dataset(12), in chunks of at most 5; re-recorded when the head began one
# product per record, which made the bytes independent of the chunks
GOLDEN_SEEDED_DESK_PREDICTIONS = \
    "59a2cce6ae45bcabeb0bf851dc2c354d926f79829a2e51c3c69d54d47e38fe33"


def test_predict_batch_matches_golden_hash(monkeypatch):
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=7)
    params.flat += np.random.default_rng(11).normal(0.0, 0.05, params.flat.size)
    monkeypatch.setattr(md, "PREDICT_CHUNK", 5)
    preds = md.predict_batch(params, tiny_dataset(12))
    assert preds.shape == (12,) and np.unique(preds).size == 12
    digest = hashlib.sha256(preds.astype("<f8").tobytes()).hexdigest()
    assert digest == GOLDEN_SEEDED_DESK_PREDICTIONS


def test_train_loss_decreases():
    dataset = tiny_dataset(12)
    tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=4, epochs=6, seed=2)
    _, history = tr.train(dataset, md.desk_config(), tcfg, tr.LossConfig())
    assert history[-1].train_loss < history[0].train_loss


def test_train_records_validation_mae():
    dataset = tiny_dataset(8)
    tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, seed=3)
    _, history = tr.train(dataset, md.desk_config(), tcfg, tr.LossConfig(),
                          val_dataset=tiny_dataset(4, seed=9))
    assert all(e.val_mae is not None and np.isfinite(e.val_mae) for e in history)


def test_train_diverged_loss_aborts(monkeypatch):
    dataset = tiny_dataset(6)
    cfg = md.desk_config()
    poisoned = md.init_params(cfg, seed=0)
    poisoned["head.out.b"].data[:] = 1e200
    monkeypatch.setattr(md, "init_params", lambda cfg, seed: poisoned)
    tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=4, epochs=1, seed=0)
    with np.errstate(over="ignore"), pytest.raises(DivergedLoss):
        tr.train(dataset, cfg, tcfg, tr.LossConfig())


def test_train_non_finite_parameters_abort(monkeypatch):
    # NaN stem weights make NaN conv maps, but the ReLU after the pool turns
    # them into zeros, so every loss stays finite while the weights stay NaN
    dataset = tiny_dataset(6)
    cfg = md.desk_config()
    poisoned = md.init_params(cfg, seed=0)
    poisoned["stem.hor.w"].data[0] = np.nan
    monkeypatch.setattr(md, "init_params", lambda cfg, seed: poisoned)
    tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=3, epochs=1, seed=0)
    with pytest.raises(DivergedLoss, match="parameters after epoch 0"):
        tr.train(dataset, cfg, tcfg, tr.LossConfig())


def test_train_divergence_raises_without_numpy_warnings():
    # pytest turns warnings into errors, so an overflow warning fails here
    tcfg = tr.TrainConfig(learning_rate=1e30, batch_size=2, epochs=3, seed=0)
    with pytest.raises(DivergedLoss):
        tr.train(tiny_dataset(6), md.desk_config(), tcfg, tr.LossConfig(),
                 val_dataset=tiny_dataset(2, seed=3))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        tr.LossConfig(kind="huber")
    with pytest.raises(ValueError):
        tr.LossConfig(lam=-0.5)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError):
            tr.LossConfig(lam=lam)


def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(learning_rate=0.0)
    for lr in (np.nan, np.inf):
        with pytest.raises(ValueError):
            tr.TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError):
        tr.TrainConfig(epochs=-1)
