"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -rA tests/test_acceptance.py` to see the per-criterion
lines in the summary. Everything is seeded; expected values were computed
with the independent oracles embedded below.
"""

import contextlib
import time

import numpy as np
import pytest

import bearingrul.autodiff as ad
from bearingrul import cli, dataio, features as ft, model as md
from bearingrul import training as tr, wavelets as wv
from bearingrul.autodiff import Tensor
from bearingrul.errors import InconsistentSnapshotLength, MalformedRow, MissingDirectory
from dwt_cascade import dwt, idwt
from gradcheck import check_op
from loss_oracle import custom_loss, mse_loss


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {description}")


_dataset_cache = {}


def desk_dataset(seed, stride=4):
    """Synthetic desk-scale dataset records; cached across criteria."""
    key = (seed, stride)
    if key not in _dataset_cache:
        cfg = dataio.SyntheticConfig(n_snapshots=340, samples_per_snapshot=256,
                                     fault_onset_index=50, seed=seed)
        record = dataio.gen_synthetic(cfg)
        fpt = ft.detect_fpt(ft.kurtosis_series(record))
        assert fpt is not None
        _dataset_cache[key] = ft.sample_records(
            ft.build_dataset(record, fpt, size=10, stride=stride))
    return _dataset_cache[key]


# --- 1. wavelet correctness ---

def test_criterion_1_wavelet_correctness():
    with criterion(1, "perfect reconstruction <= 1e-10 and WPD energy "
                      "conservation <= 1e-8 (levels 1-5), under 5 s"):
        started = time.monotonic()
        rng = np.random.default_rng(101)
        for n in (16, 100, 255, 512, 1023, 2048, 4095, 4096):
            x = rng.normal(size=n)
            assert np.abs(idwt(*dwt(x, 2)) - x).max() <= 1e-10
        for level in range(1, 6):
            for n in (4096, 2560):
                x = rng.normal(size=n)
                bands = wv.wpd(x, level)
                energy_in = float((x ** 2).sum())
                assert abs(float((bands ** 2).sum()) - energy_in) / energy_in <= 1e-8
        assert time.monotonic() - started < 5.0


# --- 2. Savitzky-Golay ---

def test_criterion_2_savgol_kernel():
    with criterion(2, "(5,2) kernel matches least-squares oracle to 1e-12 "
                      "and reproduces degree-<=2 polynomials on interior points"):
        half = 2
        offsets = np.arange(-half, half + 1, dtype=float)
        design = np.vander(offsets, 3, increasing=True)
        oracle, *_ = np.linalg.lstsq(design.T @ design, design.T, rcond=None)
        assert np.abs(wv.SAVGOL - oracle[0]).max() <= 1e-12

        rng = np.random.default_rng(102)
        i = np.arange(40, dtype=float)
        for _ in range(25):
            a, b, c = rng.normal(size=3)
            poly = a + b * i + c * i ** 2
            out = wv.savgol_filter(poly)
            assert np.abs(out[2:-2] - poly[2:-2]).max() <= 1e-9


# --- 3. FPT detection ---

def brute_force_fpt(k, baseline, mult=3.0, consec=3):
    mu = k[:baseline].mean()
    sd = k[:baseline].std(ddof=1)
    for i in range(baseline, len(k) - consec + 1):
        if all(abs(k[i + j] - mu) > mult * sd for j in range(consec)):
            return i
    return None


def test_criterion_3_fpt_detection():
    with criterion(3, "FPT equals the brute-force oracle on 100 random series; "
                      "synthetic bearing (onset 50, seed 7) detects in [47, 53]"):
        rng = np.random.default_rng(103)
        for _ in range(100):
            baseline = int(rng.integers(5, 40))
            n = int(rng.integers(baseline + 10, 200))
            k = 3.0 + 0.25 * rng.standard_normal(n)
            if rng.random() < 0.75:
                start = int(rng.integers(baseline, n))
                k[start:start + int(rng.integers(1, 7))] += rng.uniform(0.5, 6.0)
            cfg = ft.FptConfig(baseline_count=baseline)
            assert ft.detect_fpt(k, cfg) == brute_force_fpt(k, baseline)

        record = dataio.gen_synthetic(dataio.SyntheticConfig(
            n_snapshots=100, samples_per_snapshot=2560,
            fault_onset_index=50, seed=7))
        fpt = ft.detect_fpt(ft.kurtosis_series(record))
        assert fpt is not None and 47 <= fpt <= 53


# --- 4. labeling ---

def test_criterion_4_labeling_properties():
    with criterion(4, "labels start at 1, end at 0, non-increasing, piecewise "
                      "linear over 1000 random configurations"):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            length = int(rng.integers(3, 500))
            fpt = int(rng.integers(0, length - 1))
            labels = ft.assign_labels(length, fpt)
            assert labels[0] == 1.0 and labels[-1] == 0.0
            assert np.all(np.diff(labels) <= 1e-15)
            assert np.all(labels[:fpt + 1] == 1.0)
            tail = labels[fpt:]
            if tail.size > 2:
                assert np.abs(np.diff(tail, n=2)).max() <= 1e-12


# --- 5. loss and score formulas ---

def test_criterion_5_loss_and_score_formulas():
    with criterion(5, "custom loss and score match hand-evaluated values; "
                      "lambda=0 equals MSE exactly"):
        one = tr.PredictionBatch(np.array([0.8]), np.array([0.5]))
        assert custom_loss(one, lam=1.0) == pytest.approx(0.39, abs=1e-12)

        terms = tr.score_terms(np.array([0.0, 0.15, -0.15]))
        assert terms[0] == 0.0
        assert terms[1] == pytest.approx(0.030455, abs=1e-6)
        assert terms[2] == pytest.approx(0.010050, abs=1e-6)

        rng = np.random.default_rng(105)
        for _ in range(50):
            batch = tr.PredictionBatch(rng.normal(0.5, 0.4, size=12),
                                       rng.random(12))
            assert custom_loss(batch, lam=0.0) == mse_loss(batch)


# --- 6. autodiff gradchecks ---

def test_criterion_6_gradcheck_everything():
    with criterion(6, "every operator and the full desk model pass central "
                      "finite-difference gradcheck (rel < 1e-4), under 60 s"):
        started = time.monotonic()
        rng = np.random.default_rng(106)

        def fresh(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        a, b = fresh(3, 4), fresh(4,)
        check_op(lambda: ad.add(a, b), [a, b])
        a, b = fresh(2, 3, 4), fresh(1, 3, 1)
        check_op(lambda: ad.mul(a, b), [a, b])
        a, b = fresh(5,), fresh(5,)
        check_op(lambda: ad.sub(a, b), [a, b])
        a, b = fresh(3, 4), fresh(4, 2)
        check_op(lambda: ad.matmul(a, b), [a, b])
        a, b = fresh(2, 3, 4), fresh(4, 5)
        check_op(lambda: ad.matmul(a, b), [a, b])
        a, b = fresh(2, 3, 4), fresh(2, 4, 3)
        check_op(lambda: ad.matmul(a, b), [a, b])
        x = fresh(20)
        x.data[np.abs(x.data) < 1e-3] = 0.5
        check_op(lambda: ad.relu(x), [x])
        x = fresh(2, 3, 4)
        check_op(lambda: ad.roll(ad.transpose(ad.reshape(x, (2, 12)), (1, 0)),
                                 3, 0), [x])
        x = fresh(3, 4, 5)
        check_op(lambda: ad.mean(x, axis=1), [x])
        x = fresh(3, 4, 5)
        check_op(lambda: ad.total(x, axis=2), [x])
        x = fresh(3, 6)
        check_op(lambda: ad.softmax(x, axis=-1), [x])
        x, g, beta = fresh(4, 8), fresh(8), fresh(8)
        check_op(lambda: ad.layer_norm(x, g, beta), [x, g, beta], tol=2e-4)
        x = fresh(4, 4)
        check_op(lambda: ad.dropout(x, 0.4, training=True, rng=7), [x])
        x, w, bias = fresh(1, 1, 5, 5), fresh(2, 1, 3, 3), fresh(2)
        check_op(lambda: ad.conv2d(x, w, bias), [x, w, bias])
        x = fresh(1, 2, 4, 4)
        check_op(lambda: ad.maxpool2d(x), [x])
        table = fresh(6, 3)
        index = np.array([0, 2, 2, 5, 1])
        check_op(lambda: ad.gather_rows(table, index), [table])
        a, b = fresh(2, 3), fresh(2, 2)
        check_op(lambda: ad.concat([a, b], axis=1), [a, b])

        # full desk-preset model: probe the largest-gradient entry of every
        # parameter tensor at a generic (jittered) point on rough inputs
        cfg = md.desk_config()
        params = md.init_params(cfg, seed=1)
        jitter = np.random.default_rng(99)
        for name, shape in md.expected_shapes(cfg).items():
            params[name].data += jitter.uniform(-0.05, 0.05, size=shape)
        hor = rng.random((2, 1, 32, 32))
        ver = rng.random((2, 1, 32, 32))
        labels = rng.random(2)
        loss_cfg = tr.LossConfig(kind="custom", lam=1.0)

        def loss_value():
            preds = md.forward_batch(params, cfg, hor, ver, training=False)
            return float(tr.loss_node(preds, labels, loss_cfg).data)

        params.zero_grad()
        ad.backward(tr.loss_node(
            md.forward_batch(params, cfg, hor, ver, training=False),
            labels, loss_cfg))
        h = 1e-5
        for name, tensor in params.tensors.items():
            idx = np.unravel_index(int(np.argmax(np.abs(tensor.grad))),
                                   tensor.data.shape)
            orig = tensor.data[idx]
            tensor.data[idx] = orig + h
            up = loss_value()
            tensor.data[idx] = orig - h
            down = loss_value()
            tensor.data[idx] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = tensor.grad[idx]
            if max(abs(analytic), abs(numeric)) < 1e-7:
                # exactly-zero gradients (the key bias cancels in softmax);
                # both sides agree the derivative vanishes
                continue
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
            assert rel < 1e-4, f"{name}: rel error {rel:.2e}"
        assert time.monotonic() - started < 60.0


# --- 7. desk-scale training ---

def test_criterion_7_desk_training():
    with criterion(7, "desk preset, 64 samples, 30 epochs: final loss < 50% of "
                      "epoch-1 loss and held-out MAE beats predict-the-mean, "
                      "under 5 min"):
        started = time.monotonic()
        samples = desk_dataset(seed=7, stride=3)
        train_set = np.concatenate([samples[0::2][:48], samples[1::4][:16]])
        assert len(train_set) == 64
        i = np.arange(len(samples))
        held_out = samples[(i % 2 == 1) & ((i - 1) % 4 != 0)]
        assert len(held_out) >= 12

        cfg = md.desk_config()
        tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=8, epochs=30, seed=0)
        params, history = tr.train(train_set, cfg, tcfg, tr.LossConfig(kind="mse"))
        assert history[-1].train_loss < 0.5 * history[0].train_loss

        preds = md.predict_batch(params, cfg, held_out)
        targets = held_out["label"].astype(np.float64)
        model_mae = tr.mae(tr.PredictionBatch(preds, targets))
        train_mean = float(train_set["label"].astype(np.float64).mean())
        baseline_mae = float(np.mean(np.abs(targets - train_mean)))
        assert model_mae < baseline_mae, (model_mae, baseline_mae)
        assert time.monotonic() - started < 300.0


# --- 8. custom loss reduces late predictions ---

def test_criterion_8_late_prediction_reduction():
    with criterion(8, "twin training (MSE vs custom, lambda=1): "
                      "late_fraction(custom) <= late_fraction(mse) on the "
                      "held-out split in >= 4 of 5 seeds"):
        cfg = md.desk_config()
        wins = 0
        observed = []
        for seed in range(5):
            samples = desk_dataset(seed=100 + seed)
            train_set = samples[0::2][:48]
            held_out = samples[1::2][:24]
            targets = held_out["label"]
            tcfg = tr.TrainConfig(learning_rate=1e-3, batch_size=8, epochs=30,
                                  seed=seed)
            late = {}
            for kind in ("mse", "custom"):
                params, _ = tr.train(train_set, cfg, tcfg,
                                     tr.LossConfig(kind=kind, lam=1.0))
                preds = md.predict_batch(params, cfg, held_out)
                late[kind] = tr.late_fraction(tr.PredictionBatch(preds, targets))
            observed.append(late)
            wins += late["custom"] <= late["mse"]
        assert wins >= 4, observed
        # the comparison is meaningful: the MSE twin does make late predictions
        assert sum(late["mse"] > 0 for late in observed) >= 3, observed


# --- 9. manifest reproducibility ---

def test_criterion_9_manifest_reproducibility(tmp_path):
    with criterion(9, "re-running a CLI command from its manifest reproduces "
                      "artifacts byte for byte"):
        root = tmp_path / "rec"
        assert cli.main(["synth", "--outdir", str(root), "--snapshots", "120",
                         "--samples", "256", "--onset", "40", "--seed", "5",
                         "--bearing-id", "Bearing9_1"]) == 0
        record_dir = root / "Bearing9_1"

        feat_a, feat_b = tmp_path / "fa", tmp_path / "fb"
        assert cli.main(["featurize", "--input", str(record_dir), "--outdir",
                         str(feat_a), "--stride", "2"]) == 0
        assert cli.main(["rerun", str(feat_a / "manifest.json"), "--outdir",
                         str(feat_b)]) == 0
        for name in ("dataset.bin", "dataset.bin.json"):
            assert (feat_a / name).read_bytes() == (feat_b / name).read_bytes()

        train_a, train_b = tmp_path / "ta", tmp_path / "tb"
        assert cli.main(["train", "--dataset", str(feat_a / "dataset.bin"),
                         "--outdir", str(train_a), "--epochs", "2",
                         "--lr", "1e-3", "--batch-size", "8"]) == 0
        assert cli.main(["rerun", str(train_a / "manifest.json"), "--outdir",
                         str(train_b)]) == 0
        for name in ("checkpoint.ckpt", "history.csv", "history.svg"):
            assert (train_a / name).read_bytes() == (train_b / name).read_bytes()

        synth_b = tmp_path / "rec2"
        assert cli.main(["rerun", str(root / "manifest.json"), "--outdir",
                         str(synth_b)]) == 0
        for csv in sorted(record_dir.glob("acc_*.csv")):
            twin = synth_b / "Bearing9_1" / csv.name
            assert csv.read_bytes() == twin.read_bytes()


# --- 10. ingestion contract ---

def test_criterion_10_pronostia_ingestion(tmp_path):
    with criterion(10, "3-snapshot fixture loads exactly; malformed field, "
                       "missing directory and ragged snapshots raise their "
                       "typed errors"):
        bearing = tmp_path / "Bearing1_2"
        bearing.mkdir()
        values = []
        for f in (1, 2, 3):
            rows = []
            for r in range(5):
                hor = 0.01 * (100 * f + r)
                rows.append(f"0,0,{f},{r}.0,{hor!r},{(-2.0 * hor)!r}")
                values.append(hor)
            (bearing / f"acc_{f:05d}.csv").write_text("\n".join(rows) + "\n")
        record = dataio.load_pronostia_bearing(bearing)
        assert record.n_snapshots == 3
        assert record.samples_per_snapshot == 5
        expected = np.array(values).reshape(3, 5)
        np.testing.assert_allclose(record.horizontal, expected, atol=0)
        np.testing.assert_allclose(record.vertical, -2.0 * expected, atol=0)
        assert record.condition_id == 1

        with pytest.raises(MissingDirectory):
            dataio.load_pronostia_bearing(tmp_path / "Bearing_unknown")

        bad_field = tmp_path / "BearingA"
        bad_field.mkdir()
        (bad_field / "acc_00001.csv").write_text("0,0,0,0.0,oops,1.0\n")
        with pytest.raises(MalformedRow):
            dataio.load_pronostia_bearing(bad_field)

        ragged = tmp_path / "BearingB"
        ragged.mkdir()
        (ragged / "acc_00001.csv").write_text("0,0,0,0.0,1.0,1.0\n")
        (ragged / "acc_00002.csv").write_text(
            "0,0,0,0.0,1.0,1.0\n0,0,0,39.0,2.0,2.0\n")
        with pytest.raises(InconsistentSnapshotLength):
            dataio.load_pronostia_bearing(ragged)
