"""Train the desk-scale network end to end on synthetic data.

Generates a run-to-failure record, detects the onset, featurizes windows
into paired WPD images, trains for a couple of minutes on the CPU, and
compares held-out MAE against the predict-the-mean baseline.

Takes roughly a minute.
"""

import numpy as np

from bearingrul import dataio, features as ft, model as md, training as tr

cfg = dataio.SyntheticConfig(n_snapshots=340, samples_per_snapshot=256,
                             fault_onset_index=50, seed=7)
record = dataio.gen_synthetic(cfg)
fpt = ft.detect_fpt(ft.kurtosis_series(record))
print("detected onset:", fpt)

samples = ft.sample_records(ft.build_dataset(record, fpt, size=10, stride=3))
train_set = np.concatenate([samples[0::2][:48], samples[1::4][:16]])
i = np.arange(len(samples))
held_out = samples[(i % 2 == 1) & ((i - 1) % 4 != 0)]
print(f"training on {len(train_set)} windows, holding out {len(held_out)}")

model_cfg = md.desk_config()
print("desk model parameters:", f"{md.expected_param_count(model_cfg):,}")

train_cfg = tr.TrainConfig(learning_rate=1e-3, batch_size=8, epochs=30, seed=0)
params, history = tr.train(train_set, model_cfg, train_cfg,
                           tr.LossConfig(kind="mse"))
for stats in history[::6] + [history[-1]]:
    print(f"  epoch {stats.epoch:3d}  train loss {stats.train_loss:.4f}")

preds = md.predict_batch(params, model_cfg, held_out)
targets = held_out["label"].astype(np.float64)
batch = tr.PredictionBatch(preds, targets)
baseline = np.abs(targets - train_set["label"].astype(np.float64).mean()).mean()
print(f"\nheld-out MAE: {tr.mae(batch):.4f}   predict-the-mean baseline: "
      f"{baseline:.4f}")
print(f"score (mean): {tr.score(batch):.4f}   late fraction: "
      f"{tr.late_fraction(batch):.2f}")
