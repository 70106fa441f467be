"""Effect of the late-penalty loss, in miniature.

Two identical models train on identical data with identical seeds; the
only difference is the loss: plain MSE versus MSE plus a hinge on
overestimation. The hinge model trades a little MAE for markedly fewer
late predictions, which is the safer direction to miss in.

Takes a few minutes (two full training runs).
"""

from bearingrul import dataio, features as ft, model as md, training as tr

cfg = dataio.SyntheticConfig(n_snapshots=340, samples_per_snapshot=256,
                             fault_onset_index=50, seed=100)
record = dataio.gen_synthetic(cfg)
fpt = ft.detect_fpt(ft.kurtosis_series(record))
samples = ft.sample_records(ft.build_dataset(record, fpt, size=10, stride=4))
train_set = samples[0::2][:48]
held_out = samples[1::2][:24]
targets = held_out["label"]

model_cfg = md.desk_config()
train_cfg = tr.TrainConfig(learning_rate=1e-3, batch_size=8, epochs=30, seed=0)

print(f"{'loss':8s} {'MAE':>8s} {'score':>8s} {'late':>6s}")
for kind in ("mse", "custom"):
    params, _ = tr.train(train_set, model_cfg, train_cfg,
                         tr.LossConfig(kind=kind, lam=1.0))
    preds = md.predict_batch(params, model_cfg, held_out)
    batch = tr.PredictionBatch(preds, targets)
    print(f"{kind:8s} {tr.mae(batch):8.4f} {tr.score(batch):8.4f} "
          f"{tr.late_fraction(batch):6.2f}")

print("\nthe hinge pushes predictions toward the early side: a late miss")
print("delays maintenance, an early one only schedules it sooner.")
