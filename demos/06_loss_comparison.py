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

print(f"{'loss':8s} {'MAE':>8s} {'score':>8s} {'late':>6s}")
for kind, lam in (("mse", 0.0), ("custom", 1.0)):  # MSE is lambda 0
    train_cfg = tr.TrainConfig(learning_rate=1e-3, batch_size=8, epochs=30,
                               seed=0, lam=lam)
    params, _ = tr.train(train_set, model_cfg, train_cfg)
    report = tr.metrics_report(md.predict_batch(params, held_out), targets)
    print(f"{kind:8s} {report['mae']:8.4f} {report['score_mean']:8.4f} "
          f"{report['late_fraction']:6.2f}")

print("\nthe hinge pushes predictions toward the early side: a late miss")
print("delays maintenance, an early one only schedules it sooner.")
