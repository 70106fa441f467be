"""Degradation-onset detection on a synthetic run-to-failure record.

Kurtosis sits near 3 while the bearing is healthy; growing fault impacts
push it out of the mu +/- 3 sigma band. The first index with three
consecutive exceedances becomes the first prediction time (FPT), and
labels decay linearly from 1 there to 0 at end of life.
"""


from bearingrul import dataio, features as ft

cfg = dataio.SyntheticConfig(n_snapshots=100, samples_per_snapshot=2560,
                             fault_onset_index=50, seed=7)
record = dataio.gen_synthetic(cfg)
series = ft.kurtosis_series(record)

baseline, mu, sigma, lo, hi = ft.healthy_band(series, ft.FptConfig())
fpt = ft.detect_fpt(series)

print(f"healthy baseline: first {baseline} snapshots, "
      f"mu={mu:.3f}, sigma={sigma:.3f}")
print(f"band: [{lo:.3f}, {hi:.3f}]")
print(f"true onset: {cfg.fault_onset_index}   detected FPT: {fpt}")

print("\nkurtosis around the onset:")
for i in range(46, 58):
    marker = " <-- FPT" if i == fpt else ""
    print(f"  snapshot {i:3d}: {series[i]:7.2f}{marker}")

labels = ft.assign_labels(record.n_snapshots, fpt)
print("\nlabels:", " ".join(f"{labels[i]:.2f}" for i in range(48, 60)),
      "...", f"{labels[-1]:.2f}")
