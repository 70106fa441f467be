"""perfbench's tracer finds the functions it wraps by name, and names
some spans after an argument (`channel`, `prefix`). Renaming either then
breaks the benchmark; this test makes it break the tier-1 suite too.

    python3 -m pytest -q tests/test_perfbench_tracing.py
"""

import importlib.util
from pathlib import Path

import numpy as np

from bearingrul import dataio
from bearingrul import features as ft
from bearingrul import model as md

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_a_forward_pass_and_restores_every_original():
    tracing = load_tracing()
    targets = [(mod, name) for mod, name, _ in tracing._spans()]
    targets += [(tracing.autodiff, name) for name in tracing._autodiff_ops()]
    originals = [getattr(mod, name) for mod, name in targets]
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=0)
    x = np.zeros((1, 1, cfg.input_side, cfg.input_side))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(mod, name) is not fn
                   for (mod, name), fn in zip(targets, originals))
        md.forward_batch(params, cfg, x, x)
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is fn for (mod, name), fn in zip(targets, originals))
    assert tracer.problems == []
    assert {"model.forward_batch", "model.fuse", "model.conv_stem.hor",
            "model.conv_stem.ver",
            *(f"model.window_attention.stage{i}" for i in range(4)),
            *(f"model.patch_merging.merge{i}" for i in range(3))} <= set(tracer.calls)


def test_featurize_denoises_every_snapshot_once_per_channel():
    """perfbench/test_perfbench.py pins the signal workload's denoise calls
    at two per snapshot (one per channel) and divides the denoise time by
    the record's snapshot count; this pins the same counts in tier 1."""
    tracing = load_tracing()
    cfg = dataio.SyntheticConfig(n_snapshots=24, samples_per_snapshot=64,
                                 fault_onset_index=12, seed=5)
    record = dataio.gen_synthetic(cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ft.build_dataset(record, fpt=12, size=4, stride=2, denoise=True)
    finally:
        tracer.uninstall()
    assert tracer.problems == []
    metrics = tracer.layer_metrics()
    assert metrics["wavelets.wavelet_denoise.calls"] == 2 * record.n_snapshots
    assert tracer.calls["features.preprocess_record"] == 1
    assert tracer.calls["features.snapshots_denoised"] == record.n_snapshots
