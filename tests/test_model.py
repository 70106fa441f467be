import dataclasses
import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import bearingrul.autodiff as ad
from bearingrul import dataio, features as ft, model as md
from bearingrul.autodiff import Tensor
from bearingrul.errors import ConfigMismatch, IndivisibleGrid, OddGrid
from gradcheck import check_op
from sample_arrays import random_records


def forward_one(samples, i, params):
    """Predicted RUL for record i alone: the oracle for predict_batch."""
    return float(md.forward_batch(params, samples[i:i + 1]).data[0])


@pytest.fixture(scope="module")
def desk():
    cfg = md.desk_config()
    return cfg, md.init_params(cfg, seed=1)


# --- configuration ---

def test_paper_preset_dimensions():
    cfg = md.paper_config()
    assert [cfg.stage_dim(i) for i in range(4)] == [96, 192, 384, 768]
    assert [cfg.stage_side(i) for i in range(4)] == [32, 16, 8, 4]
    assert cfg.final_dim == 768


def test_desk_preset_dimensions():
    cfg = md.desk_config()
    assert [cfg.stage_dim(i) for i in range(4)] == [16, 32, 64, 128]
    assert [cfg.stage_side(i) for i in range(4)] == [16, 8, 4, 2]
    assert [cfg.stage_window(i) for i in range(4)] == [4, 4, 4, 2]


def test_config_rejects_bad_heads():
    with pytest.raises(ConfigMismatch):
        md.ModelConfig(embed_dim_base=16, heads=(5, 2, 4, 8))


def test_config_rejects_bad_grid():
    with pytest.raises(ConfigMismatch):
        md.ModelConfig(input_side=24)


def test_config_rejects_bad_dropout():
    with pytest.raises(ConfigMismatch):
        md.ModelConfig(dropout_p=1.0)


def test_config_window_indivisible():
    with pytest.raises(IndivisibleGrid):
        md.ModelConfig(embed_dim_base=16, heads=(1, 2, 4, 8), window_size=3,
                       input_side=32)


def test_config_from_preset():
    assert md.config_from_preset("desk").preset == "desk"
    assert md.config_from_preset("paper").preset == "paper"
    with pytest.raises(ConfigMismatch):
        md.config_from_preset("tiny")


def test_config_roundtrips_via_dict():
    cfg = md.desk_config()
    assert md.ModelConfig.from_dict(cfg.to_dict()) == cfg


# --- parameters ---

def test_param_census_matches_config():
    for cfg in (md.desk_config(), md.paper_config()):
        params = md.init_params(cfg, seed=0)
        assert params.flat.size == md.expected_param_count(cfg)


def test_param_census_paper_logged(caplog):
    with caplog.at_level("INFO", logger="bearingrul.model"):
        md.init_params(md.paper_config(), seed=0)
    assert any("parameters" in r.message for r in caplog.records)


def test_init_is_seeded():
    a = md.init_params(md.desk_config(), seed=3)
    b = md.init_params(md.desk_config(), seed=3)
    for name in a.tensors:
        assert np.array_equal(a[name].data, b[name].data)


def test_params_view_one_flat_vector_in_sorted_name_order(desk):
    cfg, params = desk
    shapes = md.expected_shapes(cfg)
    names = sorted(shapes)
    assert list(params.tensors) == names
    stop = 0
    for row, name in zip(md.param_layout(cfg), names, strict=True):
        assert row == (name, stop, stop + math.prod(shapes[name]), shapes[name])
        stop = row[2]
    assert stop == md.expected_param_count(cfg) == params.flat.size
    assert np.array_equal(
        np.concatenate([params[n].data for n in names], axis=None), params.flat)
    fresh = md.init_params(cfg, seed=1)
    fresh.flat[-1] = 7.0
    assert fresh[names[-1]].data.flat[-1] == 7.0


def test_zero_grad_views_one_gradient_vector():
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=0)
    assert params.grad is None  # inference never allocates it
    params.zero_grad()
    grad = params.grad
    assert grad.shape == params.flat.shape and not grad.any()
    for name, _, _, shape in md.param_layout(cfg):
        assert params[name].grad.shape == shape
        assert params[name].grad.base is grad
    grad[-1] = 7.0
    assert params[md.param_layout(cfg)[-1][0]].grad.flat[-1] == 7.0
    params.zero_grad()
    assert params.grad is grad and not grad.any()


def test_validate_params_rejects_a_rebound_tensor():
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=0)
    params["head.out.w"].data = np.ones(params["head.out.w"].shape)
    with pytest.raises(ConfigMismatch, match="head.out.w"):
        md.validate_params(params)


# --- stems and fusion ---

def test_conv_stem_shape(desk):
    cfg, params = desk
    out = md.conv_stem(Tensor(np.random.default_rng(0).random((2, 1, 32, 32))),
                       params, "hor")
    assert out.data.shape == (2, cfg.conv_channels, 16, 16)


def test_conv_stem_zero_input_zero_output(desk):
    _, params = desk
    out = md.conv_stem(Tensor(np.zeros((1, 1, 32, 32))), params, "ver")
    assert np.abs(out.data).max() == 0.0


def test_fuse_token_grid(desk):
    cfg, params = desk
    rng = np.random.default_rng(1)
    hor = md.conv_stem(Tensor(rng.random((1, 1, 32, 32))), params, "hor")
    ver = md.conv_stem(Tensor(rng.random((1, 1, 32, 32))), params, "ver")
    tokens = md.fuse(hor, ver, params)
    assert tokens.data.shape == (1, 16, 16, cfg.embed_dim_base)


def test_fuse_is_channel_asymmetric(desk):
    _, params = desk
    rng = np.random.default_rng(2)
    a = rng.random((1, 1, 32, 32))
    b = rng.random((1, 1, 32, 32))

    def run(first, second):
        return md.fuse(md.conv_stem(Tensor(first), params, "hor"),
                       md.conv_stem(Tensor(second), params, "ver"),
                       params).data

    assert not np.allclose(run(a, b), run(b, a))


def test_paper_fuse_token_count():
    cfg = md.paper_config()
    params = md.init_params(cfg, seed=0)
    rng = np.random.default_rng(3)
    hor = md.conv_stem(Tensor(rng.random((1, 1, 64, 64))), params, "hor")
    ver = md.conv_stem(Tensor(rng.random((1, 1, 64, 64))), params, "ver")
    fused = ad.concat([hor, ver], axis=1)
    assert fused.data.shape == (1, 64, 32, 32)
    tokens = md.fuse(hor, ver, params)
    assert tokens.data.shape[1] * tokens.data.shape[2] == 1024


# --- window attention ---

def test_window_partition_counts():
    x = Tensor(np.arange(2 * 8 * 8 * 3, dtype=np.float64).reshape(2, 8, 8, 3))
    windows = md._partition(x, 2, 8, 4, 3)
    assert windows.data.shape == (2 * 4, 16, 3)
    back = md._unpartition(windows, 2, 8, 4, 3)
    np.testing.assert_allclose(back.data, x.data, atol=0)


def test_shifted_mask_blocks_wrapped_regions():
    mask = md.shifted_window_mask(8, 4)
    assert mask.shape == (4, 16, 16)
    assert set(np.unique(mask)) == {md.MASK_OFF, 0.0}
    # window 0 holds interior tokens only: fully visible
    assert np.all(mask[0] == 0.0)
    scores = np.random.default_rng(4).normal(size=(4, 1, 16, 16)) + mask[:, None]
    attn = ad.softmax(Tensor(scores), axis=-1).data
    np.testing.assert_allclose(attn.sum(-1), np.ones((4, 1, 16)), atol=1e-9)
    assert attn[np.broadcast_to(mask[:, None] < 0, attn.shape)].max() <= 1e-12


def test_attention_output_shape_and_rows(desk):
    cfg, params = desk
    rng = np.random.default_rng(5)
    tokens = Tensor(rng.normal(size=(2, 8, 8, 32)))
    out = md.window_attention(tokens, params, "stage1.block0.attn", heads=2,
                              window=4, shifted=True)
    assert out.data.shape == (2, 8, 8, 32)


def test_attention_indivisible_grid(desk):
    _, params = desk
    with pytest.raises(IndivisibleGrid):
        md.window_attention(Tensor(np.zeros((1, 6, 6, 16))), params,
                            "stage0.block0.attn", heads=1, window=4,
                            shifted=False)


@pytest.mark.parametrize("shifted", [False, True])
def test_gradcheck_window_attention(desk, shifted):
    _, params = desk
    rng = np.random.default_rng(6)
    tokens = Tensor(rng.normal(size=(1, 8, 8, 16)), requires_grad=True)
    prefix = "stage0.block0.attn"
    tensors = [tokens] + [params[f"{prefix}.{s}"]
                          for s in ("q.w", "k.w", "v.w", "proj.w", "relpos")]

    def build():
        return md.window_attention(tokens, params, prefix, heads=1, window=4,
                                   shifted=shifted)

    check_op(build, tensors, tol=2e-4)


# --- patch merging ---

def test_patch_merging_shapes(desk):
    cfg, params = desk
    tokens = Tensor(np.random.default_rng(7).normal(size=(2, 16, 16, 16)))
    out = md.patch_merging(tokens, params, "merge0")
    assert out.data.shape == (2, 8, 8, 32)


def test_patch_merging_rejects_odd_grid(desk):
    _, params = desk
    with pytest.raises(OddGrid):
        md.patch_merging(Tensor(np.zeros((1, 3, 3, 16))), params, "merge0")


def test_stage_cascade_dims():
    cfg = md.paper_config()
    sides = [cfg.stage_side(i) for i in range(4)]
    dims = [cfg.stage_dim(i) for i in range(4)]
    assert sides == [32, 16, 8, 4]
    assert dims == [96, 192, 384, 768]
    assert dims[3] == 8 * cfg.embed_dim_base


# --- forward ---

@pytest.mark.parametrize("cfg,shifted", [
    (md.desk_config(), [0, 0, 0, 0]),
    # the paper preset's depths, window and side; widths only cut the cost
    (dataclasses.replace(md.paper_config(), embed_dim_base=16,
                         heads=(1, 2, 4, 8)), [1, 1, 3, 0]),
], ids=["desk", "paper"])
def test_shifted_window_blocks_per_stage(cfg, shifted, monkeypatch):
    counts = [0, 0, 0, 0]
    real = md.window_attention

    def spy(tokens, params, prefix, heads, window, shifted):
        counts[int(prefix[len("stage")])] += shifted
        return real(tokens, params, prefix, heads, window, shifted)

    monkeypatch.setattr(md, "window_attention", spy)
    md.forward_batch(md.init_params(cfg, seed=0), np.zeros(1, ft.SAMPLE_DTYPE))
    assert counts == shifted


def test_forward_batch_shape_and_finite(desk):
    _, params = desk
    rng = np.random.default_rng(8)
    out = md.forward_batch(params, random_records(3, rng))
    assert out.data.shape == (3,)
    assert np.all(np.isfinite(out.data))


def test_forward_deterministic_without_dropout(desk):
    _, params = desk
    samples = random_records(2, np.random.default_rng(9))
    a = md.forward_batch(params, samples, training=False).data
    b = md.forward_batch(params, samples, training=False).data
    assert np.array_equal(a, b)


def test_forward_batch_permutation_equivariant(desk):
    _, params = desk
    samples = random_records(4, np.random.default_rng(10))
    out = md.forward_batch(params, samples).data
    perm = np.array([2, 0, 3, 1])
    out_perm = md.forward_batch(params, samples[perm]).data
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_forward_single_sample_smoke(desk):
    _, params = desk
    samples = random_records(1, np.random.default_rng(11))
    started = time.time()
    value = forward_one(samples, 0, params)
    assert np.isfinite(value)
    assert time.time() - started < 0.5


def test_prepare_images_block_max():
    img = np.zeros((64, 64), dtype=np.float32)
    img[0, 0] = 1.0
    out = md.prepare_images([img], 32)
    assert out.shape == (1, 1, 32, 32)
    assert out[0, 0, 0, 0] == 1.0
    assert out.sum() == 1.0
    rng = np.random.default_rng(11)
    imgs = rng.random((4, 64, 64)).astype(np.float32)
    imgs[2:] = rng.choice(np.float32([0.0, -0.0, 0.5]), size=(2, 64, 64))  # ties
    for side in (16, 32, 64):
        f = 64 // side
        blocks = imgs.astype(np.float64).reshape(4, side, f, side, f)
        out = md.prepare_images(list(imgs), side)
        assert np.array_equal(out[:, 0], blocks.max(axis=(2, 4)))
        # the bytes of pooling the widened images, signed zeros included
        wide = imgs.astype(np.float64)[:, None]
        for _ in range(f.bit_length() - 1):
            _, wide = ad._max_2x2(wide)
        assert out.dtype == np.float64 and out.tobytes() == wide.tobytes()
        assert np.signbit(out[2:]).any() and (out[2:] == 0).any()


def test_prepare_images_native_side_passthrough():
    img = np.random.default_rng(12).random((64, 64)).astype(np.float32)
    out = md.prepare_images([img], 64)
    np.testing.assert_allclose(out[0, 0], img, atol=1e-7)


def test_predict_batch_matches_forward(desk):
    _, params = desk
    samples = random_records(3, np.random.default_rng(13))
    preds = md.predict_batch(params, samples)
    singles = [forward_one(samples, i, params) for i in range(len(samples))]
    np.testing.assert_allclose(preds, singles, atol=1e-12)


def test_predict_batch_of_no_records_is_empty(desk):
    _, params = desk
    preds = md.predict_batch(params, random_records(1, np.random.default_rng(13))[:0])
    assert preds.shape == (0,) and preds.dtype == np.float64


def test_predict_batch_records_no_graph(desk, monkeypatch):
    _, params = desk
    samples = random_records(3, np.random.default_rng(14))
    outputs = []
    real = md.forward_batch

    def spy(*args, **kwargs):
        outputs.append(real(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(md, "forward_batch", spy)
    monkeypatch.setattr(md, "PREDICT_CHUNK", 2)
    md.predict_batch(params, samples)
    assert len(outputs) == 2
    assert all(not o.requires_grad and o._node is None for o in outputs)
    assert ad.no_grad.recording


@pytest.fixture(scope="module")
def perturbed():
    """Desk config, perturbed initial weights and 65 distinct samples."""
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=7)
    params.flat += np.random.default_rng(11).normal(0.0, 0.05, params.flat.size)
    samples = random_records(65, np.random.default_rng(16))
    return cfg, params, samples


def force_threads(monkeypatch, count):
    """Make predict_batch run on min(count, chunks) threads."""
    monkeypatch.setattr(md, "_PREDICT_THREADS", count)
    monkeypatch.setattr(md, "_usable_cpus", lambda: count)


def test_predict_batch_gives_each_record_its_own_bits(perturbed, monkeypatch):
    """A record's prediction has the bytes of a forward pass over that
    record alone, whatever chunks it runs in (PREDICT_CHUNK 1 to 64, one
    chunk of up to 65), and whatever records are beside it (permuted,
    truncated)."""
    _, params, samples = perturbed
    n = len(samples)
    alone = np.array([forward_one(samples, i, params) for i in range(n)])
    assert np.unique(alone).size == n
    force_threads(monkeypatch, 1)
    layouts = set()  # one thread: ceil(n / size) chunks, so sizes can share one
    for size in range(1, 65):
        if -(-n // size) not in layouts:
            layouts.add(-(-n // size))
            monkeypatch.setattr(md, "PREDICT_CHUNK", size)
            assert md.predict_batch(params, samples).tobytes() == alone.tobytes(), size
    monkeypatch.setattr(md, "PREDICT_CHUNK", n)
    for m in (1, 2, 17, 40, 64, 65):
        assert md.predict_batch(params, samples[:m]).tobytes() == alone[:m].tobytes()
    monkeypatch.undo()
    order = np.random.default_rng(17).permutation(n)
    assert md.predict_batch(params, samples[order]).tobytes() == alone[order].tobytes()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_predict_batch_threads_keep_the_serial_bits(perturbed, monkeypatch,
                                                    threads):
    """Any thread count gives the bytes of one forward pass per record, run
    one after another on this thread, also with threads switched as often
    as the interpreter allows; two or more records run on a pool."""
    _, params, samples = perturbed
    ran_on = set()
    real = md.forward_batch

    def spy(*args, **kwargs):
        ran_on.add(threading.current_thread())
        return real(*args, **kwargs)

    oracle = np.array([forward_one(samples, i, params) for i in range(len(samples))])
    for n in (1, 2, 15, 16, 17, 37, 65):
        force_threads(monkeypatch, threads)
        monkeypatch.setattr(md, "forward_batch", spy)
        ran_on.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            preds = md.predict_batch(params, samples[:n])
        finally:
            sys.setswitchinterval(interval)
            monkeypatch.undo()
        assert preds.tobytes() == oracle[:n].tobytes()
        pooled = threads > 1 and n > 1
        assert (threading.main_thread() in ran_on) != pooled


def test_predict_batch_threads_keep_the_callers_errstate(perturbed, monkeypatch):
    """Chunks run in the caller's numpy error state, as train's validation
    needs: an overflow it ignores must not warn in a worker thread."""
    _, params, samples = perturbed
    force_threads(monkeypatch, 2)
    flat = params.flat.copy()
    try:
        params.flat *= 1e120
        with pytest.raises(RuntimeWarning, match="overflow"):
            md.predict_batch(params, samples[:32])
        with np.errstate(over="ignore", invalid="ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                md.predict_batch(params, samples[:32])
    finally:
        params.flat[:] = flat


def test_predict_batch_threads_raise_the_first_failing_chunk(perturbed,
                                                             monkeypatch):
    """A failing chunk raises what the serial loop raises, the first failure
    in chunk order, and leaves recording on and no thread running."""
    _, params, samples = perturbed
    marked = samples[:37].copy()
    marked["hor"][:, 0, 0] = np.arange(37)  # records 10 and 30 fail
    real = md.forward_batch

    def fail_records_10_and_30(params, records, **kwargs):
        marks = np.round(records["hor"][:, 0, 0])
        if 10 in marks:  # the first failing chunk fails last
            time.sleep(0.2)
            raise ValueError("record 10 failed")
        if 30 in marks:
            raise ValueError("record 30 failed")
        return real(params, records, **kwargs)

    monkeypatch.setattr(md, "forward_batch", fail_records_10_and_30)
    for threads in (1, 2):
        force_threads(monkeypatch, threads)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^record 10 failed$"):
            md.predict_batch(params, marked)
        assert ad.no_grad.recording
        assert threading.active_count() == before


def fake_cgroup(tmp_path, monkeypatch, lines, files, cpus=8):
    """Point _cpu_quota at a /proc/self/cgroup of `lines` and a cgroup
    mount holding `files` ({relative path: text}), with `cpus` in the mask."""
    proc = tmp_path / "self_cgroup"
    proc.write_text("".join(line + "\n" for line in lines))
    root = tmp_path / "cgroup"
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    monkeypatch.setattr(md, "_PROC_CGROUP", proc)
    monkeypatch.setattr(md, "_CGROUP_ROOT", root)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


V1_LINES = ["3:cpuset:/", "2:cpu,cpuacct:/job", "1:name=systemd:/job", "0::/"]


def v1_files(quota, period="100000"):
    return {"cpu,cpuacct/job/cpu.cfs_quota_us": quota + "\n",
            "cpu,cpuacct/job/cpu.cfs_period_us": period + "\n"}


@pytest.mark.parametrize("lines, files, usable", [
    (["0::/job"], {"job/cpu.max": "200000 100000\n"}, 2),      # v2
    (["0::/job"], {"job/cpu.max": "150000 100000\n"}, 2),      # 1.5 CPUs
    (["0::/job"], {"job/cpu.max": "max 100000\n"}, 8),         # unlimited
    (["0::/"], {"cpu.max": "100000 100000\n"}, 1),            # root cgroup
    (["0::/job"], {"job/cpu.max": "1600000 100000\n"}, 8),     # above the mask
    (V1_LINES, v1_files("300000"), 3),                         # v1
    (V1_LINES, v1_files("50000"), 1),                          # half a CPU
    (V1_LINES, v1_files("-1"), 8),                             # unlimited
    (V1_LINES, {}, 8),                                         # no files
    (V1_LINES, v1_files("three"), 8),                          # unreadable
    (V1_LINES, v1_files("300000", period=""), 8),              # no period
    (["2:cpu:/job", "0::/job"], {"cpu/job/cpu.cfs_quota_us": "100000\n",
                                 "cpu/job/cpu.cfs_period_us": "100000\n"}, 1),
])
def test_usable_cpus_reads_the_cgroup_quota(tmp_path, monkeypatch, lines, files,
                                            usable):
    """min(affinity mask, ceil(quota / period)), from cgroup v2's cpu.max
    or v1's cfs files under the process's own cgroup path."""
    fake_cgroup(tmp_path, monkeypatch, lines, files)
    assert md._usable_cpus() == usable


def test_usable_cpus_without_a_cgroup_file(tmp_path, monkeypatch):
    fake_cgroup(tmp_path, monkeypatch, [], {}, cpus=3)
    monkeypatch.setattr(md, "_PROC_CGROUP", tmp_path / "missing")
    assert md._usable_cpus() == 3


def test_quota_below_the_mask_sizes_threads_and_workers(tmp_path, monkeypatch,
                                                        perturbed):
    """A quota of one CPU under a mask of 8 runs predict_batch inline and
    ingest in this process."""
    _, params, samples = perturbed
    fake_cgroup(tmp_path, monkeypatch, ["0::/job"],
                {"job/cpu.max": "100000 100000\n"})
    assert dataio._process_count(512_000) == 1
    ran_on = set()
    real = md.forward_batch

    def spy(*args, **kwargs):
        ran_on.add(threading.current_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(md, "forward_batch", spy)
    md.predict_batch(params, samples[:37])
    assert ran_on == {threading.main_thread()}


def test_dropout_seed_changes_training_output():
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=1)
    rng = np.random.default_rng(14)
    # the final layer starts at zero, which would hide mask differences
    params["head.out.w"].data[...] = rng.normal(size=params["head.out.w"].shape)
    samples = random_records(2, rng)
    a = md.forward_batch(params, samples, training=True,
                         rng=np.random.default_rng(0)).data
    b = md.forward_batch(params, samples, training=True,
                         rng=np.random.default_rng(0)).data
    c = md.forward_batch(params, samples, training=True,
                         rng=np.random.default_rng(1)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
