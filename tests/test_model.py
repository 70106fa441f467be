import dataclasses
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import bearingrul.autodiff as ad
from bearingrul import model as md
from bearingrul.autodiff import Tensor
from bearingrul.errors import ConfigMismatch, IndivisibleGrid, OddGrid
from gradcheck import check_op
from sample_arrays import random_records


def forward_one(sample, params, cfg):
    """Predicted RUL for one dataset record: the oracle for predict_batch."""
    hor = md.prepare_images(sample["hor"][None], cfg.input_side)
    ver = md.prepare_images(sample["ver"][None], cfg.input_side)
    return float(md.forward_batch(params, cfg, hor, ver).data[0])


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


def test_validate_params_catches_mismatch(desk):
    cfg, params = desk
    with pytest.raises(ConfigMismatch):
        md.validate_params(params, md.paper_config())


def test_params_view_one_flat_vector_in_sorted_name_order(desk):
    cfg, params = desk
    names = sorted(md.expected_shapes(cfg))
    assert list(params.tensors) == names
    assert md.param_layout(cfg) == tuple(
        (n, md.expected_shapes(cfg)[n]) for n in names)
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
    for name, shape in md.param_layout(cfg):
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
        md.validate_params(params, cfg)


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
    x = np.zeros((1, 1, cfg.input_side, cfg.input_side))
    md.forward_batch(md.init_params(cfg, seed=0), cfg, x, x)
    assert counts == shifted


def test_forward_batch_shape_and_finite(desk):
    cfg, params = desk
    rng = np.random.default_rng(8)
    out = md.forward_batch(params, cfg, rng.random((3, 1, 32, 32)),
                           rng.random((3, 1, 32, 32)))
    assert out.data.shape == (3,)
    assert np.all(np.isfinite(out.data))


def test_forward_batch_rejects_wrong_side(desk):
    cfg, params = desk
    with pytest.raises(ConfigMismatch):
        md.forward_batch(params, cfg, np.zeros((1, 1, 64, 64)),
                         np.zeros((1, 1, 64, 64)))


def test_forward_deterministic_without_dropout(desk):
    cfg, params = desk
    rng = np.random.default_rng(9)
    hor, ver = rng.random((2, 1, 32, 32)), rng.random((2, 1, 32, 32))
    a = md.forward_batch(params, cfg, hor, ver, training=False).data
    b = md.forward_batch(params, cfg, hor, ver, training=False).data
    assert np.array_equal(a, b)


def test_forward_batch_permutation_equivariant(desk):
    cfg, params = desk
    rng = np.random.default_rng(10)
    hor, ver = rng.random((4, 1, 32, 32)), rng.random((4, 1, 32, 32))
    out = md.forward_batch(params, cfg, hor, ver).data
    perm = np.array([2, 0, 3, 1])
    out_perm = md.forward_batch(params, cfg, hor[perm], ver[perm]).data
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_forward_single_sample_smoke(desk):
    cfg, params = desk
    sample = random_records(1, np.random.default_rng(11))[0]
    started = time.time()
    value = forward_one(sample, params, cfg)
    assert np.isfinite(value)
    assert time.time() - started < 0.5


def test_prepare_images_block_max():
    img = np.zeros((64, 64), dtype=np.float32)
    img[0, 0] = 1.0
    out = md.prepare_images([img], 32)
    assert out.shape == (1, 1, 32, 32)
    assert out[0, 0, 0, 0] == 1.0
    assert out.sum() == 1.0
    imgs = np.random.default_rng(11).random((3, 64, 64)).astype(np.float32)
    for side in (16, 32):
        f = 64 // side
        blocks = imgs.astype(np.float64).reshape(3, side, f, side, f)
        assert np.array_equal(md.prepare_images(list(imgs), side)[:, 0],
                              blocks.max(axis=(2, 4)))


def test_prepare_images_native_side_passthrough():
    img = np.random.default_rng(12).random((64, 64)).astype(np.float32)
    out = md.prepare_images([img], 64)
    np.testing.assert_allclose(out[0, 0], img, atol=1e-7)


def test_predict_batch_matches_forward(desk):
    cfg, params = desk
    samples = random_records(3, np.random.default_rng(13))
    preds = md.predict_batch(params, cfg, samples)
    singles = [forward_one(s, params, cfg) for s in samples]
    np.testing.assert_allclose(preds, singles, atol=1e-12)


def test_predict_batch_chunks_of_16_match_chunks_of_64():
    """The default chunk of 16 gives the bits that chunks of 64 gave.

    Not every chunk size does: with OpenBLAS, chunks of 1, 3 or 33 move
    the last bit of some predictions.
    """
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=7)
    params.flat += np.random.default_rng(11).normal(0.0, 0.05, params.flat.size)
    samples = random_records(37, np.random.default_rng(15))
    preds = md.predict_batch(params, cfg, samples)
    assert np.unique(preds).size == len(samples)
    for size in (64, 32, 20):
        chunked = md.predict_batch(params, cfg, samples, batch_size=size)
        assert chunked.tobytes() == preds.tobytes()


def test_predict_batch_records_no_graph(desk, monkeypatch):
    cfg, params = desk
    samples = random_records(3, np.random.default_rng(14))
    outputs = []
    real = md.forward_batch

    def spy(*args, **kwargs):
        outputs.append(real(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(md, "forward_batch", spy)
    md.predict_batch(params, cfg, samples, batch_size=2)
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


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_predict_batch_threads_keep_the_serial_bits(perturbed, monkeypatch,
                                                    threads):
    """Any thread count gives the bytes of one forward pass per 16-sample
    chunk, run one after another on this thread, also with threads
    switched as often as the interpreter allows."""
    cfg, params, samples = perturbed
    ran_on = set()
    real = md.forward_batch

    def spy(*args, **kwargs):
        ran_on.add(threading.current_thread())
        return real(*args, **kwargs)

    def serial(chunks):
        return np.concatenate([real(
            params, cfg, md.prepare_images(c["hor"], cfg.input_side),
            md.prepare_images(c["ver"], cfg.input_side)).data
            for c in chunks])

    for n in (1, 15, 16, 17, 37, 65):
        oracle = serial(samples[i:min(i + 16, n)] for i in range(0, n, 16))
        force_threads(monkeypatch, threads)
        monkeypatch.setattr(md, "forward_batch", spy)
        ran_on.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            preds = md.predict_batch(params, cfg, samples[:n])
        finally:
            sys.setswitchinterval(interval)
            monkeypatch.undo()
        assert preds.tobytes() == oracle.tobytes()
        pooled = threads > 1 and n > 16
        assert (threading.main_thread() in ran_on) != pooled


def test_predict_batch_threads_keep_the_callers_errstate(perturbed, monkeypatch):
    """Chunks run in the caller's numpy error state, as train's validation
    needs: an overflow it ignores must not warn in a worker thread."""
    cfg, params, samples = perturbed
    force_threads(monkeypatch, 2)
    flat = params.flat.copy()
    try:
        params.flat *= 1e120
        with pytest.raises(RuntimeWarning, match="overflow"):
            md.predict_batch(params, cfg, samples[:32])
        with np.errstate(over="ignore", invalid="ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                md.predict_batch(params, cfg, samples[:32])
    finally:
        params.flat[:] = flat


def test_predict_batch_threads_raise_the_first_failing_chunk(perturbed,
                                                             monkeypatch):
    """A failing chunk raises what the serial loop raises, the first failure
    in chunk order, and leaves recording on and no thread running."""
    cfg, params, samples = perturbed
    marked = samples[:37].copy()  # chunks of 16, 16 and 5
    marked["hor"][:, 0, 0] = np.repeat([10, 11, 12], [16, 16, 5])
    real = md.forward_batch

    def fail_chunks_1_and_2(params, cfg, hor, ver, **kwargs):
        chunk = round(hor[0, 0, 0, 0]) - 10  # the block max keeps the mark
        if chunk == 1:  # the first failing chunk fails last
            time.sleep(0.2)
        if chunk:
            raise ValueError(f"chunk {chunk} failed")
        return real(params, cfg, hor, ver, **kwargs)

    monkeypatch.setattr(md, "forward_batch", fail_chunks_1_and_2)
    for threads in (1, 2):
        force_threads(monkeypatch, threads)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^chunk 1 failed$"):
            md.predict_batch(params, cfg, marked)
        assert ad.no_grad.recording
        assert threading.active_count() == before


def test_dropout_seed_changes_training_output():
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=1)
    rng = np.random.default_rng(14)
    # the final layer starts at zero, which would hide mask differences
    params["head.out.w"].data[...] = rng.normal(size=params["head.out.w"].shape)
    hor, ver = rng.random((2, 1, 32, 32)), rng.random((2, 1, 32, 32))
    a = md.forward_batch(params, cfg, hor, ver, training=True,
                         rng=np.random.default_rng(0)).data
    b = md.forward_batch(params, cfg, hor, ver, training=True,
                         rng=np.random.default_rng(0)).data
    c = md.forward_batch(params, cfg, hor, ver, training=True,
                         rng=np.random.default_rng(1)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
