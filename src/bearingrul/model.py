"""Two-channel regression network over WPD images.

Per-channel conv stems feed a channel-concatenated linear embedding, four
hierarchical stages of windowed multi-head self-attention with learned
relative-position bias, separated by 2x2 patch merging, then global average
pooling and a small fully connected head that emits one unbounded RUL
estimate. Every second block of a stage attends in cyclically shifted
windows unless its grid is one window: "desk" builds no such block, "paper" 5.

Shapes are derivable from the config alone and validated at construction,
so a mismatched (input side, window, depths) combination fails fast. The
"paper" preset is the full-scale architecture (final stage width 768); the
"desk" preset is small enough to train on a laptop CPU in minutes.
"""

import contextvars
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigMismatch, IndivisibleGrid, OddGrid
from .features import IMAGE_SIDE

logger = logging.getLogger(__name__)

MASK_OFF = -1e30  # pre-softmax mask value; exp() underflows to exactly 0
# Samples per predict_batch forward pass: the CLI's training batch, which keeps
# the largest temporary (the desk stem's conv output, 256 KiB a sample) at 4 MiB.
PREDICT_CHUNK = 16
# Threads predict_batch runs its chunks on, at most: the only count measured
# (on 2 CPUs); each thread adds one chunk's working set to the peak.
_PREDICT_THREADS = 2


# Where _cpu_quota looks: this process's cgroup lines, and the cgroup mount.
_PROC_CGROUP = Path("/proc/self/cgroup")
_CGROUP_ROOT = Path("/sys/fs/cgroup")


def _read_quota(*files) -> int | None:
    """ceil(quota / period) from files reading "quota period" together;
    None for "max", a quota of -1, or a missing or unreadable file."""
    try:
        quota, period = map(int, " ".join(f.read_text() for f in files).split()[:2])
    except (OSError, ValueError):  # "max", or fewer than two fields
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def _cpu_quota() -> int | None:
    """CPUs the cgroup CPU quota of this process allows, rounded up; None
    without one. Reads cgroup v2's cpu.max, then v1's cpu.cfs_quota_us and
    cpu.cfs_period_us, under the process's own path in /proc/self/cgroup."""
    try:
        lines = _PROC_CGROUP.read_text().splitlines()
    except OSError:
        return None
    v2 = v1 = None
    for line in lines:  # "hierarchy-id:controllers:path"
        _, controllers, path = line.split(":", 2)
        rel = path.lstrip("/")
        if not controllers:
            v2 = _read_quota(_CGROUP_ROOT / rel / "cpu.max")
        elif "cpu" in controllers.split(","):
            folder = _CGROUP_ROOT / controllers / rel
            v1 = _read_quota(folder / "cpu.cfs_quota_us", folder / "cpu.cfs_period_us")
    return v1 if v2 is None else v2


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask, or fewer if its cgroup CPU
    quota allows fewer (1.5 CPUs of quota count as 2); 1 where the OS
    cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; stage i has width embed_dim_base * 2^i."""

    embed_dim_base: int = 96
    depths: tuple = (2, 2, 6, 2)
    heads: tuple = (3, 6, 12, 24)
    window_size: int = 4
    mlp_ratio: float = 4.0
    dropout_p: float = 0.3
    conv_channels: int = 32
    input_side: int = 64
    preset: str = "custom"

    def __post_init__(self):
        if len(self.depths) != 4 or len(self.heads) != 4:
            raise ConfigMismatch("depths and heads must each have 4 entries")
        sizes = (self.embed_dim_base, self.window_size, self.conv_channels,
                 self.input_side, *self.depths, *self.heads)
        if not all(isinstance(n, int) for n in sizes):
            raise ConfigMismatch("widths, sides, depths and heads must be integers")
        if not isinstance(self.preset, str):
            raise ConfigMismatch(f"preset must be a string, not {self.preset!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigMismatch("dropout_p must be in [0, 1)")
        if self.input_side % 2 or (self.input_side // 2) % 8:
            raise ConfigMismatch(
                f"input_side {self.input_side} must embed to a grid divisible by 8")
        if IMAGE_SIDE % self.input_side:
            raise ConfigMismatch(
                f"input_side {self.input_side} must divide the {IMAGE_SIDE}-pixel image")
        for i in range(4):
            if self.stage_dim(i) % self.heads[i]:
                raise ConfigMismatch(
                    f"stage {i}: heads {self.heads[i]} must divide dim {self.stage_dim(i)}")
            side = self.stage_side(i)
            if side % self.stage_window(i):
                raise IndivisibleGrid(
                    f"stage {i}: window {self.stage_window(i)} must divide grid side {side}")

    def stage_dim(self, i: int) -> int:
        return self.embed_dim_base * (1 << i)

    def stage_side(self, i: int) -> int:
        return (self.input_side // 2) >> i

    def stage_window(self, i: int) -> int:
        """Window clamped to the grid side, so tiny grids use one window."""
        return min(self.window_size, self.stage_side(i))

    @property
    def final_dim(self) -> int:
        return self.stage_dim(3)

    @property
    def head_hidden(self):
        return (self.final_dim // 2, self.final_dim // 4)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["depths"] = tuple(d["depths"])
        d["heads"] = tuple(d["heads"])
        return cls(**d)


def paper_config() -> ModelConfig:
    """Full-scale preset: base width 96, final width 768, heads [3,6,12,24]."""
    return ModelConfig(embed_dim_base=96, depths=(2, 2, 6, 2), heads=(3, 6, 12, 24),
                       window_size=4, input_side=64, preset="paper")


def desk_config() -> ModelConfig:
    """Laptop-scale preset: base width 16, one block per stage, 16x16 grid."""
    return ModelConfig(embed_dim_base=16, depths=(1, 1, 1, 1), heads=(1, 2, 4, 8),
                       window_size=4, input_side=32, preset="desk")


def config_from_preset(name: str) -> ModelConfig:
    presets = {"paper": paper_config, "desk": desk_config}
    if name not in presets:
        raise ConfigMismatch(f"unknown preset {name!r}; expected paper or desk")
    return presets[name]()


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class ModelParams:
    """Every learnable tensor as a named view into one float64 vector.

    `flat` holds the parameters in param_layout(cfg) order and params[name]
    is a trainable Tensor over its slice, so in-place writes to either side
    are seen by both. `cfg` is the config the params were built from.
    Rebinding a tensor's .data detaches it from `flat`; validate_params
    rejects that.
    """

    def __init__(self, cfg: ModelConfig, flat: np.ndarray, init_seed: int = 0):
        self.cfg = cfg
        self.flat = flat
        self.grad = None
        self.init_seed = init_seed
        self.tensors = {n: Tensor(v, requires_grad=True) for n, v in _views(flat, cfg)}

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def zero_grad(self):
        """Zero `grad`, laid out like `flat`, and point each .grad at its slice."""
        if self.grad is None:  # the first call; inference never makes one
            self.grad = np.empty_like(self.flat)
            self._grad_views = _views(self.grad, self.cfg)
        self.grad.fill(0.0)
        for name, view in self._grad_views:
            self.tensors[name].grad = view


def _views(vector: np.ndarray, cfg: ModelConfig):
    """(name, view) per row of param_layout(cfg), slicing `vector`."""
    return [(name, vector[start:stop].reshape(shape))
            for name, start, stop, shape in param_layout(cfg)]


def expected_shapes(cfg: ModelConfig) -> dict:
    """Name -> shape map for every learnable tensor, derived from the config,
    in the order init_params draws them."""
    cc, c = cfg.conv_channels, cfg.embed_dim_base
    shapes = {}

    def linear(name, fan_in, fan_out):  # the weight, then the bias
        shapes[f"{name}.w"], shapes[f"{name}.b"] = (fan_in, fan_out), (fan_out,)

    for ch in ("hor", "ver"):
        shapes[f"stem.{ch}.w"], shapes[f"stem.{ch}.b"] = (cc, 1, 3, 3), (cc,)
    linear("embed", 2 * cc, c)
    for i in range(4):
        dim = cfg.stage_dim(i)
        hidden = int(dim * cfg.mlp_ratio)
        for j in range(cfg.depths[i]):
            p = f"stage{i}.block{j}"
            shapes[f"{p}.norm1.g"] = shapes[f"{p}.norm1.b"] = (dim,)
            for proj in ("q", "k", "v", "proj"):
                linear(f"{p}.attn.{proj}", dim, dim)
            shapes[f"{p}.attn.relpos"] = ((2 * cfg.stage_window(i) - 1) ** 2, cfg.heads[i])
            shapes[f"{p}.norm2.g"] = shapes[f"{p}.norm2.b"] = (dim,)
            linear(f"{p}.mlp.fc1", dim, hidden)
            linear(f"{p}.mlp.fc2", hidden, dim)
        if i < 3:
            shapes[f"merge{i}.w"] = (4 * dim, 2 * dim)
    h1, h2 = cfg.head_hidden
    linear("head.fc1", cfg.final_dim, h1)
    linear("head.fc2", h1, h2)
    linear("head.out", h2, 1)
    return shapes


@lru_cache(maxsize=8)
def param_layout(cfg: ModelConfig) -> tuple:
    """(name, start, stop, shape) per learnable tensor, sorted by name: its
    slice of ModelParams.flat. The one layout table, and the checkpoint
    manifest's order."""
    shapes, table, stop = expected_shapes(cfg), [], 0
    for name in sorted(shapes):
        start, stop = stop, stop + math.prod(shapes[name])
        table.append((name, start, stop, shapes[name]))
    return tuple(table)


def expected_param_count(cfg: ModelConfig) -> int:
    return param_layout(cfg)[-1][2]


def _trunc_normal(rng, shape, std=0.02):
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x


def init_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded init chosen for healthy signal propagation at small scale.

    Residual-branch projections (attention q/k/v/proj, MLP, position
    bias) start truncated-normal with std 0.02 so every block opens near
    the identity. The spine that actually carries the signal gets
    unit-gain scales instead: He for the conv stems and head hidden
    layers (ReLU), 1/sqrt(fan_in) for the patch embedding and merging
    reductions. The final layer starts at zero so predictions begin
    exactly constant and prediction variance can only grow along
    loss-reducing directions; otherwise the early shrink-the-noise phase
    collapses the backbone into emitting input-independent features at
    desk-scale step counts.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams(cfg, np.zeros(expected_param_count(cfg)), init_seed=seed)
    for name, shape in expected_shapes(cfg).items():  # the order of the draws
        if name.endswith(".g"):
            data = 1.0
        elif name.endswith(".b") or name == "head.out.w":
            continue  # flat starts at zero
        elif name.startswith(("stem.", "head.")):
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            data = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        elif name == "embed.w" or name.startswith("merge"):
            data = rng.normal(0.0, np.sqrt(1.0 / shape[0]), size=shape)
        else:
            data = _trunc_normal(rng, shape)
        params[name].data[...] = data
    logger.info("initialized %s preset: %d parameters", cfg.preset,
                params.flat.size)
    return params


def validate_params(params: ModelParams):
    """Every tensor must still view the flat parameter vector."""
    for name, tensor in params.tensors.items():
        if tensor.data.base is not params.flat:
            raise ConfigMismatch(
                f"{name} no longer views the flat parameter vector; "
                f"write parameters in place (.data[...] = ...)")


# ---------------------------------------------------------------------------
# Geometry helpers (plain numpy, gradient-free)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def relative_position_index(window: int) -> np.ndarray:
    """Flat (T*T,) index into the (2w-1)^2 relative-position bias table."""
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window),
                                  indexing="ij"))
    flat = coords.reshape(2, -1)
    rel = (flat[:, :, None] - flat[:, None, :]).transpose(1, 2, 0) + window - 1
    return np.ascontiguousarray(
        (rel[..., 0] * (2 * window - 1) + rel[..., 1]).reshape(-1))


@lru_cache(maxsize=32)
def shifted_window_mask(side: int, window: int) -> np.ndarray:
    """(nW, T, T) additive mask isolating wrapped regions after a cyclic shift."""
    shift = window // 2
    region = np.zeros((side, side))
    tag = 0
    for rows in (slice(0, side - window), slice(side - window, side - shift),
                 slice(side - shift, side)):
        for cols in (slice(0, side - window), slice(side - window, side - shift),
                     slice(side - shift, side)):
            region[rows, cols] = tag
            tag += 1
    win = region.reshape(side // window, window, side // window, window)
    win = win.transpose(0, 2, 1, 3).reshape(-1, window * window)
    different = win[:, :, None] != win[:, None, :]
    return np.where(different, MASK_OFF, 0.0)


def _partition(x: Tensor, n: int, side: int, window: int, dim: int) -> Tensor:
    """(N, side, side, C) -> (N * nW, window^2, C)."""
    g = side // window
    x = ad.reshape(x, (n, g, window, g, window, dim))
    x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
    return ad.reshape(x, (n * g * g, window * window, dim))


def _unpartition(x: Tensor, n: int, side: int, window: int, dim: int) -> Tensor:
    g = side // window
    x = ad.reshape(x, (n, g, g, window, window, dim))
    x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
    return ad.reshape(x, (n, side, side, dim))


def _linear(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    return ad.linear(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


# ---------------------------------------------------------------------------
# Network pieces
# ---------------------------------------------------------------------------

def conv_stem(x: Tensor, params: ModelParams, channel: str) -> Tensor:
    """3x3 conv (pad 1) -> 2x2 max pool -> ReLU; halves the spatial side.

    Max and ReLU commute, so this is the conv -> ReLU -> pool stem, bit for
    bit in outputs and gradients, with the ReLU on a quarter of the elements.
    """
    y = ad.conv2d(x, params[f"stem.{channel}.w"], params[f"stem.{channel}.b"])
    return ad.relu(ad.maxpool2d(y))


def fuse(hor_feat: Tensor, ver_feat: Tensor, params: ModelParams) -> Tensor:
    """Concatenate stem outputs on channels and embed to tokens.

    Each (N, C, side, side) stem output is already channels-last in memory,
    so its (N, side, side, C) transpose is a free view and the concat on the
    last axis is the only copy. Output is (N, side, side, embed_dim_base) on
    the side/2 token grid.
    """
    if hor_feat.shape != ver_feat.shape:
        raise ConfigMismatch(
            f"stem outputs differ: {hor_feat.shape} vs {ver_feat.shape}")
    tokens = ad.concat([ad.transpose(f, (0, 2, 3, 1)) for f in (hor_feat, ver_feat)],
                       axis=-1)
    return _linear(tokens, params, "embed")


def window_attention(tokens: Tensor, params: ModelParams, prefix: str,
                     heads: int, window: int, shifted: bool) -> Tensor:
    """Multi-head self-attention within (optionally shifted) windows.

    tokens is (N, side, side, C). When shifted, the grid is cyclically
    rolled by window/2 and wrapped regions are masked off (MASK_OFF
    pre-softmax), then rolled back afterwards.
    """
    n, side, _, dim = tokens.shape
    if side % window:
        raise IndivisibleGrid(f"grid side {side} not divisible by window {window}")
    head_dim = dim // heads
    scale = 1.0 / np.sqrt(head_dim)
    shift = window // 2 if shifted else 0

    x = ad.roll(tokens, (-shift, -shift), (1, 2)) if shift else tokens
    x = _partition(x, n, side, window, dim)
    batch, t = x.shape[0], window * window

    def split_heads(proj):
        y = _linear(x, params, f"{prefix}.{proj}")
        y = ad.reshape(y, (batch, t, heads, head_dim))
        return ad.transpose(y, (0, 2, 1, 3))

    q, k, v = split_heads("q"), split_heads("k"), split_heads("v")
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), scale)

    bias = ad.gather_rows(params[f"{prefix}.relpos"], relative_position_index(window))
    bias = ad.transpose(ad.reshape(bias, (t, t, heads)), (2, 0, 1))
    scores = ad.add(scores, ad.reshape(bias, (1, heads, t, t)))

    if shift:
        mask = shifted_window_mask(side, window)
        scores = ad.add(scores, np.tile(mask, (n, 1, 1))[:, None, :, :])

    attn = ad.softmax(scores, axis=-1)
    out = ad.matmul(attn, v)
    out = ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (batch, t, dim))
    out = _linear(out, params, f"{prefix}.proj")
    out = _unpartition(out, n, side, window, dim)
    return ad.roll(out, (shift, shift), (1, 2)) if shift else out


def patch_merging(tokens: Tensor, params: ModelParams, prefix: str) -> Tensor:
    """Group 2x2 token neighborhoods (4C) and reduce linearly to 2C."""
    n, side, _, dim = tokens.shape
    if side % 2:
        raise OddGrid(f"patch merging needs an even grid side, got {side}")
    half = side // 2
    x = ad.reshape(tokens, (n, half, 2, half, 2, dim))
    x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
    x = ad.reshape(x, (n, half, half, 4 * dim))
    return ad.matmul(x, params[f"{prefix}.w"])


def _block(tokens: Tensor, params: ModelParams, prefix: str, heads: int,
           window: int, shifted: bool) -> Tensor:
    y = ad.layer_norm(tokens, params[f"{prefix}.norm1.g"], params[f"{prefix}.norm1.b"])
    y = window_attention(y, params, f"{prefix}.attn", heads, window, shifted)
    tokens = ad.add(tokens, y)
    y = ad.layer_norm(tokens, params[f"{prefix}.norm2.g"], params[f"{prefix}.norm2.b"])
    y = ad.relu(_linear(y, params, f"{prefix}.mlp.fc1"))
    y = _linear(y, params, f"{prefix}.mlp.fc2")
    return ad.add(tokens, y)


def prepare_images(images, input_side: int) -> np.ndarray:
    """(N, 64, 64) images as (N, 1, S, S) float64, block-max reducing 64 -> S.

    Max (not mean) pooling: wavelet-packet pixels oscillate around
    mid-gray, so averaging neighbors cancels the very texture that
    carries subband energy, while the block maximum keeps its envelope.
    The maxima are taken in the images' own dtype (float32 for records) and
    widened once at the end: widening is exact and keeps the order, so the
    bits are those of pooling the widened images.
    """
    x = np.asarray(images)[:, None, :, :]
    factor = x.shape[-1] // input_side  # 1, 2 or 4 (ModelConfig: S is 64, 32 or 16)
    for _ in range(factor.bit_length() - 1):  # log2(factor) strided 2x2 maxes
        _, x = ad._max_2x2(x)
    return np.asarray(x, dtype=np.float64)


def forward_batch(params: ModelParams, records, training: bool = False,
                  rng=None) -> Tensor:
    """Full network of params.cfg on SAMPLE_DTYPE records, both images
    through prepare_images; returns predictions (N,).

    With training=False (dropout off) the output is a pure function of the
    records and parameters, and each record's prediction a function of that
    record alone, bit for bit: every op runs one BLAS product or reduction
    per record (or per attention window of one), never one whose row count
    is the batch size. So the head pools to (N, 1, C) and runs one (1, K) @ (K, M)
    product per record. Predictions are not clamped to [0, 1].
    """
    cfg = params.cfg
    validate_params(params)
    hor = prepare_images(records["hor"], cfg.input_side)
    ver = prepare_images(records["ver"], cfg.input_side)
    n = hor.shape[0]
    tokens = fuse(conv_stem(Tensor(hor), params, "hor"),
                  conv_stem(Tensor(ver), params, "ver"), params)
    for i in range(4):
        window = cfg.stage_window(i)
        can_shift = window < cfg.stage_side(i)
        for j in range(cfg.depths[i]):
            tokens = _block(tokens, params, f"stage{i}.block{j}", cfg.heads[i],
                            window, shifted=(j % 2 == 1 and can_shift))
        if i < 3:
            tokens = patch_merging(tokens, params, f"merge{i}")
    side = cfg.stage_side(3)
    pooled = ad.mean(ad.reshape(tokens, (n, side * side, cfg.final_dim)), axis=1,
                     keepdims=True)

    h = ad.relu(_linear(pooled, params, "head.fc1"))
    h = ad.dropout(h, cfg.dropout_p, training, rng)
    h = ad.relu(_linear(h, params, "head.fc2"))
    h = ad.dropout(h, cfg.dropout_p, training, rng)
    out = _linear(h, params, "head.out")
    return ad.reshape(out, (n,))


def predict_batch(params: ModelParams, samples) -> np.ndarray:
    """Deterministic (dropout-off) predictions for SAMPLE_DTYPE records.

    Runs under autodiff.no_grad, so no graph is recorded. A record's
    prediction does not depend on the records beside it (forward_batch),
    so the chunks are sized for speed alone: ceil(n / PREDICT_CHUNK) of
    them, that count rounded up to a multiple of the thread count but at
    most n, with sizes as equal as can be. 20 records run as 10 + 10 on two
    threads, and no chunk exceeds PREDICT_CHUNK.

    Chunks are independent forward passes, and numpy releases the GIL in
    BLAS and its loops, so they run on min(_PREDICT_THREADS, usable CPUs,
    chunks) threads, inline when that is 1. Only this thread enters
    no_grad, whose flag is process-wide: a worker leaving it could turn
    recording back on under the other. Each chunk runs in a copy of this
    thread's context, which carries numpy's errstate. The first failing
    chunk's exception is raised, as a serial loop would raise it, and the
    chunks not yet begun are dropped. The pool lives for one call, so no
    thread outlives it into a later fork (dataio._in_slices).
    """
    n = len(samples)
    if not n:
        return np.empty(0)
    threads = min(_PREDICT_THREADS, _usable_cpus())
    chunks = -(-n // PREDICT_CHUNK)
    chunks = min(n, -(-chunks // threads) * threads)
    bounds = [n * k // chunks for k in range(chunks + 1)]
    threads = min(threads, chunks)

    def chunk_preds(k: int) -> np.ndarray:
        return forward_batch(params, samples[bounds[k]:bounds[k + 1]]).data

    with ad.no_grad():
        if threads <= 1:
            preds = [chunk_preds(k) for k in range(chunks)]
        else:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(contextvars.copy_context().run,
                                       chunk_preds, k) for k in range(chunks)]
                try:
                    preds = [f.result() for f in futures]
                except BaseException:
                    pool.shutdown(cancel_futures=True)
                    raise
    return np.concatenate(preds)
