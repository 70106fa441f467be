"""Data ingestion, synthetic run-to-failure generation, and persistence.

Container formats (all little-endian, magic + integer version up front):

Dataset (.bin):
    bytes 0..3    magic b"WPDS"
    u32           version (currently 1)
    u32           sample count
    u32 x 2       image height, width
    per sample    hor pixels f32[h*w], ver pixels f32[h*w], label f32
plus a JSON sidecar at <path>.json holding bearing_id, fpt and the
featurization config.

Checkpoint (.ckpt):
    bytes 0..3    magic b"BRCK"
    u32           version (currently 1)
    u64           header length in bytes
    header        JSON: model config, init seed, parameter manifest
                  (name + shape per entry, in model.param_layout order)
    blob          f64[P]: ModelParams.flat, the P parameters in manifest order

A checkpoint loads only if its header parses, its config is valid, its
init seed is an integer, its manifest equals that config's layout and the
blob holds exactly P finite values; anything else is a CorruptContainer.
Both containers round-trip bit-exactly.
"""

import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptContainer,
    InconsistentSnapshotLength,
    InvalidConfig,
    MalformedRow,
    MissingDirectory,
    VersionMismatch,
)
from .features import IMAGE_SIDE, BearingRecord, LabeledSample, WpdImage
from .model import (ModelConfig, ModelParams, expected_param_count, param_layout,
                    validate_params)

DATASET_MAGIC = b"WPDS"
DATASET_VERSION = 1
CHECKPOINT_MAGIC = b"BRCK"
CHECKPOINT_VERSION = 1

PRONOSTIA_SAMPLE_RATE = 25600.0
PRONOSTIA_PERIOD_S = 10.0


# ---------------------------------------------------------------------------
# PRONOSTIA-style CSV trees
# ---------------------------------------------------------------------------

def _numeric_suffix(path: Path) -> int:
    m = re.search(r"(\d+)\D*$", path.stem)
    return int(m.group(1)) if m else -1


def load_pronostia_bearing(directory, hor_col: int = 4,
                           ver_col: int = 5) -> BearingRecord:
    """Load one bearing folder of per-snapshot acceleration CSVs.

    Files are ordered by their numeric suffix regardless of on-disk order.
    Default column layout follows the public distribution: four timestamp
    fields, then horizontal and vertical acceleration; pass hor_col/ver_col
    for variant exports. Temperature files are ignored.
    """
    root = Path(directory)
    if not root.is_dir():
        raise MissingDirectory(f"{root} is not a directory")
    files = sorted(root.glob("acc*.csv"), key=_numeric_suffix)
    if not files:
        raise MissingDirectory(f"no acceleration CSVs under {root}")
    hor_snaps, ver_snaps = [], []
    for f in files:
        hor, ver = _parse_acc_csv(f, hor_col, ver_col)
        if hor_snaps and hor.size != hor_snaps[0].size:
            raise InconsistentSnapshotLength(
                f"{f.name} has {hor.size} rows, expected {hor_snaps[0].size}")
        hor_snaps.append(hor)
        ver_snaps.append(ver)
    m = re.match(r"Bearing(\d+)_(\d+)", root.name)
    return BearingRecord(horizontal=np.stack(hor_snaps),
                         vertical=np.stack(ver_snaps),
                         sample_rate_hz=PRONOSTIA_SAMPLE_RATE,
                         snapshot_period_s=PRONOSTIA_PERIOD_S,
                         bearing_id=root.name,
                         condition_id=int(m.group(1)) if m else 0)


def _parse_acc_csv(path: Path, hor_col: int, ver_col: int):
    hor, ver = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            delim = ";" if line.count(";") > line.count(",") else ","
            parts = line.split(delim)
            try:
                hor.append(float(parts[hor_col]))
                ver.append(float(parts[ver_col]))
            except (ValueError, IndexError) as exc:
                raise MalformedRow(f"{path}:{lineno}: {exc}",
                                   path=str(path), line=lineno) from exc
    if not hor:
        raise MalformedRow(f"{path}: no data rows", path=str(path), line=0)
    return np.array(hor), np.array(ver)


def save_record_csvdir(record: BearingRecord, directory):
    """Write a record as a PRONOSTIA-style folder of acc_NNNNN.csv files.

    Full-precision repr floats, so ingesting the folder reproduces the
    record exactly.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(record.n_snapshots):
        t0 = i * record.snapshot_period_s
        path = root / f"acc_{i + 1:05d}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for j in range(record.samples_per_snapshot):
                t = t0 + j / record.sample_rate_hz
                h, rem = divmod(t, 3600.0)
                m, s = divmod(rem, 60.0)
                us = (s - math.floor(s)) * 1e6
                fh.write(f"{int(h)},{int(m)},{int(s)},{us:.1f},"
                         f"{float(record.horizontal[i, j])!r},"
                         f"{float(record.vertical[i, j])!r}\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Synthetic run-to-failure generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    """Growing-impulse fault model on top of stationary background noise.

    The background is generalized-Gaussian noise shaped to the requested
    healthy kurtosis (3.0 = Gaussian). From fault_onset_index onward the
    severity s = fault_growth_rate * snapshots-since-onset drives two
    signatures: a periodic train of positive impacts of height s sigma
    (raises kurtosis, which is what onset detection keys on) and a pair
    of defect tones whose energy sweeps from the low band to the high
    band over the degradation span (tone amplitudes s * tone_level *
    4q(1-q) and s * tone_level * q^2 for life fraction q), so the
    time-frequency signature evolves through end of life instead of
    saturating. Both tones vanish at onset, leaving detection purely
    impulse-driven. Channels share the fault schedule but carry
    independent noise. Records carry the PRONOSTIA sample rate and
    snapshot period.
    """

    n_snapshots: int = 100
    samples_per_snapshot: int = 2560
    healthy_kurtosis_level: float = 3.0
    fault_onset_index: int = 50
    fault_growth_rate: float = 2.0
    noise_std: float = 1.0
    seed: int = 0
    impulses_per_snapshot: int = 20
    tone_level: float = 2.0
    tone_freq_low: float = 0.06    # fraction of the sample rate
    tone_freq_high: float = 0.17
    bearing_id: str = "synthetic"

    def __post_init__(self):
        if not 0 < self.fault_onset_index < self.n_snapshots:
            raise InvalidConfig("fault_onset_index must lie inside the record")
        if self.noise_std < 0:
            raise InvalidConfig("noise_std must be >= 0")
        if self.samples_per_snapshot < 16:
            raise InvalidConfig("samples_per_snapshot must be >= 16")
        if not 1.9 < self.healthy_kurtosis_level < 100.0:
            raise InvalidConfig("healthy_kurtosis_level must be in (1.9, 100)")
        if self.impulses_per_snapshot < 1:
            raise InvalidConfig("impulses_per_snapshot must be >= 1")


def _gennorm_shape_for_kurtosis(kurt: float) -> float:
    """Invert the generalized-Gaussian kurtosis G(5/b)G(1/b)/G(3/b)^2."""

    def k_of(b):
        return (math.gamma(5.0 / b) * math.gamma(1.0 / b)
                / math.gamma(3.0 / b) ** 2)

    lo, hi = 0.15, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if k_of(mid) > kurt:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gennorm_noise(rng, beta: float, size) -> np.ndarray:
    """Unit-variance generalized-Gaussian draws: signed Gamma(1/beta)^(1/beta)."""
    g = rng.standard_gamma(1.0 / beta, size=size)
    x = g ** (1.0 / beta)
    x *= np.where(rng.random(size=size) < 0.5, -1.0, 1.0)
    unit_var = math.gamma(3.0 / beta) / math.gamma(1.0 / beta)
    return x / math.sqrt(unit_var)


def gen_synthetic(cfg: SyntheticConfig) -> BearingRecord:
    """Deterministic synthetic bearing record; a pure function of cfg."""
    rng = np.random.default_rng(cfg.seed)
    n, m = cfg.n_snapshots, cfg.samples_per_snapshot
    beta = _gennorm_shape_for_kurtosis(cfg.healthy_kurtosis_level)
    hor = _gennorm_noise(rng, beta, (n, m)) * cfg.noise_std
    ver = _gennorm_noise(rng, beta, (n, m)) * cfg.noise_std
    k = cfg.impulses_per_snapshot
    period = max(1, m // k)
    t = np.arange(m)
    span = max(1, n - cfg.fault_onset_index)
    for i in range(n):
        positions = (np.arange(k) * period + rng.integers(0, period)) % m
        ph_low, ph_high = rng.uniform(0.0, 2.0 * np.pi, size=2)
        if i < cfg.fault_onset_index:
            continue
        since = i - cfg.fault_onset_index + 1
        amp = cfg.fault_growth_rate * since * cfg.noise_std
        q = since / span
        tone = (cfg.tone_level * amp * 4.0 * q * (1.0 - q)
                * np.sin(2.0 * np.pi * cfg.tone_freq_low * t + ph_low)
                + cfg.tone_level * amp * q * q
                * np.sin(2.0 * np.pi * cfg.tone_freq_high * t + ph_high))
        hor[i, positions] += amp
        ver[i, positions] += amp
        hor[i] += tone
        ver[i] += tone
    return BearingRecord(horizontal=hor, vertical=ver,
                         sample_rate_hz=PRONOSTIA_SAMPLE_RATE,
                         snapshot_period_s=PRONOSTIA_PERIOD_S,
                         bearing_id=cfg.bearing_id)


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------

def save_dataset(samples, path, bearing_id: str = None, fpt=None, config: dict = None):
    """Write samples to the flat binary container plus its JSON sidecar."""
    path = Path(path)
    if bearing_id is None:
        bearing_id = samples[0].bearing_id if samples else ""
    side = IMAGE_SIDE
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIII", DATASET_MAGIC, DATASET_VERSION,
                             len(samples), side, side))
        for s in samples:
            fh.write(s.hor.pixels.astype("<f4").tobytes())
            fh.write(s.ver.pixels.astype("<f4").tobytes())
            fh.write(struct.pack("<f", s.label))
    sidecar = {
        "magic": DATASET_MAGIC.decode(),
        "version": DATASET_VERSION,
        "n_samples": len(samples),
        "image_side": side,
        "bearing_id": bearing_id,
        "fpt": fpt,
        "config": config or {},
    }
    with open(str(path) + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_dataset(path):
    """Read the container back; returns (samples, sidecar dict)."""
    path = Path(path)
    blob = path.read_bytes()
    head = struct.calcsize("<4sIIII")
    if len(blob) < head:
        raise CorruptContainer(f"{path}: too small for a dataset header")
    magic, version, count, h, w = struct.unpack_from("<4sIIII", blob)
    if magic != DATASET_MAGIC:
        raise CorruptContainer(f"{path}: bad magic {magic!r}")
    if version != DATASET_VERSION:
        raise VersionMismatch(f"{path}: version {version}, expected {DATASET_VERSION}")
    per_sample = (2 * h * w + 1) * 4
    if len(blob) != head + count * per_sample:
        raise CorruptContainer(
            f"{path}: expected {head + count * per_sample} bytes, got {len(blob)}")
    sidecar_path = Path(str(path) + ".json")
    sidecar = {}
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    bearing_id = sidecar.get("bearing_id", "")
    samples = []
    off = head
    for _ in range(count):
        hor = np.frombuffer(blob, dtype="<f4", count=h * w, offset=off).reshape(h, w)
        off += h * w * 4
        ver = np.frombuffer(blob, dtype="<f4", count=h * w, offset=off).reshape(h, w)
        off += h * w * 4
        (label,) = struct.unpack_from("<f", blob, off)
        off += 4
        samples.append(LabeledSample(hor=WpdImage(pixels=hor, channel="horizontal"),
                                     ver=WpdImage(pixels=ver, channel="vertical"),
                                     label=label, bearing_id=bearing_id))
    return samples, sidecar


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------

def _manifest(cfg: ModelConfig) -> list:
    """The header's parameter manifest: name and shape in flat order."""
    return [{"name": name, "shape": list(shape)}
            for name, shape in param_layout(cfg)]


def save_checkpoint(params: ModelParams, cfg: ModelConfig, path):
    path = Path(path)
    validate_params(params, cfg)
    header = json.dumps({"config": cfg.to_dict(), "init_seed": params.init_seed,
                         "manifest": _manifest(cfg)}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQ", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             len(header)))
        fh.write(header)
        fh.write(params.flat.astype("<f8").tobytes())
    return path


def load_checkpoint(path):
    """Returns (params, config); parameters are trainable tensors."""
    path = Path(path)
    blob = path.read_bytes()
    head = struct.calcsize("<4sIQ")
    if len(blob) < head:
        raise CorruptContainer(f"{path}: too small for a checkpoint header")
    magic, version, hlen = struct.unpack_from("<4sIQ", blob)
    if magic != CHECKPOINT_MAGIC:
        raise CorruptContainer(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(
            f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
    if len(blob) < head + hlen:
        raise CorruptContainer(f"{path}: truncated header")
    try:
        header = json.loads(blob[head:head + hlen].decode("utf-8"))
        cfg = ModelConfig.from_dict(header["config"])
        layout_matches = header["manifest"] == _manifest(cfg)
        init_seed = header["init_seed"]
        if type(init_seed) is not int:
            raise TypeError(f"init_seed must be an integer, not {init_seed!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptContainer(
            f"{path}: bad header: {type(exc).__name__}: {exc}") from None
    if not layout_matches:
        raise CorruptContainer(
            f"{path}: parameter manifest does not match the config's layout")
    count = expected_param_count(cfg)
    if len(blob) != head + hlen + 8 * count:
        raise CorruptContainer(f"{path}: {len(blob) - head - hlen} data bytes, "
                               f"expected {8 * count} for {count} parameters")
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=head + hlen)
    bad = np.count_nonzero(~np.isfinite(flat))
    if bad:
        raise CorruptContainer(f"{path}: {bad} non-finite parameter values")
    return ModelParams(cfg, flat.astype(np.float64), init_seed), cfg
