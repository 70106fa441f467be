"""From run-to-failure record to labeled training set.

Pipeline order is denoise -> segment -> decompose: snapshots are cleaned
with wavelet soft-thresholding plus Savitzky-Golay smoothing, grouped into
overlapping windows of consecutive snapshots, and each window's per-channel
signal is turned into a time-frequency image via level-3 wavelet packet
decomposition. Degradation onset (FPT) comes from a kurtosis control chart;
labels decay linearly from 1 at onset to 0 at failure.
"""

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import wavelets
from .errors import (
    BaselineTooShort,
    FloatOverflow,
    FptOutOfRange,
    InvalidConfig,
    InvalidRecord,
    InvalidSample,
    NoPostFptWindows,
    RecordTooShort,
    ZeroVariance,
)

IMAGE_SIDE = 64

CHANNELS = ("horizontal", "vertical")


@dataclass
class BearingRecord:
    """Chronological two-channel vibration snapshots from one bearing.

    signals is a (2, n_snapshots, samples_per_snapshot) array, channels in
    CHANNELS order, one snapshot per row. Records are sampled at the
    PRONOSTIA rate and snapshot period (dataio.PRONOSTIA_*).
    """

    signals: np.ndarray
    bearing_id: str = ""

    def __post_init__(self):
        data = self.signals = np.asarray(self.signals, dtype=np.float64)
        if data.ndim != 3 or len(data) != len(CHANNELS) or data.shape[1] < 1:
            raise InvalidRecord(f"record of shape {data.shape}, not (2, n >= 1, m)")
        # One channel at a time, so the check's temporary is one channel big.
        if not all(np.isfinite(channel).all() for channel in data):
            raise InvalidRecord("record samples must be finite")

    @property
    def condition_id(self) -> int:
        """C of a PRONOSTIA-style `BearingC_B` id, else 0."""
        m = re.match(r"Bearing(\d+)_(\d+)", self.bearing_id)
        return int(m.group(1)) if m else 0

    @property
    def n_snapshots(self) -> int:
        return self.signals.shape[1]

    @property
    def samples_per_snapshot(self) -> int:
        return self.signals.shape[2]

    def channel(self, name: str) -> np.ndarray:
        if name not in CHANNELS:
            raise ValueError(f"unknown channel {name!r}")
        return self.signals[CHANNELS.index(name)]


@dataclass(frozen=True)
class Window:
    """A run of consecutive snapshot indices."""

    start: int
    size: int

    @property
    def indices(self) -> range:
        return range(self.start, self.start + self.size)

    @property
    def last(self) -> int:
        return self.start + self.size - 1


def sliding_windows(n: int, size: int = 10, stride: int = 5):
    """Windows over n snapshots at starts 0, stride, 2*stride, ...; trailing
    remainder dropped."""
    if size < 1 or stride < 1:
        raise InvalidConfig("size and stride must be >= 1")
    if n < size:
        raise RecordTooShort(f"{n} snapshots < window size {size}")
    count = (n - size) // stride + 1
    return [Window(start=i * stride, size=size) for i in range(count)]


def kurtosis_series(record: BearingRecord, channel: str = "horizontal"):
    """One kurtosis value per snapshot on the selected channel."""
    data = record.channel(channel)
    out = np.empty(record.n_snapshots)
    for i in range(record.n_snapshots):
        try:
            out[i] = wavelets.kurtosis(data[i])
        except (ZeroVariance, FloatOverflow) as exc:
            raise type(exc)(f"snapshot {i}: {exc}") from exc
    return out


@dataclass(frozen=True)
class FptConfig:
    """Kurtosis control-chart parameters for degradation-onset detection.

    baseline_count=None resolves to min(40, 20% of the series, but at
    least 4) when the detector runs.
    """

    baseline_count: Optional[int] = None
    consecutive_required: int = 3
    sigma_multiplier: float = 3.0
    channel_policy: str = "horizontal"

    def __post_init__(self):
        if self.baseline_count is not None and self.baseline_count < 4:
            raise InvalidConfig("baseline_count must be >= 4")
        if self.consecutive_required < 1:
            raise InvalidConfig("consecutive_required must be >= 1")
        if not 0 < self.sigma_multiplier < np.inf:
            raise InvalidConfig("sigma_multiplier must be finite and > 0")
        if self.channel_policy not in CHANNELS + ("either",):
            raise InvalidConfig(f"unknown channel_policy {self.channel_policy!r}")

    def resolve_baseline(self, n: int) -> int:
        if self.baseline_count is not None:
            return self.baseline_count
        return min(40, max(4, n // 5))


def healthy_band(k: np.ndarray, cfg: FptConfig):
    """(baseline, mu, sigma, lo, hi): the control band of kurtosis series k.

    mu and sigma (sample std, ddof=1) are taken over the first baseline
    entries, and the band is mu -/+ sigma_multiplier * sigma.
    """
    baseline = cfg.resolve_baseline(k.size)
    if k.size <= baseline:
        raise BaselineTooShort(
            f"series length {k.size} must exceed baseline {baseline}")
    mu = float(k[:baseline].mean())
    sigma = float(k[:baseline].std(ddof=1))
    return (baseline, mu, sigma, mu - cfg.sigma_multiplier * sigma,
            mu + cfg.sigma_multiplier * sigma)


def detect_fpt(k, cfg: FptConfig = FptConfig()):
    """First index whose run of `consecutive_required` values leaves the band.

    The band is healthy_band's. Returns the first index of the exceedance
    run, or None when no qualifying run exists.
    """
    k = np.asarray(k, dtype=np.float64)
    baseline, _, _, lo, hi = healthy_band(k, cfg)
    outside = (k < lo) | (k > hi)
    run = cfg.consecutive_required
    for i in range(baseline, k.size - run + 1):
        if outside[i:i + run].all():
            return i
    return None


def detect_fpt_record(record: BearingRecord, cfg: FptConfig = FptConfig()):
    """Run detect_fpt on the record per the configured channel policy.

    Returns (fpt, channel, series). Policy "either" takes the earliest FPT
    over both channels, horizontal on a tie. The channel set the FPT, or is
    the policy's first when none is found; series is its kurtosis series.
    """
    channels = CHANNELS if cfg.channel_policy == "either" else (cfg.channel_policy,)
    series = [kurtosis_series(record, ch) for ch in channels]
    found = [(detect_fpt(k, cfg), ch, k) for ch, k in zip(channels, series)]
    return min((hit for hit in found if hit[0] is not None),
               key=lambda hit: hit[0], default=found[0])


def assign_labels(record_length: int, fpt: int):
    """Label 1 through the FPT, then linear decay hitting exactly 0 at the end."""
    if not 0 <= fpt < record_length - 1:
        raise FptOutOfRange(
            f"fpt {fpt} outside [0, {record_length - 1})")
    i = np.arange(record_length, dtype=np.float64)
    labels = 1.0 - (i - fpt) / (record_length - 1 - fpt)
    labels[:fpt + 1] = 1.0
    return labels


def normalize_image(raw: np.ndarray) -> np.ndarray:
    """Min-max to [0, 1]; all zeros when the raw image is constant."""
    lo = raw.min()
    hi = raw.max()
    if hi == lo:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


@lru_cache(maxsize=8)
def _resample_grid(m: int, points: int):
    """Read-only (grid, positions): `points` evenly spaced positions over a
    length-m band, and the band's own sample positions 0..m-1."""
    grid = np.linspace(0.0, m - 1, points)
    positions = np.arange(m, dtype=np.float64)
    grid.flags.writeable = positions.flags.writeable = False
    return grid, positions


def wpd_image(window_signal, level: int = 3) -> np.ndarray:
    """Level-`level` WPD laid out as row blocks of a 64x64 float32 image.

    Each of the 2^level subbands (natural order) is linearly resampled to
    4096 / 2^level points and fills its own contiguous block of rows in
    row-major order; the assembled image is then min-max normalized and
    stored as float32, the at-rest precision of the dataset container.
    """
    bands = wavelets.wpd(window_signal, level)
    n_bands, m = bands.shape
    if n_bands > IMAGE_SIDE:
        raise InvalidConfig(f"level {level} yields more subbands than image rows")
    grid, positions = _resample_grid(m, IMAGE_SIDE * IMAGE_SIDE // n_bands)
    raw = np.stack([np.interp(grid, positions, band) for band in bands])
    return normalize_image(raw.reshape(IMAGE_SIDE, IMAGE_SIDE)).astype(np.float32)


# One dataset sample, as the container stores it and commands index it.
SAMPLE_DTYPE = np.dtype([("hor", "<f4", (IMAGE_SIDE, IMAGE_SIDE)),
                         ("ver", "<f4", (IMAGE_SIDE, IMAGE_SIDE)),
                         ("label", "<f4")])


class WpdImage(NamedTuple):
    """One window's image on one channel, and the window it shows."""

    pixels: np.ndarray
    source_window: Window


class LabeledSample(NamedTuple):
    """Paired-channel images of one window and its RUL label in [0, 1]."""

    hor: WpdImage
    ver: WpdImage
    label: float


def sample_records(samples) -> np.ndarray:
    """Pack samples into a SAMPLE_DTYPE array; labels become float32."""
    return np.array([(s.hor.pixels, s.ver.pixels, s.label) for s in samples],
                    dtype=SAMPLE_DTYPE)


def check_samples(records: np.ndarray) -> np.ndarray:
    """Return the SAMPLE_DTYPE records, or raise InvalidSample unless every
    pixel is finite and every label lies in [0, 1] (NaN does not)."""
    if not (np.isfinite(records["hor"]).all() and np.isfinite(records["ver"]).all()):
        raise InvalidSample("pixels must be finite")
    labels = records["label"]
    bad = ~((labels >= 0.0) & (labels <= 1.0))
    if bad.any():
        raise InvalidSample(f"label {labels[bad][0]} outside [0, 1]")
    return records


def preprocess_record(record: BearingRecord) -> BearingRecord:
    """Denoise every snapshot on both channels, identically.

    Wavelet soft-thresholding (universal rule) followed by Savitzky-Golay
    smoothing, per snapshot.
    """
    data = record.signals
    out = np.empty_like(data)
    for c, i in np.ndindex(data.shape[:2]):  # horizontal first
        out[c, i] = wavelets.savgol_filter(wavelets.wavelet_denoise(data[c, i]))
    return replace(record, signals=out)


def build_dataset(record: BearingRecord, fpt: int, size: int = 10,
                  stride: int = 5, level: int = 3, denoise: bool = True):
    """Featurize every window whose last snapshot is at or past the FPT.

    Each retained window becomes one LabeledSample: both channels'
    concatenated (denoised) snapshots turned into WPD images, labeled with
    the RUL label of the window's final snapshot. Output is ordered by
    window start.
    """
    labels = assign_labels(record.n_snapshots, fpt)
    if denoise:
        record = preprocess_record(record)
    windows = [w for w in sliding_windows(record.n_snapshots, size, stride)
               if w.last >= fpt]
    if not windows:
        raise NoPostFptWindows(f"no windows end at or after fpt {fpt}")

    def image(data, w):
        return WpdImage(wpd_image(data[w.start:w.start + w.size].reshape(-1), level), w)

    hor, ver = record.signals
    return [LabeledSample(image(hor, w), image(ver, w),
                          label=float(labels[w.last]))
            for w in windows]
