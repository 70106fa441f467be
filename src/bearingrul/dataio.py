"""Data ingestion, synthetic run-to-failure generation, and persistence.

Container formats (all little-endian, magic + integer version up front):

Dataset (.bin):
    bytes 0..3    magic b"WPDS"
    u32           version (currently 1)
    u32           sample count
    u32 x 2       image height, width
    per sample    hor pixels f32[h*w], ver pixels f32[h*w], label f32,
                  packed as one features.SAMPLE_DTYPE record (h = w = 64)
The container alone is the dataset: load_dataset returns its records as a
read-only view and reads nothing else. Beside it, save_dataset writes a JSON
sidecar at <path>.json holding exactly bearing_id, fpt and the featurization
config, for people and tools; no command reads it back.

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

import io
import json
import math
import os
import pickle
import re
import signal
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptContainer,
    InconsistentSnapshotLength,
    InvalidConfig,
    InvalidSample,
    MalformedRow,
    MissingDirectory,
    VersionMismatch,
)
from .features import IMAGE_SIDE, SAMPLE_DTYPE, BearingRecord, check_samples
from .model import (ModelConfig, ModelParams, _usable_cpus, expected_param_count,
                    param_layout, validate_params)

DATASET_MAGIC = b"WPDS"
DATASET_VERSION = 1
DATASET_HEADER = struct.Struct("<4sIIII")  # magic, version, count, height, width
CHECKPOINT_MAGIC = b"BRCK"
CHECKPOINT_VERSION = 1
CHECKPOINT_HEADER = struct.Struct("<4sIQ")  # magic, version, header length

PRONOSTIA_SAMPLE_RATE = 25600.0
PRONOSTIA_PERIOD_S = 10.0


# ---------------------------------------------------------------------------
# PRONOSTIA-style CSV trees
# ---------------------------------------------------------------------------

def _numeric_suffix(path: Path) -> int:
    m = re.search(r"(\d+)\D*$", path.stem)
    return int(m.group(1)) if m else -1


# CSV lines per process below which a forked worker costs more than it
# saves: on 2 CPUs a folder of 20 480 lines read faster in two processes
# than in one in 35 of 40 alternations, one of 10 240 lines in 8 of 40.
_LINES_PER_PROCESS = 10_240


def _process_count(lines: int) -> int:
    """Processes to read or write a CSV folder of `lines` lines with: one
    per _LINES_PER_PROCESS lines, at most one per usable CPU, and 1 where
    os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), lines // _LINES_PER_PROCESS))


def _in_slices(start: int, stop: int, count: int, work, results=None,
               undo=None) -> None:
    """Call work(first, stop) on `count` contiguous slices that cover
    [start, stop).

    This process takes the first slice and a forked worker each other one.
    results(first, stop), if given, names the C-contiguous arrays that work
    fills for its slice: a worker fills its own copy-on-write copy of them,
    sends their bytes once its whole slice is done, and they are read
    straight into the same arrays here. work must not call BLAS, whose
    threads do not survive a fork. The first failure in slice order is
    raised, as a serial loop would raise it: the workers after it are
    killed, every worker is reaped, and then undo(first, stop), if given,
    is called on the slices past the failing one, which a serial loop would
    not have reached. Where a fork fails, this process also takes the
    slices left over.
    """
    count = max(1, min(count, stop - start))
    bounds = [start + (stop - start) * k // count for k in range(count + 1)]
    workers = []  # (pid, read end of its pipe, first, stop), in slice order
    reached = bounds[1]  # the stop of the slice being worked on
    try:
        for first, last in zip(bounds[1:-1], bounds[2:]):
            try:
                workers.append(_fork_worker(first, last, work, results))
            except OSError:  # no process to spare
                break
        rest = bounds[1 + len(workers)]  # the slices no worker took
        work(bounds[0], bounds[1])
        while workers:
            pid, reader, first, reached = workers[0]
            _collect(pid, reader, results(first, reached) if results else ())
            reader.close()
            os.waitpid(pid, 0)
            workers.pop(0)
        reached = stop
        work(rest, stop)
    except BaseException:
        for pid, reader, *_ in workers:  # their results are not needed
            os.kill(pid, signal.SIGKILL)
            reader.close()
            os.waitpid(pid, 0)
        if undo is not None:
            undo(reached, stop)
        raise


def _fork_worker(first: int, stop: int, work, results):
    """Fork a worker that runs work(first, stop), then sends a status byte
    and the bytes of results(first, stop), or its pickled exception. It
    leaves through os._exit and writes nothing to stdout or stderr.
    Returns (pid, read end of its pipe, first, stop)."""
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        try:
            os.close(reader)
            with open(writer, "wb") as out:
                try:
                    work(first, stop)
                    message = [b"\0", *(results(first, stop) if results else ())]
                except BaseException as exc:  # raised again by _collect
                    message = [b"\1", pickle.dumps(exc)]
                for part in message:
                    out.write(part)
        finally:
            os._exit(0)
    os.close(writer)
    return pid, open(reader, "rb"), first, stop


def _collect(pid: int, reader, arrays) -> None:
    """Read a worker's arrays into `arrays`, or raise the exception it
    sent."""
    status = reader.read(1)
    if status == b"\1":
        raise pickle.loads(reader.read())
    if status != b"\0" or any(reader.readinto(a) != a.nbytes for a in arrays):
        raise ChildProcessError(f"worker {pid} ended without a result")


def load_pronostia_bearing(directory, hor_col: int = 4,
                           ver_col: int = 5) -> BearingRecord:
    """Load one bearing folder of per-snapshot acceleration CSVs.

    Files are ordered by their numeric suffix regardless of on-disk order.
    Default column layout follows the public distribution: four timestamp
    fields, then horizontal and vertical acceleration; pass hor_col/ver_col
    for variant exports. Temperature files are ignored. Files must be
    UTF-8; `,` and `;` delimiters are both read (see _parse_acc_csv). A
    large folder's files are split over forked workers (see _process_count
    and _in_slices), with the values and the first error of reading them
    in order.
    """
    root = Path(directory)
    if not root.is_dir():
        raise MissingDirectory(f"{root} is not a directory")
    files = sorted(root.glob("acc*.csv"), key=_numeric_suffix)
    if not files:
        raise MissingDirectory(f"no acceleration CSVs under {root}")
    # The first file sizes the record; each row is filled in place.
    hor, ver = _parse_acc_csv(files[0], hor_col, ver_col)
    horizontal = np.empty((len(files), hor.size))
    vertical = np.empty((len(files), hor.size))
    horizontal[0], vertical[0] = hor, ver

    def parse(first, stop):
        for i in range(first, stop):
            hor, ver = _parse_acc_csv(files[i], hor_col, ver_col)
            if hor.size != horizontal.shape[1]:
                raise InconsistentSnapshotLength(
                    f"{files[i].name} has {hor.size} rows, "
                    f"expected {horizontal.shape[1]}")
            horizontal[i] = hor
            vertical[i] = ver

    _in_slices(1, len(files), _process_count(horizontal.size), parse,
               lambda first, stop: (horizontal[first:stop], vertical[first:stop]))
    m = re.match(r"Bearing(\d+)_(\d+)", root.name)
    return BearingRecord(horizontal=horizontal, vertical=vertical,
                         bearing_id=root.name,
                         condition_id=int(m.group(1)) if m else 0)


# Bytes that send a file to the line parser: `;`, because that parser picks
# each line's delimiter by count, and the separators 0x1C-0x1F, which
# numpy's float reader strips as whitespace around a field but float()
# rejects.
_LINE_PARSER_ONLY = (b";", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_acc_csv(path: Path, hor_col: int, ver_col: int):
    """One snapshot file's horizontal and vertical columns.

    The file is read once. Comma files go through numpy's C reader; a `;`
    anywhere, or a file that reader rejects, warns about or finds empty,
    goes through the line parser, which gives the same values and owns
    the MalformedRow diagnostics.
    """
    raw = path.read_bytes()
    try:
        if not raw.isascii():  # ASCII is UTF-8 as it stands
            raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise MalformedRow(f"{path}:{line}: not UTF-8: {exc.reason}",
                           path=str(path), line=line) from None
    if not any(c in raw for c in _LINE_PARSER_ONLY):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                # numpy decodes the bytes line by line; a text copy would
                # hold 4 bytes per character in its buffer.
                cols = np.loadtxt(io.BytesIO(raw), delimiter=",",
                                  usecols=(hor_col, ver_col), comments=None,
                                  ndmin=2, encoding="utf-8")
            except (ValueError, OverflowError, Warning):
                cols = ()
        if len(cols):
            return cols[:, 0], cols[:, 1]
    return _parse_acc_lines(path, io.StringIO(raw.decode("utf-8"), newline=None),
                            hor_col, ver_col)


def _parse_acc_lines(path: Path, lines, hor_col: int, ver_col: int):
    """The line parser: each line's delimiter is `;` if it holds more `;`
    than `,`, blank lines are skipped, and the first bad line raises
    MalformedRow with its 1-based number (0 for a file without rows)."""
    hor, ver = [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        delim = ";" if line.count(";") > line.count(",") else ","
        parts = line.split(delim)
        try:
            hor.append(_number(parts[hor_col]))
            ver.append(_number(parts[ver_col]))
        except (ValueError, IndexError) as exc:
            raise MalformedRow(f"{path}:{lineno}: {exc}",
                               path=str(path), line=lineno) from exc
    if not hor:
        raise MalformedRow(f"{path}: no data rows", path=str(path), line=0)
    return np.array(hor), np.array(ver)


def _number(field: str) -> float:
    """float(field) for a field that is ASCII after strip() and holds no
    `_`; float() alone also reads `1_0` and non-ASCII digits like `１２`."""
    text = field.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


def _line_times(t0: float, offsets: np.ndarray):
    """The timestamp fields of the lines of one snapshot's CSV.

    Line j is at t = t0 + offsets[j], where t0 = i * PRONOSTIA_PERIOD_S for
    snapshot i and offsets = arange(m) / PRONOSTIA_SAMPLE_RATE. Returns
    the snapshot's runs of lines that share whole hours, minutes and
    seconds, as (first, stop, "h,m,s,"), and the m microseconds past the
    whole second.
    """
    t = t0 + offsets
    h, t = np.divmod(t, 3600.0)
    mins, s = np.divmod(t, 60.0)
    whole = np.floor(s)
    us = np.subtract(s, whole, out=s)
    us *= 1e6
    # A run starts at the first line and wherever a second, minute or hour
    # begins; a snapshot longer than a second holds several.
    new = np.ones(t.size, dtype=bool)
    new[1:] = ((h[1:] != h[:-1]) | (mins[1:] != mins[:-1])
               | (whole[1:] != whole[:-1]))
    starts = np.flatnonzero(new)
    runs = [(first, stop, f"{int(hh)},{int(mm)},{int(ss)},")
            for first, stop, hh, mm, ss in zip(
                starts.tolist(), starts[1:].tolist() + [t.size],
                h[starts].tolist(), mins[starts].tolist(),
                whole[starts].tolist())]
    return runs, us


class _Tenths(dict):
    """Microseconds -> their `.1f` text, each value formatted once.

    Keying on the float is safe only because s - floor(s) is never -0.0
    (x - x is +0.0 when rounding to nearest): -0.0 would find 0.0's entry
    but format as "-0.0".
    """

    def __missing__(self, us):
        text = self[us] = f"{us:.1f}"
        return text


def save_record_csvdir(record: BearingRecord, directory):
    """Write a record as a PRONOSTIA-style folder of acc_NNNNN.csv files.

    Each line is `h,m,s,us,hor,ver`: the sample's time (see _line_times)
    as whole hours, minutes and seconds and microseconds to one decimal,
    then full-precision repr floats, so ingesting the folder reproduces
    the record exactly. Files are built one snapshot at a time, so nothing
    the size of the record is allocated, and a large record's snapshots
    are split over forked workers (see _process_count and _in_slices).
    Returns the paths in snapshot order. If a file fails, the first
    failure in snapshot order is raised, and the files of the slices past
    the failing one are removed, so a new folder is left as a one-process
    loop leaves it; such files from before the call are removed too.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    offsets = np.arange(record.samples_per_snapshot) / PRONOSTIA_SAMPLE_RATE
    paths = [root / f"acc_{i + 1:05d}.csv" for i in range(record.n_snapshots)]

    def write(first, stop):
        tenths = _Tenths()
        for i in range(first, stop):
            runs, us = _line_times(i * PRONOSTIA_PERIOD_S, offsets)
            hor, ver = record.horizontal[i].tolist(), record.vertical[i].tolist()
            frac = [tenths[u] for u in us.tolist()]
            lines = []
            for a, b, prefix in runs:
                lines += [f"{prefix}{u},{x!r},{y!r}\n"
                          for u, x, y in zip(frac[a:b], hor[a:b], ver[a:b])]
            with open(paths[i], "w", encoding="utf-8", newline="\n") as fh:
                fh.write("".join(lines))

    def remove(first, stop):
        for path in paths[first:stop]:
            path.unlink(missing_ok=True)

    _in_slices(0, len(paths), _process_count(record.horizontal.size), write,
               undo=remove)
    return paths


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
    independent noise. Like ingested records, they are sampled at the
    PRONOSTIA rate and snapshot period.
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
                         bearing_id=cfg.bearing_id)


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------

def save_dataset(records, path, bearing_id: str = "", fpt=None, config: dict = None):
    """Check SAMPLE_DTYPE records, then write the container and its sidecar."""
    path = Path(path)
    check_samples(records)
    with open(path, "wb") as fh:
        fh.write(DATASET_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(records),
                                     IMAGE_SIDE, IMAGE_SIDE))
        fh.write(np.ascontiguousarray(records, dtype=SAMPLE_DTYPE))
    sidecar = {"bearing_id": bearing_id, "fpt": fpt, "config": config or {}}
    with open(str(path) + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_dataset(path) -> np.ndarray:
    """The container's checked SAMPLE_DTYPE records, a read-only view of its
    bytes; the sidecar is not read."""
    path = Path(path)
    blob = path.read_bytes()
    head = DATASET_HEADER.size
    if len(blob) < head:
        raise CorruptContainer(f"{path}: too small for a dataset header")
    magic, version, count, h, w = DATASET_HEADER.unpack_from(blob)
    if magic != DATASET_MAGIC:
        raise CorruptContainer(f"{path}: bad magic {magic!r}")
    if version != DATASET_VERSION:
        raise VersionMismatch(f"{path}: version {version}, expected {DATASET_VERSION}")
    size = head + count * 4 * (2 * h * w + 1)  # Python ints: huge h, w cannot wrap
    if len(blob) != size:
        raise CorruptContainer(f"{path}: expected {size} bytes, got {len(blob)}")
    if (h, w) != (IMAGE_SIDE, IMAGE_SIDE):
        raise InvalidSample(f"{path}: images are {h}x{w}, not {IMAGE_SIDE}x{IMAGE_SIDE}")
    return check_samples(np.frombuffer(blob, SAMPLE_DTYPE, count, head))


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
        fh.write(CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                        len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8"))
    return path


def load_checkpoint(path):
    """Returns (params, config); parameters are trainable tensors."""
    path = Path(path)
    blob = path.read_bytes()
    head = CHECKPOINT_HEADER.size
    if len(blob) < head:
        raise CorruptContainer(f"{path}: too small for a checkpoint header")
    magic, version, hlen = CHECKPOINT_HEADER.unpack_from(blob)
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
