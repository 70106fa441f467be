"""The benchmark's workloads: inputs from a seed, CLI operations, output checks.

Every operation is a real CLI command run in-process through
`bearingrul.cli.main`. An operation fails when it exits non-zero, writes
anything to stderr, raises, produces output that fails its check, or
produces an artifact whose sha256 differs from the one the same operation
produced earlier in the run. A traced operation also fails when the tracer
could not attribute a layer. Failures are counted, never raised.

Set-up (repeated to time it) writes the workload's synthetic CSV folder
and builds the dataset or checkpoint its named stage reads.

Times are in reference seconds (see calibration.py): each wall is scaled by
the host speed measured right before and right after it, with the kernels
that do the command's kind of work.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import struct
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bearingrul import cli
from calibration import REFERENCE_S, calibration

DATASET_HEADER = "<4sIIII"
# ingest only parses CSV text; featurize also parses the CSVs (and synth
# writes them) before numpy signal work; train and eval are numpy only.
CALIBRATED_BY = {"ingest": ("parse",), "featurize": ("parse", "compute"),
                 "synth": ("parse", "compute"), "train": ("compute",),
                 "eval": ("compute",)}
REST_EPOCHS = 1  # training epochs outside train-desk's named stage


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark; tests pass smaller ones."""

    # PRONOSTIA-shaped record: 2560 samples per snapshot, onset mid-record.
    signal_snapshots: int = 200
    signal_samples: int = 2560
    signal_onset: int = 100
    # Desk record: short snapshots, early onset, about 64 post-onset windows.
    desk_snapshots: int = 380
    desk_samples: int = 256
    desk_onset: int = 60
    train_epochs: int = 2
    batch_size: int = 8


class Runner:
    """Runs CLI operations, checks them, and counts attempts and failures."""

    def __init__(self):
        self.tracer = None
        self.calibrations = []
        self.op_seconds = 0.0  # sum of the times of every operation run
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}

    def cli(self, command, args, outdir: Path, check=None):
        """Run one command into a fresh outdir; return its time, or None.

        The time is the command's wall in reference seconds, calibrated
        right before and right after the command.
        """
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [command, "--outdir", str(outdir), *map(str, args)]
        err = io.StringIO()
        self.attempted += 1
        span = (self.tracer.span(f"cli.{command}") if self.tracer
                else contextlib.nullcontext())

        before = calibration()
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash of the program is a failed operation
            rc = traceback.format_exc(limit=2).strip().splitlines()[-1]
        wall = time.perf_counter() - t0
        after = calibration()
        self.calibrations += [before, after]
        kernels = CALIBRATED_BY[command]
        wall *= (2 * sum(REFERENCE_S[k] for k in kernels)
                 / sum(before[k] + after[k] for k in kernels))
        self.op_seconds += wall
        stderr = err.getvalue().strip()
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {stderr[:200]}"
        elif stderr:
            problem = "stderr: " + stderr.splitlines()[0]
        elif check is not None:
            try:
                problem = check(outdir)
            except (OSError, ValueError, KeyError, struct.error) as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if self.tracer and self.tracer.problems:  # the harness lost a layer
            problem = problem or "tracer: " + self.tracer.problems[0]
            self.tracer.problems.clear()
        if problem:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{command} {outdir.name}: {problem}")
            return None
        return wall

    def digest(self, key: str, path: Path):
        """None when path hashes as before (or first time), else a problem."""
        value = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.digests.setdefault(key, value)
        return None if first == value else f"{key} digest changed"


# ---------------------------------------------------------------------------
# Output checks (independent of the program's own readers)
# ---------------------------------------------------------------------------

def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def expected_windows(n_snapshots: int, fpt: int, size: int, stride: int) -> int:
    """Windows at starts 0, stride, ... whose last snapshot is >= fpt."""
    return sum(1 for s in range(0, n_snapshots - size + 1, stride)
               if s + size - 1 >= fpt)


def read_dataset(path: Path):
    """(labels, pixels) of a WPDS container; raises ValueError when malformed."""
    blob = path.read_bytes()
    magic, version, count, h, w = struct.unpack_from(DATASET_HEADER, blob)
    head = struct.calcsize(DATASET_HEADER)
    per = 2 * h * w + 1
    if magic != b"WPDS" or len(blob) != head + count * per * 4:
        raise ValueError("malformed dataset container")
    rows = np.frombuffer(blob, dtype="<f4", offset=head).reshape(count, per)
    return rows[:, -1], rows[:, :-1]


def check_ingest(n_snapshots, n_samples):
    def check(outdir):
        s = json.loads((outdir / "record_summary.json").read_text())
        if (s["n_snapshots"], s["samples_per_snapshot"]) != (n_snapshots, n_samples):
            return "record shape differs from the generated one"
        if not _finite(v for k, v in s.items() if k.endswith(("_first", "_last"))):
            return "non-finite record summary"
        return None
    return check


def check_featurize(runner, key, n_snapshots):
    def check(outdir):
        path = outdir / "dataset.bin"
        labels, pixels = read_dataset(path)
        meta = json.loads((outdir / "dataset.bin.json").read_text())
        want = expected_windows(n_snapshots, meta["fpt"], meta["config"]["window"],
                                meta["config"]["stride"])
        if labels.size != want:
            return f"{labels.size} samples, expected {want} post-FPT windows"
        if not (np.isfinite(pixels).all() and np.isfinite(labels).all()
                and labels.min() >= 0.0 and labels.max() <= 1.0):
            return "non-finite pixels or labels outside [0, 1]"
        return runner.digest(key, path)
    return check


def check_train(runner, key, epochs):
    def check(outdir):
        lines = (outdir / "history.csv").read_text().splitlines()[1:]
        losses = [float(line.split(",")[1]) for line in lines]
        if len(losses) != epochs or not _finite(losses):
            return f"history has {len(losses)} epochs or non-finite losses"
        return runner.digest(key, outdir / "checkpoint.ckpt")
    return check


def check_eval(runner, key, dataset: Path):
    def check(outdir):
        path = outdir / "metrics.json"
        metrics = json.loads(path.read_text())
        if not _finite(metrics.values()):
            return "non-finite metrics"
        n = read_dataset(dataset)[0].size
        if metrics["n"] != n:
            return f"metrics n={metrics['n']}, dataset has {n}"
        return runner.digest(key, path)
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up and one timed iteration of a named workload.

    Each iteration runs the workload's named stage (`_primary`) and then the
    rest of the README flow on the workload's own data, so every end-to-end
    metric gets one sample per iteration, spread over the measured window.
    With `tracer` set, only the named stage runs traced.
    """

    name = ""

    def __init__(self, runner: Runner, workdir: Path, seed: int, sizes: Sizes):
        self.runner, self.seed, self.sizes = runner, seed, sizes
        self.tracer = None
        self.primary_seconds = None
        self.setup_dir = workdir / "setup"
        self.op_dir = workdir / "op"
        self.desk_record = self.setup_dir / "desk" / "Bearing1_3"
        self.desk_dataset = self.setup_dir / "desk_feat" / "dataset.bin"
        self.desk_checkpoint = self.setup_dir / "desk_model" / "checkpoint.ckpt"

    def setup(self) -> float:
        """Build the workload's inputs from scratch.

        Returns the summed time of the set-up's CLI operations.
        """
        shutil.rmtree(self.setup_dir, ignore_errors=True)
        start = self.runner.op_seconds
        self._build_inputs()
        return self.runner.op_seconds - start

    def iteration(self) -> dict:
        """One pass; returns {end-to-end metric: value} for the ops that passed."""
        out = {}
        tracer = self.tracer
        if tracer:
            tracer.install()
            tracer.reset()
            self.runner.tracer = tracer
        start = self.runner.op_seconds
        try:
            self._primary(out)
        finally:
            self.primary_seconds = self.runner.op_seconds - start
            if tracer:
                self.runner.tracer = None
                tracer.uninstall()
        self._rest(out)
        return out

    # -- stages ------------------------------------------------------------

    def _synth(self, record: Path, snapshots, samples, onset):
        self.runner.cli("synth", [
            "--snapshots", snapshots, "--samples", samples, "--onset", onset,
            "--seed", self.seed, "--bearing-id", record.name], record.parent)

    def _build_desk_dataset(self):
        z = self.sizes
        self._synth(self.desk_record, z.desk_snapshots, z.desk_samples, z.desk_onset)
        self._featurize({}, self.desk_record, z.desk_snapshots,
                        self.desk_dataset.parent)

    def _ingest(self, out, record: Path, snapshots, samples, outdir: Path):
        wall = self.runner.cli("ingest", ["--input", record], outdir,
                               check_ingest(snapshots, samples))
        if wall is not None:
            out["ingest_rows_per_s"] = snapshots * samples / wall

    def _featurize(self, out, record: Path, snapshots, outdir: Path):
        wall = self.runner.cli(
            "featurize", ["--input", record], outdir,
            check_featurize(self.runner, f"featurize {outdir.name}", snapshots))
        if wall is not None:
            out["featurize_s"] = wall

    def _train(self, out, dataset: Path, epochs, outdir: Path):
        wall = self.runner.cli(
            "train", ["--dataset", dataset, "--preset", "desk",
                      "--batch-size", self.sizes.batch_size, "--lr", "1e-3",
                      "--epochs", epochs, "--seed", self.seed],
            outdir, check_train(self.runner, f"train {outdir.name}", epochs))
        if wall is not None:
            out["train_samples_per_s"] = read_dataset(dataset)[0].size * epochs / wall

    def _eval(self, out, dataset: Path, checkpoint: Path, outdir: Path):
        wall = self.runner.cli(
            "eval", ["--dataset", dataset, "--checkpoint", checkpoint], outdir,
            check_eval(self.runner, f"eval {outdir.name}", dataset))
        if wall is not None:
            out["eval_samples_per_s"] = read_dataset(dataset)[0].size / wall

    def _desk_ingest_featurize(self, out):
        z = self.sizes
        self._ingest(out, self.desk_record, z.desk_snapshots, z.desk_samples,
                     self.op_dir / "ingest")
        self._featurize(out, self.desk_record, z.desk_snapshots,
                        self.op_dir / "featurize")


class SignalPronostia(Workload):
    """Named stage: CLI ingest + featurize of a PRONOSTIA-shaped record.

    The rest: train 1 epoch and eval on the dataset just featurized.
    """

    name = "signal-pronostia"

    @property
    def record(self):
        return self.setup_dir / "signal" / "Bearing1_1"

    def _build_inputs(self):
        z = self.sizes
        self._synth(self.record, z.signal_snapshots, z.signal_samples, z.signal_onset)

    def _primary(self, out):
        z = self.sizes
        self._ingest(out, self.record, z.signal_snapshots, z.signal_samples,
                     self.op_dir / "ingest")
        self._featurize(out, self.record, z.signal_snapshots,
                        self.op_dir / "featurize")

    def _rest(self, out):
        dataset = self.op_dir / "featurize" / "dataset.bin"
        self._train(out, dataset, REST_EPOCHS, self.op_dir / "train")
        self._eval(out, dataset, self.op_dir / "train" / "checkpoint.ckpt",
                   self.op_dir / "eval")


class TrainDesk(Workload):
    """Named stage: CLI train of the desk preset on the set-up dataset.

    The rest: ingest + featurize of the desk record, eval of the new checkpoint.
    """

    name = "train-desk"

    def _build_inputs(self):
        self._build_desk_dataset()

    def _primary(self, out):
        self._train(out, self.desk_dataset, self.sizes.train_epochs,
                    self.op_dir / "train")

    def _rest(self, out):
        self._desk_ingest_featurize(out)
        self._eval(out, self.desk_dataset, self.op_dir / "train" / "checkpoint.ckpt",
                   self.op_dir / "eval")


class EvalDesk(Workload):
    """Named stage: CLI eval of the set-up checkpoint (predict_batch at batch 64).

    The rest: ingest + featurize of the desk record, a 1-epoch train.
    """

    name = "eval-desk"

    def _build_inputs(self):
        self._build_desk_dataset()
        self._train({}, self.desk_dataset, REST_EPOCHS,
                    self.desk_checkpoint.parent)

    def _primary(self, out):
        self._eval(out, self.desk_dataset, self.desk_checkpoint, self.op_dir / "eval")

    def _rest(self, out):
        self._desk_ingest_featurize(out)
        self._train(out, self.desk_dataset, REST_EPOCHS,
                    self.op_dir / "train")


WORKLOADS = {w.name: w for w in (SignalPronostia, TrainDesk, EvalDesk)}
