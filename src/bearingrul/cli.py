"""Command-line pipeline drivers.

Every command resolves its options to a flat config dict (built-in
defaults < JSON config file < explicit flags), runs, and writes its
artifacts plus a manifest.json into --outdir. The manifest records the
command, tool version, resolved config, input paths and wall-clock time;
`rerun <manifest> --outdir NEW` re-executes the recorded run and, because
every pipeline stage is seeded and deterministic, reproduces the
artifacts byte for byte. A run removes any old manifest.json, writes into
a `.stage-*` directory inside --outdir and, only on success, moves the
staged artifacts into --outdir, manifest.json last. A killed process may
leave a `.stage-*` directory, never a partial file under an artifact's
name; the next run into that --outdir removes it. On failure the process
exits 2 (usage), 3 (data error) or 4 (numeric error) with a single
machine-parseable line on stderr.
"""

import argparse
import ctypes
import functools
import json
import math
import os
import shutil
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__, dataio, features, model, plotting, training
from .errors import (BearingRulError, DataError, EmptyDataset, FloatOverflow,
                     InvalidConfig, NumericError)

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# glibc mallopt parameters and the values the CLI pins them to (see
# _keep_freed_heap_mapped); 32 MiB is glibc's largest mmap threshold.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 256 << 20


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command bodies (config dict in, artifacts into the staging directory)
# ---------------------------------------------------------------------------

def cmd_synth(cfg, out: Path):
    name = cfg["bearing_id"]
    if (name in ("", ".", "..", "manifest.json", "record_summary.json")
            or Path(name).name != name):
        raise InvalidConfig(f"--bearing-id {name!r} must be a plain folder name "
                            "other than the files synth writes")
    scfg = dataio.SyntheticConfig(
        n_snapshots=cfg["snapshots"], samples_per_snapshot=cfg["samples"],
        healthy_kurtosis_level=cfg["kurtosis"], fault_onset_index=cfg["onset"],
        fault_growth_rate=cfg["growth"], noise_std=cfg["noise_std"],
        seed=cfg["seed"], impulses_per_snapshot=cfg["impulses"],
        tone_level=cfg["tone_level"], tone_freq_low=cfg["tone_low"],
        tone_freq_high=cfg["tone_high"], bearing_id=name)
    record = dataio.gen_synthetic(scfg)
    dataio.save_record_csvdir(record, out / name)
    dataio.write_json(out / "record_summary.json", _record_summary(record))
    return []


def _record_summary(record) -> dict:
    return {
        "bearing_id": record.bearing_id,
        "condition_id": record.condition_id,
        "n_snapshots": record.n_snapshots,
        "samples_per_snapshot": record.samples_per_snapshot,
        "sample_rate_hz": dataio.PRONOSTIA_SAMPLE_RATE,
        "snapshot_period_s": dataio.PRONOSTIA_PERIOD_S,
        **{f"{name}_rms_{end}": _rms(record.channel(name)[i])
           for name in features.CHANNELS for end, i in (("first", 0), ("last", -1))},
    }


def _rms(snapshot) -> float:
    with np.errstate(over="ignore"):
        rms = float(np.sqrt((snapshot ** 2).mean()))
    if rms == math.inf:
        raise FloatOverflow("snapshot RMS exceeds the float64 range")
    return rms


def _load_record(cfg):
    """The --input record, read from its --hor-col and --ver-col columns."""
    return dataio.load_pronostia_bearing(cfg["input"], hor_col=cfg["hor_col"],
                                         ver_col=cfg["ver_col"])


def cmd_ingest(cfg, out: Path):
    record = _load_record(cfg)
    dataio.write_json(out / "record_summary.json", _record_summary(record))
    return [cfg["input"]]


def cmd_fpt(cfg, out: Path):
    record = _load_record(cfg)
    if cfg["denoise"]:
        record = features.preprocess_record(record)
    fcfg = features.FptConfig(baseline_count=cfg["baseline"],
                              sigma_multiplier=cfg["sigma"],
                              consecutive_required=cfg["consecutive"],
                              channel_policy=cfg["channel"])
    fpt, channel, series = features.detect_fpt_record(record, fcfg)
    baseline, mu, sigma, lo, hi = features.healthy_band(series, fcfg)
    _write_text(out / "kurtosis.csv",
                _csv(enumerate(series.tolist()), ("snapshot", "kurtosis")))
    dataio.write_json(out / "fpt.json", {
        "fpt": fpt, "channel": channel, "baseline_count": baseline,
        "mu": mu, "sigma": sigma, "band": [lo, hi],
        "consecutive_required": cfg["consecutive"],
    })
    idx = list(range(series.size))
    _write_text(out / "kurtosis.svg", plotting.line_chart_svg(
        [("kurtosis", idx, series.tolist()),
         ("band hi", idx, [hi] * series.size),
         ("band lo", idx, [lo] * series.size)],
        title="Snapshot kurtosis and healthy band",
        xlabel="snapshot", ylabel="kurtosis"))
    return [cfg["input"]]


def cmd_featurize(cfg, out: Path):
    # Built for every --fpt, so a bad --baseline exits 2 even when unused.
    fcfg = features.FptConfig(baseline_count=cfg["baseline"])
    record = _load_record(cfg)
    if cfg["fpt"] == "auto":
        fpt, _, _ = features.detect_fpt_record(record, fcfg)
        if fpt is None:
            raise DataError("no degradation onset detected; cannot label")
    else:
        try:
            fpt = int(cfg["fpt"])
        except ValueError:
            raise InvalidConfig(
                f"--fpt {cfg['fpt']!r} is neither an integer nor 'auto'") from None
    samples = features.build_dataset(record, fpt, size=cfg["window"],
                                     stride=cfg["stride"], level=cfg["level"],
                                     denoise=cfg["denoise"])
    meta = {"window": cfg["window"], "stride": cfg["stride"],
            "level": cfg["level"], "denoise": cfg["denoise"]}
    dataio.save_dataset(features.sample_records(samples), out / "dataset.bin",
                        bearing_id=record.bearing_id, fpt=fpt, config=meta)
    return [cfg["input"]]


def _split_dataset(samples, holdout: float, seed: int):
    """Deterministic interleaved split covering the whole label range.

    Every round(1/holdout)-th sample is held out; holdout lies in [0, 0.5].
    """
    if holdout == 0:
        return samples, samples[:0]
    period = round(1.0 / holdout)
    held = np.arange(len(samples)) % period == seed % period
    return samples[~held], samples[held]


def _training_setup(cfg, split: str):
    """Load the dataset, hold out the cfg[split] share, build the configs."""
    if not 0.0 <= cfg[split] <= 0.5:
        raise InvalidConfig(
            f"--{split.replace('_', '-')} {cfg[split]} outside [0, 0.5]")
    samples = dataio.load_dataset(cfg["dataset"])
    train_set, val_set = _split_dataset(samples, cfg[split], cfg["seed"])
    mcfg = model.config_from_preset(cfg["preset"])
    tcfg = training.TrainConfig(learning_rate=cfg["lr"],
                                batch_size=cfg["batch_size"],
                                epochs=cfg["epochs"], seed=cfg["seed"])
    return train_set, val_set, mcfg, tcfg


def cmd_train(cfg, out: Path):
    train_set, val_set, mcfg, tcfg = _training_setup(cfg, "val_fraction")
    lcfg = training.LossConfig(kind=cfg["loss"], lam=cfg["lam"])
    params, history = training.train(train_set, mcfg, tcfg, lcfg,
                                     val_dataset=val_set)
    dataio.save_checkpoint(params, out / "checkpoint.ckpt")
    _write_text(out / "history.csv", _csv(
        [(h.epoch, h.train_loss, "" if h.val_mae is None else repr(h.val_mae))
         for h in history],
        ("epoch", "loss", "val_mae")))
    if history:
        epochs = [h.epoch for h in history]
        series = [("train loss", epochs, [h.train_loss for h in history])]
        if history[0].val_mae is not None:
            series.append(("val MAE", epochs, [h.val_mae for h in history]))
        _write_text(out / "history.svg", plotting.line_chart_svg(
            series, title="Training history", xlabel="epoch", ylabel="loss"))
    return [cfg["dataset"]]


def _evaluate(cfg):
    samples = dataio.load_dataset(cfg["dataset"])
    if not len(samples):
        raise EmptyDataset(f"{cfg['dataset']}: no samples to predict")
    params = dataio.load_checkpoint(cfg["checkpoint"])
    preds = model.predict_batch(params, samples)
    return preds, samples["label"]


def cmd_eval(cfg, out: Path):
    dataio.write_json(out / "metrics.json", training.metrics_report(*_evaluate(cfg)))
    return [cfg["dataset"], cfg["checkpoint"]]


def cmd_predict(cfg, out: Path):
    preds, targets = _evaluate(cfg)
    rows = [(i, float(t), float(p), float(p - t))
            for i, (p, t) in enumerate(zip(preds, targets))]
    _write_text(out / "predictions.csv",
                _csv(rows, ("window_index", "true_rul", "pred_rul", "error")))
    idx = [r[0] for r in rows]
    _write_text(out / "rul_curve.svg", plotting.line_chart_svg(
        [("true RUL", idx, [r[1] for r in rows]),
         ("predicted RUL", idx, [r[2] for r in rows])],
        title="Predicted vs true RUL", xlabel="window", ylabel="normalized RUL"))
    return [cfg["dataset"], cfg["checkpoint"]]


def cmd_exp_loss(cfg, out: Path):
    """Twin training: identical data and seed, MSE vs hinge-penalized loss."""
    if cfg["holdout"] == 0:
        raise InvalidConfig(
            f"--holdout {cfg['holdout']} must be nonzero for exp-loss")
    train_set, val_set, mcfg, tcfg = _training_setup(cfg, "holdout")
    if not len(val_set):
        raise DataError(f"--holdout {cfg['holdout']} held out no samples")
    targets = val_set["label"]
    report = {}
    for kind in ("mse", "custom"):
        lcfg = training.LossConfig(kind=kind, lam=cfg["lam"])
        params, history = training.train(train_set, mcfg, tcfg, lcfg)
        preds = model.predict_batch(params, val_set)
        del params  # free this twin's weights and gradients before the next
        report[kind] = training.metrics_report(preds, targets)
        _write_text(out / f"history_{kind}.csv", _csv(
            [(h.epoch, h.train_loss) for h in history], ("epoch", "loss")))
    report["delta"] = {k: report["custom"][k] - report["mse"][k]
                       for k in ("mae", "score_mean", "late_fraction")}
    report["lambda"] = cfg["lam"]
    dataio.write_json(out / "exp_loss.json", report)
    return [cfg["dataset"]]


# ---------------------------------------------------------------------------
# Command declarations: each flag is one row, read by the parser, the
# config resolver and the required-input check alike
# ---------------------------------------------------------------------------

Flag = namedtuple("Flag", "name kind default help required", defaults=(False,))
Command = namedtuple("Command", "body help flags epilog", defaults=(None,))


def _needs(name: str, help_text: str) -> Flag:
    """A required path flag: no default, so it resolves to None until given."""
    return Flag(name, str, None, help_text, required=True)


def _key(flag: Flag) -> str:
    return flag.name.replace("-", "_")


_DATASET = _needs("dataset", "dataset container path")
_CHECKPOINT = _needs("checkpoint", "checkpoint path")
_HOR_COL = Flag("hor-col", int, 4, "horizontal acceleration column index")
_VER_COL = Flag("ver-col", int, 5, "vertical acceleration column index")
_PRESET = Flag("preset", str, "desk", "model preset: desk or paper")
_LAM = Flag("lam", float, 1.0, "late-prediction penalty weight (lambda)")
_SPLIT = "in [0, 0.5]; the held-out share is 1/round(1/f)"

COMMANDS = {
    "synth": Command(cmd_synth, "generate a synthetic run-to-failure record", (
        Flag("snapshots", int, 100, "number of snapshots"),
        Flag("samples", int, 2560, "samples per snapshot"),
        Flag("onset", int, 50, "fault onset snapshot index"),
        Flag("growth", float, 2.0, "impulse growth rate, noise sigmas per snapshot"),
        Flag("noise-std", float, 1.0, "background noise standard deviation"),
        Flag("kurtosis", float, 3.0, "healthy-stage kurtosis level"),
        Flag("impulses", int, 20, "impulses per snapshot"),
        Flag("tone-level", float, 2.0, "defect tone level relative to impulse height"),
        Flag("tone-low", float, 0.06, "low defect tone frequency / sample rate"),
        Flag("tone-high", float, 0.17, "high defect tone frequency / sample rate"),
        Flag("seed", int, 0, "generator seed"),
        Flag("bearing-id", str, "Bearing9_1", "record name (also the CSV folder name)"),
    )),
    "ingest": Command(cmd_ingest, "load a PRONOSTIA-style bearing folder and "
                      "summarize it", (
        _needs("input", "bearing directory of acc_*.csv files"),
        _HOR_COL, _VER_COL,
    )),
    "fpt": Command(cmd_fpt, "kurtosis series and degradation-onset report", (
        _needs("input", "bearing directory"), _HOR_COL, _VER_COL,
        Flag("channel", str, "horizontal", "horizontal, vertical or either"),
        Flag("baseline", int, None, "healthy baseline snapshot count"),
        Flag("sigma", float, 3.0, "band width in baseline sigmas"),
        Flag("consecutive", int, 3, "consecutive exceedances required"),
        Flag("denoise", bool, False, "denoise snapshots before kurtosis"),
    )),
    "featurize": Command(cmd_featurize, "build a labeled dataset from a bearing "
                         "record", (
        _needs("input", "bearing directory"), _HOR_COL, _VER_COL,
        Flag("fpt", str, "auto", "onset index or 'auto'"),
        Flag("window", int, 10, "snapshots per window"),
        Flag("stride", int, 5, "window stride in snapshots"),
        Flag("level", int, 3, "wavelet packet decomposition level"),
        Flag("denoise", bool, True, "apply the denoising pipeline"),
        Flag("baseline", int, None, "baseline count for auto onset detection"),
    )),
    "train": Command(cmd_train, "train a model on a labeled dataset", (
        _DATASET, _PRESET,
        Flag("loss", str, "custom", "loss kind: custom or mse"),
        _LAM,
        Flag("lr", float, 1e-4, "Adam learning rate"),
        Flag("batch-size", int, 16, "samples per optimizer step"),
        Flag("epochs", int, 100, "training epochs"),
        Flag("seed", int, 0, "training seed"),
        Flag("val-fraction", float, 0.0,
             f"held-out fraction f for per-epoch MAE, {_SPLIT}"),
    ), epilog="the regression head uses dropout p=0.3 in both presets"),
    "eval": Command(cmd_eval, "evaluate a checkpoint on a dataset",
                    (_DATASET, _CHECKPOINT)),
    "predict": Command(cmd_predict, "per-window RUL predictions and curve plot",
                       (_DATASET, _CHECKPOINT)),
    "exp-loss": Command(cmd_exp_loss, "twin training, MSE vs custom loss, on one "
                        "seed", (
        _DATASET, _PRESET, _LAM,
        Flag("lr", float, 1e-3, "Adam learning rate"),
        Flag("batch-size", int, 8, "samples per optimizer step"),
        Flag("epochs", int, 30, "training epochs per twin"),
        Flag("seed", int, 0, "shared data/training seed"),
        Flag("holdout", float, 0.25,
             f"held-out fraction f for the comparison, {_SPLIT}"),
    )),
}


class _Parser(argparse.ArgumentParser):
    """Reports its own usage errors, like every other failure, as one
    stderr line with exit status 2. Subparsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"UsageError: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it as is."""
    parser = _Parser(
        prog="bearingrul",
        description="Bearing RUL pipeline: synthesize or ingest vibration "
                    "records, detect degradation onset, featurize, train and "
                    "evaluate.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help, epilog=spec.epilog)
        p.add_argument("--outdir", required=True, help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON file of flag defaults (flags override)")
        for flag in spec.flags:
            help_s = f"{flag.help} (default {flag.default})"
            if flag.kind is bool:
                p.add_argument(f"--{flag.name}", action="store_const", const=True,
                               default=None, help=help_s)
                p.add_argument(f"--no-{flag.name}", dest=_key(flag),
                               action="store_const", const=False, default=None,
                               help=argparse.SUPPRESS)
            else:
                p.add_argument(f"--{flag.name}", type=flag.kind, default=None,
                               help=help_s)

    rerun = sub.add_parser("rerun", help="re-execute a run from its manifest")
    rerun.add_argument("manifest", help="path to a manifest.json")
    rerun.add_argument("--outdir", required=True, help="output directory")
    return parser


_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str}


def _checked_config(command, values, source: str) -> dict:
    """The command's defaults overlaid with a config file's or manifest's values.

    Checks what argparse would: a known command, known keys, and each value
    of its flag's JSON type; an int passes for a float, null for a None default.
    A float must also be finite (InvalidConfig).
    """
    if not isinstance(command, str) or command not in COMMANDS:
        raise DataError(f"{source}: unknown command {command!r}")
    if not isinstance(values, dict):
        raise DataError(f"{source}: config must be a JSON object")
    flags = {_key(f): f for f in COMMANDS[command].flags}
    for key, value in values.items():
        flag = flags.get(key)
        if flag is None:
            raise DataError(f"{source}: unknown option {key!r}")
        if not (value is None and flag.default is None
                or isinstance(value, _JSON_TYPES[flag.kind])
                and isinstance(value, bool) == (flag.kind is bool)):
            raise DataError(f"{source}: option {key!r} must be a JSON "
                            f"{flag.kind.__name__}, not {value!r}")
        _check_finite(flag, value, source)
    return {key: values.get(key, flag.default) for key, flag in flags.items()}


def _check_finite(flag: Flag, value, source: str) -> None:
    """A float option must be finite: nan fails every range check silently,
    and manifest.json could not record it as JSON."""
    if flag.kind is float and value is not None and not math.isfinite(value):
        raise InvalidConfig(f"{source}: --{flag.name} must be finite, not {value}")


def _resolve_config(command: str, args: argparse.Namespace) -> dict:
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    cfg = _checked_config(command, file_cfg, "config file")
    for flag in COMMANDS[command].flags:
        value = getattr(args, _key(flag), None)
        if value is not None:
            _check_finite(flag, value, "command line")
            cfg[_key(flag)] = value
    return cfg


def execute(command: str, cfg: dict, outdir) -> None:
    """Run `command` in a staging directory; commit its artifacts on success."""
    spec = COMMANDS[command]
    missing = [f"--{f.name}" for f in spec.flags
               if f.required and not cfg.get(_key(f))]
    if missing:
        raise CliUsageError(f"{command}: missing required option(s) "
                            + ", ".join(missing))
    outdir = Path(outdir)
    blocker = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not blocker.is_dir():
        raise CliUsageError(f"--outdir {outdir}: {blocker} is not a directory")
    (outdir / "manifest.json").unlink(missing_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.glob(".stage-*"):  # left by a killed run
        shutil.rmtree(stale, ignore_errors=True)
    started = time.time()
    with tempfile.TemporaryDirectory(prefix=".stage-", dir=outdir) as tmp:
        stage = Path(tmp)
        inputs = spec.body(cfg, stage)
        artifacts = sorted(p.name for p in stage.iterdir())
        dataio.write_json(stage / "manifest.json", {
            "command": command, "tool_version": __version__, "config": cfg,
            "inputs": [str(i) for i in inputs], "outdir": str(outdir),
            "artifacts": artifacts,
            "timings": {"wall_s": round(time.time() - started, 3)}})
        for name in artifacts + ["manifest.json"]:
            target = outdir / name
            if (stage / name).is_dir() and target.is_dir():
                shutil.rmtree(target)
            os.replace(stage / name, target)


class CliUsageError(Exception):
    pass


def _keep_freed_heap_mapped() -> bool:
    """Pin glibc's heap thresholds so freed numpy temporaries stay mapped.

    Forward and backward passes free and reallocate megabytes of arrays
    per batch. By default glibc mmaps blocks above a threshold that grows
    with the sizes freed so far, and unmaps the heap top once its free
    space passes twice that threshold. Whether a batch reuses the previous
    batch's pages or faults thousands of them back in then depends on what
    the process allocated earlier, and a process can switch between the two
    halfway through. With fixed thresholds every block up to
    HEAP_MMAP_THRESHOLD comes from the heap and the heap is not trimmed
    below HEAP_TRIM_THRESHOLD of free space, so each batch after the first
    reuses mapped pages. One arena (M_ARENA_MAX 1) extends that to threads:
    model.predict_batch's worker thread takes its temporaries from the same
    kept heap instead of faulting in an arena of its own, which raised the
    eval-desk benchmark's peak RSS from 66.7 to 86.1 MB (BENCH_16.json).
    Returns False where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
                and mallopt(M_ARENA_MAX, 1))


def main(argv=None) -> int:
    _keep_freed_heap_mapped()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
            if not isinstance(manifest, dict):
                raise DataError("manifest: not a JSON object")
            command = manifest.get("command")
            execute(command, _checked_config(command, manifest.get("config"),
                                             "manifest"), args.outdir)
        else:
            execute(args.command, _resolve_config(args.command, args), args.outdir)
    except CliUsageError as exc:
        print(f"UsageError: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BearingRulError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
