import errno
import hashlib
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from bearingrul import cli, dataio, features as ft, model as md, plotting, training
from sample_arrays import random_records

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return cli.main(list(argv))


def run_module(*argv, cwd=None):
    """`python -m bearingrul.cli` in a child process, with src/ importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "bearingrul.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("records")
    code = run_cli("synth", "--outdir", str(root), "--snapshots", "120",
                   "--samples", "256", "--onset", "40", "--seed", "5",
                   "--bearing-id", "Bearing9_1")
    assert code == 0
    return root / "Bearing9_1"


@pytest.fixture(scope="module")
def dataset_path(record_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("feat")
    code = run_cli("featurize", "--input", str(record_dir), "--outdir",
                   str(out), "--stride", "2")
    assert code == 0
    return out / "dataset.bin"


@pytest.fixture(scope="module")
def checkpoint_path(dataset_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run_cli("train", "--dataset", str(dataset_path), "--outdir",
                   str(out), "--epochs", "2", "--lr", "1e-3", "--batch-size",
                   "8", "--seed", "0")
    assert code == 0
    return out / "checkpoint.ckpt"


# --- individual commands ---

def test_synth_writes_manifest_and_record(record_dir):
    manifest = json.loads((record_dir.parent / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["seed"] == 5
    assert sorted(record_dir.glob("acc_*.csv"))


def test_ingest_summary(record_dir, tmp_path):
    assert run_cli("ingest", "--input", str(record_dir), "--outdir",
                   str(tmp_path)) == 0
    summary = json.loads((tmp_path / "record_summary.json").read_text())
    assert summary["n_snapshots"] == 120
    assert summary["samples_per_snapshot"] == 256
    assert summary["horizontal_rms_last"] > summary["horizontal_rms_first"]


def test_synth_and_ingest_summaries_agree_on_the_condition(record_dir, tmp_path):
    """PRONOSTIA's BearingC_B folder runs under operating condition C."""
    assert run_cli("ingest", "--input", str(record_dir), "--outdir",
                   str(tmp_path)) == 0
    synth = json.loads((record_dir.parent / "record_summary.json").read_text())
    ingest = json.loads((tmp_path / "record_summary.json").read_text())
    assert synth == ingest
    assert synth["condition_id"] == 9


def test_fpt_report(record_dir, tmp_path):
    assert run_cli("fpt", "--input", str(record_dir), "--outdir",
                   str(tmp_path)) == 0
    report = json.loads((tmp_path / "fpt.json").read_text())
    assert report["fpt"] is not None and 40 <= report["fpt"] <= 55
    assert (tmp_path / "kurtosis.csv").exists()
    ET.fromstring((tmp_path / "kurtosis.svg").read_text())


def test_fpt_either_reports_the_channel_that_set_the_fpt(tmp_path):
    rng = np.random.default_rng(8)
    hor = rng.normal(size=(60, 512))
    ver = rng.normal(size=(60, 512))
    ver[30:, ::16] += 12.0   # fault only on the vertical channel
    dataio.save_record_csvdir(ft.BearingRecord(np.stack([hor, ver])), tmp_path / "rec")
    for channel in ("either", "vertical"):
        assert run_cli("fpt", "--input", str(tmp_path / "rec"), "--outdir",
                       str(tmp_path / channel), "--channel", channel) == 0
    report = json.loads((tmp_path / "either" / "fpt.json").read_text())
    assert report["channel"] == "vertical" and 28 <= report["fpt"] <= 33
    for artifact in ("fpt.json", "kurtosis.csv", "kurtosis.svg"):
        assert ((tmp_path / "either" / artifact).read_bytes()
                == (tmp_path / "vertical" / artifact).read_bytes())


def _two_column_copy(record_dir, dest):
    """The record with only its columns 4 and 5, as columns 0 and 1."""
    dest.mkdir(parents=True)
    for src in sorted(record_dir.glob("acc_*.csv")):
        rows = [line.split(",")[4:6] for line in src.read_text().splitlines()]
        (dest / src.name).write_text("".join(",".join(r) + "\n" for r in rows))
    return dest


SIGNAL_ARTIFACTS = {
    "ingest": ("record_summary.json",),
    "fpt": ("fpt.json", "kurtosis.csv", "kurtosis.svg"),
    "featurize": ("dataset.bin", "dataset.bin.json"),
}


def test_fpt_and_featurize_read_the_columns_ingest_reads(record_dir, tmp_path):
    narrow = _two_column_copy(record_dir, tmp_path / "narrow" / record_dir.name)
    for command, artifacts in SIGNAL_ARTIFACTS.items():
        wide, cols = tmp_path / f"{command}-wide", tmp_path / f"{command}-cols"
        assert run_cli(command, "--input", str(record_dir), "--outdir",
                       str(wide)) == 0
        assert run_cli(command, "--input", str(narrow), "--outdir", str(cols),
                       "--hor-col", "0", "--ver-col", "1") == 0
        for artifact in artifacts:
            assert (wide / artifact).read_bytes() == (cols / artifact).read_bytes()


def test_fpt_denoise_and_featurize_no_denoise_match_the_library(record_dir,
                                                                tmp_path):
    record = dataio.load_pronostia_bearing(record_dir)
    assert run_cli("fpt", "--input", str(record_dir), "--outdir",
                   str(tmp_path / "fpt"), "--denoise") == 0
    rows = (tmp_path / "fpt" / "kurtosis.csv").read_text().splitlines()[1:]
    want = ft.kurtosis_series(ft.preprocess_record(record))
    assert [float(row.split(",")[1]) for row in rows] == want.tolist()
    assert want.tolist() != ft.kurtosis_series(record).tolist()

    assert run_cli("featurize", "--input", str(record_dir), "--outdir",
                   str(tmp_path / "feat"), "--no-denoise") == 0
    fpt, _, _ = ft.detect_fpt_record(record)
    meta = {"window": 10, "stride": 5, "level": 3, "denoise": False}
    (tmp_path / "want").mkdir()
    dataio.save_dataset(
        ft.sample_records(ft.build_dataset(record, fpt, denoise=False)),
        tmp_path / "want" / "dataset.bin", bearing_id=record.bearing_id, fpt=fpt,
        config=meta)
    for name in ("dataset.bin", "dataset.bin.json"):
        assert ((tmp_path / "feat" / name).read_bytes()
                == (tmp_path / "want" / name).read_bytes())


def test_manifest_without_column_keys_reruns_byte_exactly(record_dir, tmp_path):
    """A manifest recorded before fpt and featurize had --hor-col/--ver-col
    reruns with the defaults, 4 and 5."""
    for command, artifacts in SIGNAL_ARTIFACTS.items():
        first, again = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
        assert run_cli(command, "--input", str(record_dir), "--outdir",
                       str(first)) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        del manifest["config"]["hor_col"], manifest["config"]["ver_col"]
        (first / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("rerun", str(first / "manifest.json"), "--outdir",
                       str(again)) == 0
        rerun_config = json.loads((again / "manifest.json").read_text())["config"]
        assert (rerun_config["hor_col"], rerun_config["ver_col"]) == (4, 5)
        for artifact in artifacts:
            assert (first / artifact).read_bytes() == (again / artifact).read_bytes()


def test_featurize_dataset_contents(dataset_path):
    samples = dataio.load_dataset(dataset_path)
    sidecar = json.loads(Path(str(dataset_path) + ".json").read_text())
    assert sidecar["bearing_id"] == "Bearing9_1"
    assert sidecar["config"]["stride"] == 2
    assert len(samples) > 20
    assert samples["label"].max() == 1.0 and samples["label"].min() == 0.0


def test_train_history_csv(checkpoint_path):
    history = (checkpoint_path.parent / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,loss,val_mae"
    assert len(history) == 3


def test_eval_metrics(dataset_path, checkpoint_path, tmp_path):
    assert run_cli("eval", "--dataset", str(dataset_path), "--checkpoint",
                   str(checkpoint_path), "--outdir", str(tmp_path)) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics) == {"n", "mae", "score_sum", "score_mean",
                            "late_fraction"}
    assert np.isfinite(metrics["mae"])


def test_predict_csv_and_svg(dataset_path, checkpoint_path, tmp_path):
    assert run_cli("predict", "--dataset", str(dataset_path), "--checkpoint",
                   str(checkpoint_path), "--outdir", str(tmp_path)) == 0
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    assert lines[0] == "window_index,true_rul,pred_rul,error"
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(
        float(first[2]) - float(first[1]), abs=1e-12)
    ET.fromstring((tmp_path / "rul_curve.svg").read_text())


def test_eval_exact_predictions_give_zero_metrics(tmp_path):
    # a checkpoint whose zeroed network predicts the constant head bias,
    # paired with a dataset whose labels equal that constant
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=0)
    params["head.out.b"].data[:] = 0.5
    ckpt = tmp_path / "const.ckpt"
    dataio.save_checkpoint(params, ckpt)
    samples = random_records(4, np.random.default_rng(3))
    data = tmp_path / "const.bin"
    dataio.save_dataset(samples, data)
    out = tmp_path / "out"
    assert run_cli("eval", "--dataset", str(data), "--checkpoint", str(ckpt),
                   "--outdir", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mae"] == 0.0
    assert metrics["score_mean"] == 0.0


def test_exp_loss_report(dataset_path, tmp_path):
    assert run_cli("exp-loss", "--dataset", str(dataset_path), "--outdir",
                   str(tmp_path), "--epochs", "2", "--seed", "1") == 0
    report = json.loads((tmp_path / "exp_loss.json").read_text())
    assert set(report) == {"mse", "custom", "delta", "lambda"}
    assert (tmp_path / "history_mse.csv").exists()
    assert (tmp_path / "history_custom.csv").exists()


def test_exp_loss_frees_the_first_twin_before_training_the_second(
        dataset_path, tmp_path, monkeypatch):
    train, twins = training.train, []

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in twins)
        params, history = train(*args, **kwargs)
        twins.append(weakref.ref(params))
        return params, history

    monkeypatch.setattr(training, "train", tracked)
    assert run_cli("exp-loss", "--dataset", str(dataset_path), "--outdir",
                   str(tmp_path), "--epochs", "1", "--seed", "1") == 0
    assert len(twins) == 2


@pytest.fixture(scope="module")
def ten_sample_dataset(dataset_path, tmp_path_factory):
    """As many windows as the README flow's dataset: --holdout 0.25 at seed
    0 leaves 7 of them to train on. They are the last ten, whose labels lie
    below an untrained model's predictions, so the hinge is active."""
    return dataio.save_dataset(dataio.load_dataset(dataset_path)[-10:],
                               tmp_path_factory.mktemp("ten") / "dataset.bin")


def test_batch_larger_than_the_training_set_trains(ten_sample_dataset,
                                                   tmp_path):
    # exp-loss's default batch is 8; each epoch is one step over all 7
    data = str(ten_sample_dataset)
    assert run_cli("exp-loss", "--dataset", data, "--outdir",
                   str(tmp_path / "exp"), "--epochs", "2") == 0
    assert run_cli("train", "--dataset", data, "--outdir",
                   str(tmp_path / "train"), "--epochs", "2",
                   "--val-fraction", "0.25", "--batch-size", "8") == 0
    history = (tmp_path / "train" / "history.csv").read_text().splitlines()
    assert len(history) == 3 and all(row.split(",")[2] for row in history[1:])


def test_loss_mse_trains_as_lam_zero(ten_sample_dataset, tmp_path):
    runs = {}
    for name, loss, lam in (("mse", "mse", "0.7"), ("lam0", "custom", "0"),
                            ("custom", "custom", "0.7")):
        out = tmp_path / name
        assert run_cli("train", "--dataset", str(ten_sample_dataset),
                       "--outdir", str(out), "--epochs", "2", "--lr", "1e-3",
                       "--batch-size", "4", "--loss", loss, "--lam", lam) == 0
        runs[name] = [(out / artifact).read_bytes()
                      for artifact in ("checkpoint.ckpt", "history.csv")]
    assert runs["mse"] == runs["lam0"]
    assert runs["custom"][0] != runs["mse"][0]


def test_config_file_with_flag_override(record_dir, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"stride": 3, "window": 10}))
    out = tmp_path / "out"
    assert run_cli("featurize", "--input", str(record_dir), "--config",
                   str(cfg_file), "--stride", "4", "--outdir", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["stride"] == 4      # flag wins
    assert manifest["config"]["window"] == 10     # file value kept


# --- manifests and reruns ---

def test_rerun_reproduces_artifacts_bit_exact(record_dir, tmp_path):
    first = tmp_path / "a"
    again = tmp_path / "b"
    assert run_cli("featurize", "--input", str(record_dir), "--outdir",
                   str(first), "--stride", "3") == 0
    assert run_cli("rerun", str(first / "manifest.json"), "--outdir",
                   str(again)) == 0
    for artifact in ("dataset.bin", "dataset.bin.json"):
        assert (first / artifact).read_bytes() == (again / artifact).read_bytes()


def test_failed_command_removes_partial_outputs(tmp_path):
    out = tmp_path / "out"
    code = run_cli("featurize", "--input", str(tmp_path / "missing"),
                   "--outdir", str(out))
    assert code == 3
    assert not list(out.iterdir())
    assert not (out / "manifest.json").exists()


def test_failed_run_removes_the_earlier_manifest(record_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("ingest", "--input", str(record_dir), "--outdir", str(out)) == 0
    summary = (out / "record_summary.json").read_bytes()
    assert run_cli("ingest", "--input", str(tmp_path / "missing"),
                   "--outdir", str(out)) == 3
    assert sorted(p.name for p in out.iterdir()) == ["record_summary.json"]
    assert (out / "record_summary.json").read_bytes() == summary


def test_failed_train_keeps_the_earlier_artifacts(dataset_path, checkpoint_path,
                                                  tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(checkpoint_path.parent, out)
    before = {name: (out / name).read_bytes()
              for name in ("checkpoint.ckpt", "history.csv")}

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(plotting, "line_chart_svg", fail)
    assert run_cli("train", "--dataset", str(dataset_path), "--outdir", str(out),
                   "--epochs", "1", "--batch-size", "8", "--seed", "3") == 3
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob
    assert not (out / "manifest.json").exists()
    assert not list(out.glob(".stage-*"))


def test_a_run_sweeps_stages_left_by_a_killed_run(record_dir, tmp_path):
    out = tmp_path / "out"
    (out / ".stage-old").mkdir(parents=True)
    (out / ".stage-old" / "partial.bin").write_bytes(b"\0" * 64)
    assert run_cli("ingest", "--input", str(record_dir), "--outdir", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "record_summary.json"]


def test_synth_replaces_the_earlier_record(tmp_path):
    out = tmp_path / "out"
    for snapshots in ("30", "20"):
        assert run_cli("synth", "--outdir", str(out), "--snapshots", snapshots,
                       "--samples", "64", "--onset", "10") == 0
    assert len(list((out / "Bearing9_1").glob("acc_*.csv"))) == 20
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["Bearing9_1", "record_summary.json"]
    assert sorted(p.name for p in out.iterdir()) == [
        "Bearing9_1", "manifest.json", "record_summary.json"]


# (snapshots, samples, onset, seed) -> sha256 over the synth folder's file
# names and bytes, in name order. 362 snapshots of 10 s cross an hour;
# 25 700 samples at 25.6 kHz cross a second inside each snapshot.
GOLDEN_SYNTH = {
    "hour-362x16": ((362, 16, 300, 21),
        "4c26d5997733f0cf02d56fb25d3f8c11942b4ce1f517d9c2b33bf150d0a7a86b"),
    "second-2x25700": ((2, 25700, 1, 22),
        "8bd25f0b1adf031a1241dff8b97decfffd7f9bd1ff1a62ae22a34deffb3aaf50"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SYNTH))
def test_synth_csv_folder_matches_golden_hash(case, tmp_path):
    (n, m, onset, seed), want = GOLDEN_SYNTH[case]
    assert run_cli("synth", "--outdir", str(tmp_path), "--snapshots", str(n),
                   "--samples", str(m), "--onset", str(onset),
                   "--seed", str(seed)) == 0
    digest = hashlib.sha256()
    files = sorted((tmp_path / "Bearing9_1").iterdir())
    assert len(files) == n
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == want


# --- bad records, bad samples and bad split fractions ---

def _assert_one_line_failure(capsys, code, expected_code, out):
    err = capsys.readouterr().err
    assert code == expected_code
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert not out.exists() or not list(out.iterdir())
    return err


def test_nan_in_record_exits_three(record_dir, tmp_path, capsys):
    bad = tmp_path / "Bearing9_1"
    shutil.copytree(record_dir, bad)
    csv = sorted(bad.glob("acc_*.csv"))[3]
    lines = csv.read_text().splitlines()
    fields = lines[0].split(",")
    fields[4] = "nan"
    lines[0] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    err = _assert_one_line_failure(
        capsys, run_cli("ingest", "--input", str(bad), "--outdir", str(out)), 3, out)
    assert err.startswith("InvalidRecord:")


@pytest.mark.parametrize("command", ["ingest", "fpt", "featurize"])
def test_record_near_float_max_exits_four(command, tmp_path, capsys):
    """Finite samples near +-1e300 overflow the snapshot RMS and the kurtosis
    moments: one NumericError line and exit 4, with no numpy warning and no
    Infinity or NaN in an artifact."""
    rng = np.random.default_rng(0)
    signals = rng.choice([-1e300, 1e300], (2, 30, 64)) * rng.random((2, 30, 64))
    record = tmp_path / "Bearing1_1"
    dataio.save_record_csvdir(ft.BearingRecord(signals), record)
    out = tmp_path / "out"
    code = run_cli(command, "--input", str(record), "--outdir", str(out))
    err = _assert_one_line_failure(capsys, code, 4, out)
    assert err.startswith("FloatOverflow: ")


@pytest.mark.parametrize("flag", ["growth", "noise-std", "tone-low", "tone-level"])
def test_synth_whose_samples_overflow_exits_three_with_one_line(flag, tmp_path):
    """numpy's overflow warnings stay off stderr; a subprocess, because the
    test suite turns warnings into errors."""
    out = tmp_path / "out"
    proc = run_module("synth", "--outdir", str(out), "--snapshots", "20",
                      "--samples", "64", "--onset", "10", f"--{flag}", "1e308")
    assert proc.returncode == 3
    assert proc.stderr == "InvalidRecord: record samples must be finite\n"
    assert not out.exists() or not list(out.iterdir())


def test_ingest_failing_in_a_workers_slice_exits_three(record_dir, tmp_path,
                                                      capsys, monkeypatch):
    """120 files over 3 processes: workers read files 40-79 and 80-119."""
    monkeypatch.setattr(dataio, "_process_count", lambda lines: 3)
    bad = tmp_path / "Bearing9_1"
    shutil.copytree(record_dir, bad)
    files = sorted(bad.glob("acc_*.csv"))
    files[50].write_text("0,0,0,0,1.5x,2\n" + files[50].read_text())
    files[100].write_text("0,0,0,0,1.5,2\n")
    out = tmp_path / "out"
    err = _assert_one_line_failure(
        capsys, run_cli("ingest", "--input", str(bad), "--outdir", str(out)), 3, out)
    assert err.startswith(f"MalformedRow: {files[50]}:1: ")


def test_synth_whose_worker_fails_leaves_nothing(tmp_path, capsys, monkeypatch):
    """60 snapshots over 3 processes: the last worker writes 40-59."""
    monkeypatch.setattr(dataio, "_process_count", lambda lines: 3)
    line_times = dataio._line_times

    def disk_full_at_snapshot_50(t0, offsets):
        if t0 == 50 * dataio.PRONOSTIA_PERIOD_S:
            raise OSError(errno.ENOSPC, "No space left on device")
        return line_times(t0, offsets)

    monkeypatch.setattr(dataio, "_line_times", disk_full_at_snapshot_50)
    out = tmp_path / "out"
    code = run_cli("synth", "--outdir", str(out), "--snapshots", "60",
                   "--samples", "64", "--onset", "20", "--seed", "1",
                   "--bearing-id", "Bearing9_1")
    err = _assert_one_line_failure(capsys, code, 3, out)
    assert err == "OSError: [Errno 28] No space left on device\n"


def _corrupt_label(blob):
    blob[20 + 2 * 4096 * 4:20 + 2 * 4096 * 4 + 4] = struct.pack("<f", 1.5)


def _nan_label(blob):
    blob[20 + 2 * 4096 * 4:20 + 2 * 4096 * 4 + 4] = struct.pack("<f", float("nan"))


def _negative_label(blob):
    blob[20 + 2 * 4096 * 4:20 + 2 * 4096 * 4 + 4] = struct.pack("<f", -0.5)


def _corrupt_pixel(blob):
    blob[20:24] = struct.pack("<f", float("inf"))


def _last_ver_pixel_inf(blob):
    blob[-8:-4] = struct.pack("<f", float("inf"))  # just before the last label


def _small_images(blob):
    blob[:] = dataio.DATASET_HEADER.pack(b"WPDS", 1, 1, 32, 32) + bytes(
        (2 * 32 * 32 + 1) * 4)


@pytest.mark.parametrize("corrupt", [_corrupt_label, _nan_label, _negative_label,
                                     _corrupt_pixel, _last_ver_pixel_inf,
                                     _small_images])
def test_bad_dataset_sample_exits_three(corrupt, dataset_path, checkpoint_path,
                                        tmp_path, capsys):
    blob = bytearray(dataset_path.read_bytes())
    corrupt(blob)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    out = tmp_path / "out"
    code = run_cli("eval", "--dataset", str(bad), "--checkpoint",
                   str(checkpoint_path), "--outdir", str(out))
    err = _assert_one_line_failure(capsys, code, 3, out)
    assert err.startswith("InvalidSample:")


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--val-fraction", "0.9"), ("train", "--val-fraction", "-0.1"),
    ("exp-loss", "--holdout", "0.9"), ("exp-loss", "--holdout", "-0.25"),
    ("exp-loss", "--holdout", "0")])
def test_split_fraction_out_of_range_exits_two(command, flag, value,
                                               dataset_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(command, "--dataset", str(dataset_path), "--outdir", str(out),
                   "--epochs", "1", "--batch-size", "2", flag, value)
    err = _assert_one_line_failure(capsys, code, 2, out)
    if float(value) == 0:
        assert err == "InvalidConfig: --holdout 0.0 must be nonzero for exp-loss\n"
    else:
        assert err == f"InvalidConfig: {flag} {float(value)} outside [0, 0.5]\n"


def test_exp_loss_split_that_holds_out_nothing_exits_three(dataset_path, tmp_path,
                                                           capsys):
    one = dataio.save_dataset(dataio.load_dataset(dataset_path)[:1],
                              tmp_path / "dataset.bin")
    out = tmp_path / "out"
    code = run_cli("exp-loss", "--dataset", str(one), "--outdir", str(out),
                   "--epochs", "1", "--batch-size", "1", "--holdout", "0.5",
                   "--seed", "1")
    err = _assert_one_line_failure(capsys, code, 3, out)
    assert err == "DataError: --holdout 0.5 held out no samples\n"


@pytest.mark.parametrize("command,source,options", [
    ("fpt", "input", ["--channel", "bogus"]),
    ("fpt", "input", ["--baseline", "2"]),
    ("train", "dataset", ["--loss", "bogus"]),
    ("train", "dataset", ["--epochs", "-1"]),
    ("train", "dataset", ["--batch-size", "0"]),
    ("featurize", "input", ["--window", "0"]),
    ("featurize", "input", ["--level", "7"]),
    ("featurize", "input", ["--level", "0"]),
    ("featurize", "input", ["--fpt", "abc"]),
    ("fpt", "input", ["--sigma", "-1"]),
    ("fpt", "input", ["--sigma", "0"]),
    ("fpt", "input", ["--sigma", "nan"]),
    ("featurize", "input", ["--fpt", "15", "--baseline", "2"])])
def test_invalid_option_value_exits_two(command, source, options, record_dir,
                                        dataset_path, tmp_path, capsys):
    path = record_dir if source == "input" else dataset_path
    out = tmp_path / "out"
    code = run_cli(command, f"--{source}", str(path), "--outdir", str(out),
                   *options)
    err = _assert_one_line_failure(capsys, code, 2, out)
    assert err.startswith("InvalidConfig:")


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", [*cli.COMMANDS, "rerun"])
def test_outdir_that_is_a_file_exits_two(command, under, record_dir,
                                         dataset_path, checkpoint_path,
                                         tmp_path, capsys):
    if command == "rerun":
        argv = ["rerun", str(record_dir.parent / "manifest.json")]
    else:
        inputs = {"input": record_dir, "dataset": dataset_path,
                  "checkpoint": checkpoint_path}
        argv = [command]
        for flag in cli.COMMANDS[command].flags:
            if flag.required:
                argv += [f"--{flag.name}", str(inputs[flag.name])]
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "sub" if under else taken
    code = run_cli(*argv, "--outdir", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"UsageError: --outdir {out}: {taken} is not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text() == "a file\n"


@pytest.mark.parametrize("bearing_id", ["../escaped", "a/b", "", ".", "..",
                                        "ABSOLUTE", "manifest.json",
                                        "record_summary.json"])
def test_synth_bearing_id_must_be_a_plain_name(bearing_id, tmp_path, capsys):
    if bearing_id == "ABSOLUTE":
        bearing_id = str(tmp_path / "absolute")
    out = tmp_path / "out"
    code = run_cli("synth", "--outdir", str(out), "--snapshots", "20",
                   "--samples", "64", "--onset", "10", "--bearing-id", bearing_id)
    err = _assert_one_line_failure(capsys, code, 2, out)
    assert err.startswith("InvalidConfig:")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def _rewrite_header(checkpoint, edit):
    """The checkpoint's bytes with its JSON header replaced by edit(header)."""
    blob = checkpoint.read_bytes()
    magic, version, hlen = dataio.CHECKPOINT_HEADER.unpack_from(blob)
    header = edit(json.loads(blob[16:16 + hlen]))
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return (dataio.CHECKPOINT_HEADER.pack(magic, version, len(raw)) + raw
            + blob[16 + hlen:])


def _drop_manifest(header):
    del header["manifest"]
    return header


def _unknown_config_key(header):
    header["config"]["bogus"] = 1
    return header


def _three_depths(header):
    header["config"]["depths"] = [1, 1, 1]
    return header


def _wider_config(header):
    header["config"]["embed_dim_base"] = 32
    return header


def _float_width(header):
    header["config"]["embed_dim_base"] = 16.0
    return header


def _not_utf8(header):
    return b"\xff\xfe" + json.dumps(header).encode()


def _string_seed(header):
    header["init_seed"] = "x"
    return header


def _bool_seed(header):
    header["init_seed"] = True
    return header


def _int_preset(header):
    header["config"]["preset"] = 5
    return header


@pytest.mark.parametrize("edit", [_drop_manifest, _unknown_config_key, _not_utf8,
                                  _three_depths, _wider_config, _float_width,
                                  _string_seed, _bool_seed, _int_preset])
def test_malformed_checkpoint_header_exits_three(edit, dataset_path,
                                                 checkpoint_path, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_rewrite_header(checkpoint_path, edit))
    out = tmp_path / "out"
    code = run_cli("eval", "--dataset", str(dataset_path), "--checkpoint",
                   str(bad), "--outdir", str(out))
    err = _assert_one_line_failure(capsys, code, 3, out)
    assert err.startswith("CorruptContainer:")


@pytest.mark.parametrize("name,value", [("head.out.b", np.inf),
                                        ("embed.w", np.nan)])
def test_non_finite_checkpoint_parameter_exits_three(name, value, dataset_path,
                                                     checkpoint_path, tmp_path,
                                                     capsys):
    blob = bytearray(checkpoint_path.read_bytes())
    _, _, hlen = dataio.CHECKPOINT_HEADER.unpack_from(blob)
    cfg = dataio.load_checkpoint(checkpoint_path).cfg
    start = next(row[1] for row in md.param_layout(cfg) if row[0] == name)
    struct.pack_into("<d", blob, 16 + hlen + 8 * start, value)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    out = tmp_path / "out"
    code = run_cli("eval", "--dataset", str(dataset_path), "--checkpoint",
                   str(bad), "--outdir", str(out))
    err = _assert_one_line_failure(capsys, code, 3, out)
    assert err.startswith("CorruptContainer:")


def _checkpoint_version_2(dataset, checkpoint):
    struct.pack_into("<I", checkpoint, 4, 2)
    return "VersionMismatch: {checkpoint}: version 2, expected 1"


def _data_byte(delta):
    def edit(dataset, checkpoint):
        _, _, hlen = dataio.CHECKPOINT_HEADER.unpack_from(checkpoint)
        data = len(checkpoint) - 16 - hlen
        checkpoint[len(checkpoint):] = bytes(max(delta, 0))
        del checkpoint[len(checkpoint) + min(delta, 0):]
        return (f"CorruptContainer: {{checkpoint}}: {data + delta} data bytes, "
                f"expected {data} for {data // 8} parameters")
    return edit


def _header_length(hlen):
    def edit(dataset, checkpoint):
        struct.pack_into("<Q", checkpoint, 8, hlen)
        return "CorruptContainer: {checkpoint}: truncated header"
    return edit


def _dataset_count(dataset, checkpoint):
    count = 2**32 - 1
    struct.pack_into("<I", dataset, 8, count)
    return (f"CorruptContainer: {{dataset}}: expected "
            f"{20 + count * 4 * (2 * 64 * 64 + 1)} bytes, got {len(dataset)}")


@pytest.mark.parametrize("edit", [
    _checkpoint_version_2, _data_byte(1), _data_byte(-1), _header_length(2**62),
    _header_length(2**63), _header_length(2**64 - 1), _dataset_count],
    ids=["version-2", "one-data-byte-more", "one-data-byte-less", "hlen-2**62",
         "hlen-2**63", "hlen-2**64-1", "count-2**32-1"])
def test_container_length_that_disagrees_with_its_file_exits_three(
        edit, dataset_path, checkpoint_path, tmp_path, capsys):
    """Each length a container declares is checked against its file's size
    before it is read or allocated, so a huge one is one CorruptContainer
    line (exit 3), not an OverflowError or MemoryError (exit 1). The outdir
    is left empty: no metrics.json, manifest.json or .stage-* folder."""
    dataset = bytearray(dataset_path.read_bytes())
    checkpoint = bytearray(checkpoint_path.read_bytes())
    line = edit(dataset, checkpoint)
    paths = {"dataset": tmp_path / "dataset.bin", "checkpoint": tmp_path / "bad.ckpt"}
    paths["dataset"].write_bytes(dataset)
    paths["checkpoint"].write_bytes(checkpoint)
    out = tmp_path / "out"
    code = run_cli("eval", "--dataset", str(paths["dataset"]), "--checkpoint",
                   str(paths["checkpoint"]), "--outdir", str(out))
    err = _assert_one_line_failure(capsys, code, 3, out)
    assert err == line.format(**paths) + "\n"


def _config_file(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return ["train", "--config", str(path)]


def _manifest(tmp_path, values):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(values))
    return ["rerun", str(path)]


@pytest.mark.parametrize("argv,values,message", [
    (_config_file, {"epochs": "2"},
     "config file: option 'epochs' must be a JSON int, not '2'"),
    (_config_file, {"epochs": True},
     "config file: option 'epochs' must be a JSON int, not True"),
    (_config_file, {"lr": None},
     "config file: option 'lr' must be a JSON float, not None"),
    (_config_file, {"bogus": 1}, "config file: unknown option 'bogus'"),
    (_config_file, [1], "config file: config must be a JSON object"),
    (_manifest, {"command": "bogus", "config": {}},
     "manifest: unknown command 'bogus'"),
    (_manifest, {"config": {}}, "manifest: unknown command None"),
    (_manifest, {"command": "eval", "config": {"dataset": 3}},
     "manifest: option 'dataset' must be a JSON str, not 3"),
    (_manifest, {"command": "fpt", "config": {"denoise": 1}},
     "manifest: option 'denoise' must be a JSON bool, not 1"),
    (_manifest, {"command": "eval", "config": None},
     "manifest: config must be a JSON object"),
    (_manifest, ["eval"], "manifest: not a JSON object")])
def test_config_file_and_manifest_values_are_checked(argv, values, message,
                                                     tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(*argv(tmp_path, values), "--outdir", str(out))
    assert code == 3
    assert capsys.readouterr().err == f"DataError: {message}\n"
    assert not out.exists()


def _non_utf8_csv(tmp_path, record_dir):
    bad = tmp_path / "Bearing9_1"
    shutil.copytree(record_dir, bad)
    csv = bad / "acc_00004.csv"
    lines = csv.read_bytes().split(b"\n")
    lines[6] = lines[6].replace(b",", b",\xff", 1)
    csv.write_bytes(b"\n".join(lines))
    return ["ingest", "--input", str(bad)], f"MalformedRow: {csv}:7: not UTF-8"


def _non_utf8_config(tmp_path, record_dir):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"epochs": 2, "loss": "m\xffe"}')
    return ["train", "--config", str(path)], "UnicodeDecodeError: "


def _non_utf8_manifest(tmp_path, record_dir):
    path = tmp_path / "manifest.json"
    path.write_bytes(b'{"command": "ingest", "config": {"input": "\xff"}}')
    return ["rerun", str(path)], "UnicodeDecodeError: "


@pytest.mark.parametrize("source", [_non_utf8_csv, _non_utf8_config,
                                    _non_utf8_manifest])
def test_non_utf8_input_exits_three(source, record_dir, tmp_path, capsys):
    argv, start = source(tmp_path, record_dir)
    out = tmp_path / "out"
    err = _assert_one_line_failure(
        capsys, run_cli(*argv, "--outdir", str(out)), 3, out)
    assert err.startswith(start)


@pytest.mark.parametrize("delim", [",", ";"], ids=["comma", "semicolon"])
@pytest.mark.parametrize("field", ["1_0", "１２"], ids=["underscore", "fullwidth"])
def test_non_ascii_or_underscore_number_exits_three(delim, field, record_dir,
                                                    tmp_path, capsys):
    bad = tmp_path / "Bearing9_1"
    shutil.copytree(record_dir, bad)
    csv = bad / "acc_00004.csv"
    lines = csv.read_text().splitlines()
    lines[6] = delim.join(("0", "0", "0", "0", field, "2"))
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    err = _assert_one_line_failure(
        capsys, run_cli("ingest", "--input", str(bad), "--outdir", str(out)),
        3, out)
    assert err.startswith(f"MalformedRow: {csv}:7: ")


FLOAT_FLAGS = [(command, flag.name) for command, spec in cli.COMMANDS.items()
               for flag in spec.flags if flag.kind is float]


@pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
def test_non_finite_float_flag_exits_two(command, flag, tmp_path, capsys):
    key = flag.replace("-", "_")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: float("nan")}))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": command,
                                    "config": {key: float("-inf")}}))
    for argv, message in (
            ([command, f"--{flag}", "nan"], f"command line: --{flag} must be "
             "finite, not nan"),
            ([command, f"--{flag}=-inf"], f"command line: --{flag} must be "
             "finite, not -inf"),
            ([command, "--config", str(config)], f"config file: --{flag} must "
             "be finite, not nan"),
            (["rerun", str(manifest)], f"manifest: --{flag} must be finite, "
             "not -inf")):
        out = tmp_path / "out"
        code = run_cli(*argv, "--outdir", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"InvalidConfig: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("sidecar", [
    None, lambda real: "[]\n",
    lambda real: json.dumps({**json.loads(real), "n_samples": 999, "image_side": 7})],
    ids=["missing", "list", "wrong-header"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_eval_and_predict_never_read_the_dataset_sidecar(
        command, sidecar, dataset_path, checkpoint_path, tmp_path):
    real = tmp_path / "real"
    assert run_cli(command, "--dataset", str(dataset_path), "--checkpoint",
                   str(checkpoint_path), "--outdir", str(real)) == 0
    edited = tmp_path / "edited" / "dataset.bin"
    edited.parent.mkdir()
    shutil.copy(dataset_path, edited)
    if sidecar is not None:
        real_sidecar = Path(str(dataset_path) + ".json").read_text()
        Path(str(edited) + ".json").write_text(sidecar(real_sidecar))
    out = tmp_path / "out"
    assert run_cli(command, "--dataset", str(edited), "--checkpoint",
                   str(checkpoint_path), "--outdir", str(out)) == 0
    artifacts = sorted(p.name for p in real.iterdir() if p.name != "manifest.json")
    assert artifacts == sorted(p.name for p in out.iterdir()
                               if p.name != "manifest.json")
    for name in artifacts:
        assert (out / name).read_bytes() == (real / name).read_bytes()


def test_oversized_dataset_images_exit_three(checkpoint_path, tmp_path, capsys):
    bad = tmp_path / "dataset.bin"
    bad.write_bytes(dataio.DATASET_HEADER.pack(b"WPDS", 1, 1, 1 << 16, 1 << 16))
    out = tmp_path / "out"
    code = run_cli("eval", "--dataset", str(bad), "--checkpoint",
                   str(checkpoint_path), "--outdir", str(out))
    err = _assert_one_line_failure(capsys, code, 3, out)
    assert err.startswith("CorruptContainer:")


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_empty_dataset_exits_three(command, checkpoint_path, tmp_path, capsys):
    empty = dataio.save_dataset(np.zeros(0, ft.SAMPLE_DTYPE), tmp_path / "dataset.bin")
    out = tmp_path / "out"
    code = run_cli(command, "--dataset", str(empty), "--checkpoint",
                   str(checkpoint_path), "--outdir", str(out))
    err = _assert_one_line_failure(capsys, code, 3, out)
    assert err.startswith("EmptyDataset:")


def test_diverging_train_exits_four_with_one_line(dataset_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("train", "--dataset", str(dataset_path), "--outdir", str(out),
                   "--epochs", "2", "--batch-size", "4", "--lr", "1e30",
                   "--val-fraction", "0.25")
    err = _assert_one_line_failure(capsys, code, 4, out)
    assert err.startswith("DivergedLoss:")


@pytest.mark.parametrize("value,top", [(0.25, "1.25"), (1e30, "2e+30"),
                                       (-1e30, "0"), (1e300, "2e+300")])
def test_line_chart_widens_a_constant_series(value, top):
    # by 1, or by the value's magnitude where adding 1 is lost to rounding
    svg = plotting.line_chart_svg([("loss", [3], [value])])
    ET.fromstring(svg)
    assert f">{top}</text>" in svg and ">4</text>" in svg
    assert "nan" not in svg and "inf" not in svg


def test_checked_config_fills_defaults_and_accepts_json_types():
    cfg = cli._checked_config("train", {"lr": 1, "epochs": 2, "dataset": None},
                              "test")
    assert cfg == {**cli._checked_config("train", {}, "test"),
                   "lr": 1, "epochs": 2}
    cfg = cli._checked_config("featurize", {"baseline": None, "denoise": False},
                              "test")
    assert cfg["baseline"] is None and cfg["denoise"] is False


def test_split_holds_out_every_round_inverse_fraction_th_sample():
    samples = np.arange(13)
    train, val = cli._split_dataset(samples, 0.0, 0)
    assert train is samples and val.size == 0
    for fraction, period in ((0.5, 2), (0.4, 2), (0.3, 3), (0.25, 4), (0.1, 10)):
        train, val = cli._split_dataset(samples, fraction, 1)
        assert np.array_equal(val, samples[1::period])
        assert np.array_equal(np.sort(np.concatenate([train, val])), samples)


# --- exit codes and help ---

def test_exit_code_data_error(tmp_path):
    assert run_cli("ingest", "--input", str(tmp_path / "absent"),
                   "--outdir", str(tmp_path / "o")) == 3


def test_exit_code_missing_required_option(tmp_path):
    assert run_cli("eval", "--dataset", "x.bin",
                   "--outdir", str(tmp_path)) == 2


def test_exit_code_numeric_error(dataset_path, tmp_path):
    # lr high enough to overflow the loss deterministically
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("train", "--dataset", str(dataset_path), "--outdir",
                       str(tmp_path / "o"), "--epochs", "3", "--lr", "1e200",
                       "--batch-size", "8")
    assert code == 4


def test_unknown_flag_exits_two():
    # argparse's own errors: an unknown flag, and a missing value (argparse
    # reads -inf as a flag, not as the value of --lr)
    for argv in (("synth", "--bogus", "1"),
                 ("train", "--outdir", "o", "--dataset", "d", "--lr", "-inf"),
                 ("train", "--outdir", "o", "--dataset", "d", "--epochs")):
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("UsageError: ")


@pytest.mark.parametrize("argv", [
    ("train", "--outdir", "o", "--dataset", "d", "--epoch", "3", "--batch", "4"),
    ("rerun", "manifest.json", "--out", "o"),
    ("--vers",)], ids=["train", "rerun", "top"])
def test_abbreviated_flag_exits_two(argv, tmp_path):
    """A flag matches only in full: `--epoch` is not `--epochs`."""
    proc = run_module(*argv, cwd=tmp_path)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("UsageError: ")
    assert not list(tmp_path.iterdir())


def test_parser_is_built_once_and_keeps_no_values():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["train", "--outdir", "o", "--epochs", "3"])
    second = parser.parse_args(["train", "--outdir", "o"])
    assert (first.epochs, second.epochs) == (3, None)


def test_readme_commands_parse():
    """Every `bearingrul` line of the README's code blocks parses, so a
    renamed or removed flag fails here instead of in a reader's shell."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```", readme, re.S | re.M)
    lines = [line.strip() for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("bearingrul ")]
    assert len(commands) == 9
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_help_lists_headline_defaults():
    proc = run_module("featurize", "--help")
    assert proc.returncode == 0
    assert "default 10" in proc.stdout     # window
    assert "default 5" in proc.stdout      # stride
    assert "default 3" in proc.stdout      # level
    proc = run_module("train", "--help")
    assert "default 0.0001" in proc.stdout  # learning rate
    assert "default 16" in proc.stdout      # batch size
    assert "default 100" in proc.stdout     # epochs
    assert "p=0.3" in proc.stdout           # head dropout note


def test_version_flag():
    proc = run_module("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_cli_keeps_freed_heap_pages_mapped():
    """With the heap pinned, a freed 16 MiB array's pages serve the next one."""
    resource = pytest.importorskip("resource")
    if not cli._keep_freed_heap_mapped():
        pytest.skip("the C library has no mallopt")
    size = 2 << 20  # float64s: 16 MiB, below cli.HEAP_MMAP_THRESHOLD
    np.ones(size)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(size)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64


def test_cli_keeps_freed_heap_pages_mapped_for_a_worker_thread():
    """With one arena pinned, a 16 MiB array the main thread freed serves a
    worker thread's next one. Run in a fresh process: an arena that pytest's
    own threads made earlier would be reused by the worker instead."""
    code = """
import resource, sys, threading
import numpy as np
from bearingrul import cli
if not cli._keep_freed_heap_mapped():
    sys.exit(5)
size = 2 << 20  # float64s: 16 MiB, below cli.HEAP_MMAP_THRESHOLD
np.ones(size)
faults = []
def work():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(size)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
worker = threading.Thread(target=work)
worker.start()
worker.join(timeout=60)
print(faults[0])
"""
    pytest.importorskip("resource")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    if proc.returncode == 5:
        pytest.skip("the C library has no mallopt")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64
