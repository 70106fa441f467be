"""Self-tests of the benchmark harness, at tiny input sizes.

    python3 -m pytest -q perfbench
"""

import contextlib
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from bearingrul import autodiff, model  # noqa: E402

TINY = workloads.Sizes(signal_snapshots=80, signal_samples=512, signal_onset=40,
                       desk_snapshots=80, desk_samples=256, desk_onset=30,
                       train_epochs=1, batch_size=4)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    path = run.WORKDIR / f"selftest-{request.node.name}"
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        run.WORKDIR.rmdir()


def names(section):
    return {m["name"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_metrics_match_benchmark_json(workload, workdir):
    originals = (model.conv_stem, autodiff.matmul)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, report = run.measure(workload, 3, 0.0, trace, TINY, workdir)
        assert (result["correct"], result["failed"]) == (True, 0), report["errors"]
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == names(section)
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
    assert (model.conv_stem, autodiff.matmul) == originals  # wrappers removed
    assert not workdir.exists()
    layers = result["metrics"]
    if workload == "train-desk":
        for name in ("autodiff.backward.ms", "training.adam_step.ms",
                     "autodiff.ops_per_step"):
            assert layers[name]["value"] > 0
        assert sum(v["value"] for k, v in layers.items()
                   if k.endswith(".bwd_ms")) > 0  # vjp closures were wrapped
    elif workload == "eval-desk":  # forward only
        assert layers["autodiff.ops_per_step"]["value"] > 0
        for name in ("autodiff.backward.ms", "training.adam_step.ms"):
            assert layers[name]["value"] == 0
    else:  # the signal path traces no model work
        for name in ("model.forward_batch.self_ms", "autodiff.backward.ms",
                     "training.adam_step.ms"):
            assert layers[name]["value"] == 0
        assert layers["wavelets.wavelet_denoise.calls"]["value"] == 2 * TINY.signal_snapshots
        assert layers["features.denoise_us_per_snapshot"]["value"] == pytest.approx(
            layers["features.preprocess_record.ms"]["value"] * 1e3
            / TINY.signal_snapshots)


def test_corrupted_csv_row_counts_as_failure(workdir, monkeypatch):
    build_inputs = workloads.SignalPronostia._build_inputs

    def write_then_corrupt(self):
        out = build_inputs(self)
        csv = self.record / "acc_00002.csv"
        lines = csv.read_text().splitlines(keepends=True)
        fields = lines[5].split(",")
        fields[4] = "not-a-number"  # the horizontal acceleration column
        lines[5] = ",".join(fields)
        csv.write_text("".join(lines))
        return out

    monkeypatch.setattr(workloads.SignalPronostia, "_build_inputs",
                        write_then_corrupt)
    result, report = run.measure("signal-pronostia", 3, 0.0, True, TINY,
                                 workdir)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert result["metrics"]["failed_fraction"]["value"] > 0
    assert any("ingest" in e and "exit 3" in e for e in report["errors"])


def test_exits_nonzero_without_program(workdir):
    """A tree holding only BENCHMARK.json and perfbench/ prints no result."""
    (workdir / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    for src in (run.ROOT / "perfbench").glob("*.py"):
        shutil.copy(src, workdir / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_changed_digest_is_a_failure(workdir):
    runner = workloads.Runner()
    workdir.mkdir(parents=True)
    path = workdir / "artifact"
    path.write_bytes(b"one")
    assert runner.digest("a", path) is None
    assert runner.digest("a", path) is None
    path.write_bytes(b"two")
    assert runner.digest("a", path) == "a digest changed"


def test_expected_windows_matches_program():
    from bearingrul import features
    for n, fpt in ((60, 30), (200, 101), (380, 61), (25, 0)):
        want = sum(1 for w in features.sliding_windows(n, 10, 5) if w.last >= fpt)
        assert workloads.expected_windows(n, fpt, 10, 5) == want


def test_graph_node_without_vjp_is_a_failure(workdir):
    tracer = tracing.Tracer()

    def op_with_renamed_slot(x):
        return autodiff.Tensor(x, requires_grad=True)  # no _vjp attached

    tracer._op_wrapper(op_with_renamed_slot, "other")(1.0)
    assert tracer.problems
    runner = workloads.Runner()
    runner.tracer = tracer
    wall = runner.cli("synth", ["--snapshots", 4, "--samples", 64, "--onset", 2],
                      workdir / "synth")
    assert (wall, runner.failed, runner.attempted) == (None, 1, 1)
    assert "vjp" in runner.errors[0] and not tracer.problems


def test_tracer_nests_self_time():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_seconds["outer"] == pytest.approx(
        tracer.seconds["outer"] - tracer.seconds["inner"])
