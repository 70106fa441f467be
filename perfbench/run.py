"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; bearingrul is imported from its
`src/`. The last stdout line is the result JSON: with --trace 0 it holds
every end-to-end metric of BENCHMARK.json, measured with tracing off; with
--trace 1 every per-layer metric, from iterations run with the tracer
installed, interleaved with untraced ones to give the tracing overhead.
End-to-end times are in reference seconds (calibration.py), which take out
the drift of a shared host's speed. The line before it is a report with the
environment, sample counts, the host's calibration, artifact digests and
any failures.
"""

import os

# Fixed before numpy loads: one BLAS thread (<= nproc) keeps timings steady
# on a shared machine and is recorded in the report.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPS = 5

STAGE_METRICS = ("ingest_rows_per_s", "featurize_s", "train_samples_per_s",
                 "eval_samples_per_s")


def import_program():
    """Import bearingrul from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import bearingrul
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bearingrul from {SRC}: {exc}")
    if Path(bearingrul.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: bearingrul imported from {bearingrul.__file__}, "
                 f"not from {SRC}")


def metric_units(section: str) -> dict:
    """{name: unit} of one metric section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def environment() -> dict:
    """Software and machine facts that a timing depends on."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:  # no git executable
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "bearingrul").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def run_untraced(wl, seconds: float) -> tuple:
    """Set up SETUP_REPS times, warm up, then time iterations for `seconds`.

    Every timing is the median over the run, reported with its sample count
    and quartiles.
    """
    setups = [wl.setup() for _ in range(SETUP_REPS)]
    wl.iteration()  # warm-up: first calls are slower than steady state
    iterations = []
    t_end = time.perf_counter() + seconds
    while not iterations or time.perf_counter() < t_end:
        iterations.append(wl.iteration())
    samples = {name: [it[name] for it in iterations if name in it]
               for name in STAGE_METRICS}
    samples["setup_s"] = setups
    metrics = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, {k: {"n": len(v), "quartiles": statistics.quantiles(v, n=4)}
                     if len(v) > 1 else {"n": len(v)} for k, v in samples.items()}


def run_traced(wl, tracer, seconds: float) -> tuple:
    """Traced set-up once, warm-up, then alternate untraced/traced iterations.

    Only the workload's named stage runs traced; the overhead compares its
    wall in traced and untraced iterations.
    """
    tracer.install()
    try:
        tracer.reset()
        wl.setup()
        csv_write_ms = tracer.layer_metrics()["dataio.save_record_csvdir.ms"]
    finally:
        tracer.uninstall()
        tracer.step_intervals.clear()
    wl.iteration()
    walls = {False: [], True: []}
    layers = []
    t_end = time.perf_counter() + seconds
    while not layers or time.perf_counter() < t_end:
        for traced in (False, True):
            wl.tracer = tracer if traced else None
            wl.iteration()
            walls[traced].append(wl.primary_seconds)
        wl.tracer = None
        layers.append(tracer.layer_metrics())
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["dataio.save_record_csvdir.ms"] = csv_write_ms
    metrics.update(tracer.step_percentiles())
    metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                      / statistics.median(walls[False]) - 1.0)
    return metrics, {"traced_iterations": len(layers),
                     "untraced_iterations": len(walls[False])}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes=None, workdir: Path = None) -> tuple:
    """Run one workload; returns (result dict, report dict)."""
    import calibration
    import tracing
    import workloads

    units = metric_units("per_layer" if trace else "end_to_end")
    workdir = workdir or WORKDIR / f"{workload}-{seed}-{os.getpid()}"
    runner = workloads.Runner()
    wl = workloads.WORKLOADS[workload](runner, workdir, seed,
                                       sizes or workloads.Sizes())
    try:
        if trace:
            values, counts = run_traced(wl, tracing.Tracer(), seconds)
            values["failed_fraction"] = runner.failed / max(1, runner.attempted)
        else:
            values, counts = run_untraced(wl, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # only when no other run uses it
            workdir.parent.rmdir()
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    cals = runner.calibrations
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "environment": environment(), "samples": counts,
              "calibration": {"reference_s": calibration.REFERENCE_S,
                              "median_s": {k: statistics.median(c[k] for c in cals)
                                           for k in calibration.REFERENCE_S}
                              if cals else None,
                              "count": len(cals)},
              "digests": runner.digests, "errors": runner.errors}
    return result, report


def main(argv=None) -> int:
    import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
