"""perfbench's featurize check reads the dataset sidecar that `featurize`
writes (`fpt`, `config.window`, `config.stride`). A sidecar it cannot read
fails every benchmark run; this test makes it fail the tier-1 suite too.

    python3 -m pytest -q tests/test_perfbench_workloads.py
"""

import importlib.util
import json
from pathlib import Path

import pytest

from bearingrul import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SNAPSHOTS = 120


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports calibration
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def featurized(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    assert cli.main(["synth", "--outdir", str(root), "--snapshots", str(SNAPSHOTS),
                     "--samples", "256", "--onset", "40", "--seed", "5",
                     "--bearing-id", "Bearing1_3"]) == 0
    out = root / "feat"
    assert cli.main(["featurize", "--input", str(root / "Bearing1_3"),
                     "--outdir", str(out), "--stride", "3"]) == 0
    return out


def test_perfbench_featurize_check_passes_on_a_cli_featurize(featurized,
                                                             monkeypatch):
    workloads = load_workloads(monkeypatch)
    check = workloads.check_featurize(workloads.Runner(), "featurize", SNAPSHOTS)
    assert check(featurized) is None


def test_dataset_sidecar_holds_exactly_bearing_id_fpt_and_config(featurized):
    sidecar = json.loads((featurized / "dataset.bin.json").read_text())
    assert sorted(sidecar) == ["bearing_id", "config", "fpt"]
    assert sidecar["bearing_id"] == "Bearing1_3"
    assert sorted(sidecar["config"]) == ["denoise", "level", "stride", "window"]
    assert sidecar["config"]["stride"] == 3
