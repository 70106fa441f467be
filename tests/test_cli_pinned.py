"""Pins the observable option surface of every CLI command.

For each command: the config it resolves from built-in defaults alone, the
`(default ...)` note each flag shows in --help, and the usage error (exit
2, one stderr line) when a required input is missing. Any change to how
commands are declared must leave all three exactly as they are here.
"""

import re

import pytest

from bearingrul import cli

DEFAULT_CONFIGS = {
    "synth": {
        "snapshots": 100, "samples": 2560, "onset": 50, "growth": 2.0,
        "noise_std": 1.0, "kurtosis": 3.0, "impulses": 20, "tone_level": 2.0,
        "tone_low": 0.06, "tone_high": 0.17, "seed": 0,
        "bearing_id": "Bearing9_1",
    },
    "ingest": {"input": None, "hor_col": 4, "ver_col": 5},
    "fpt": {
        "input": None, "hor_col": 4, "ver_col": 5, "channel": "horizontal",
        "baseline": None, "sigma": 3.0, "consecutive": 3, "denoise": False,
    },
    "featurize": {
        "input": None, "hor_col": 4, "ver_col": 5, "fpt": "auto", "window": 10,
        "stride": 5, "level": 3, "denoise": True, "baseline": None,
    },
    "train": {
        "dataset": None, "preset": "desk", "loss": "custom", "lam": 1.0,
        "lr": 1e-4, "batch_size": 16, "epochs": 100, "seed": 0,
        "val_fraction": 0.0,
    },
    "eval": {"dataset": None, "checkpoint": None},
    "predict": {"dataset": None, "checkpoint": None},
    "exp-loss": {
        "dataset": None, "preset": "desk", "lam": 1.0, "lr": 1e-3,
        "batch_size": 8, "epochs": 30, "seed": 0, "holdout": 0.25,
    },
}

MISSING_INPUTS = {
    "synth": (), "ingest": ("input",), "fpt": ("input",),
    "featurize": ("input",), "train": ("dataset",),
    "eval": ("dataset", "checkpoint"), "predict": ("dataset", "checkpoint"),
    "exp-loss": ("dataset",),
}

COMMAND_NAMES = sorted(DEFAULT_CONFIGS)


def _help_defaults(text: str) -> dict:
    """Map each documented flag of a --help text to its `(default ...)` note."""
    section = text.split("options:", 1)[1].split("\n\n", 1)[0]
    options = " ".join(section.split())
    notes = {}
    for flag, help_text in re.findall(
            r"(--[a-z][a-z-]*)(?: [A-Z_]+)? (.*?)(?= --[a-z]|$)", options):
        note = re.search(r"\(default [^)]*\)$", help_text)
        if note:
            notes[flag] = note.group(0)
    return notes


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_resolved_default_config(command):
    args = cli.build_parser().parse_args([command, "--outdir", "unused"])
    assert cli._resolve_config(command, args) == DEFAULT_CONFIGS[command]


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_help_default_notes(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    expected = {f"--{key.replace('_', '-')}": f"(default {value})"
                for key, value in DEFAULT_CONFIGS[command].items()}
    assert _help_defaults(capsys.readouterr().out) == expected


@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_missing_required_inputs(command, capsys, tmp_path):
    out = tmp_path / "out"
    argv = [command, "--outdir", str(out)]
    missing = MISSING_INPUTS[command]
    if not missing:
        argv += ["--snapshots", "12", "--samples", "64", "--onset", "6"]
    code = cli.main(argv)
    err = capsys.readouterr().err
    if missing:
        assert code == 2
        assert err == (f"UsageError: {command}: missing required option(s) "
                       + ", ".join(f"--{m}" for m in missing) + "\n")
        assert not out.exists()
    else:
        assert code == 0
        assert err == ""
