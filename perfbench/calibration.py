"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the speed of the same code drifts by tens of percent over
seconds to minutes. The benchmark runs `calibration()` right before and right
after each timed operation and scales the operation's wall by the kernels'
reference time over their mean measured time. A timing is thus reported in
reference seconds: the wall the operation would have taken while the kernels
ran in their `REFERENCE_S`. The kernels never call bearingrul, so a change to
the program cannot move them.

Neighbours on the host slow different kinds of work by different amounts, so
there are two kernels, and each operation is scaled by those that do its
kind of work (see `workloads.CALIBRATED_BY`):

* parse: pure-Python CSV text parsing, from a list of lines and through a
  text reader, into float lists and arrays, like the CSV loader;
* compute: a pure-Python integer loop (interpreter dispatch), small numpy
  operations (the autodiff graph and the signal path) and small matrix
  products (the model).
"""

import io
import time

import numpy as np

# About the medians of calibration() on a 2-vCPU Intel Xeon VM at 2.0 GHz,
# python 3.11, numpy 2.4, one OpenBLAS thread. Constants: they set the scale.
REFERENCE_S = {"parse": 0.018, "compute": 0.012}

_LINES = [f"{i % 24},{i % 60},{i % 60},{i * 7 % 1000000},"
          f"{(i * 37 % 2001 - 1000) / 1000:.3f},{(i * 53 % 2001 - 1000) / 1000:.3f}"
          for i in range(12000)]
_CSV = ("\n".join(_LINES) + "\n").encode("utf-8")
_VECTOR = np.linspace(0.0, 1.0, 4096)
_MATRIX = np.linspace(-1.0, 1.0, 96 * 96).reshape(96, 96)


def _parse():
    total = 0.0
    for line in _LINES:
        fields = line.strip().split(",")
        total += float(fields[4]) + float(fields[5])
    hor, ver = [], []
    for line in io.TextIOWrapper(io.BytesIO(_CSV), encoding="utf-8"):
        fields = line.strip().split(",")
        hor.append(float(fields[4]))
        ver.append(float(fields[5]))
    return total + float(np.array(hor).sum() + np.array(ver).sum())


def _compute():
    total = 0
    for i in range(60_000):
        total += i * i % 7
    vec = _VECTOR
    for _ in range(250):
        vec = np.sqrt(vec * vec + 1.0) - 0.5
    mat = _MATRIX
    for _ in range(40):
        mat = np.tanh(mat @ _MATRIX)
    return total + float(vec[0] + mat[0, 0])


def calibration() -> dict:
    """{kernel: wall of one run in seconds}."""
    walls = {}
    for name, kernel in (("parse", _parse), ("compute", _compute)):
        t0 = time.perf_counter()
        kernel()
        walls[name] = time.perf_counter() - t0
    return walls
