"""The per-line CSV folder writer, for tests.

dataio.save_record_csvdir builds each file's text in bulk; this writer
formats and writes one line at a time, and is the reference its bytes
are compared against.
"""

import math
from pathlib import Path

from bearingrul.dataio import PRONOSTIA_PERIOD_S, PRONOSTIA_SAMPLE_RATE


def save_record_csvdir(record, directory):
    """Write `record` as acc_NNNNN.csv files, one formatted line per sample."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for i in range(record.n_snapshots):
        t0 = i * PRONOSTIA_PERIOD_S
        path = root / f"acc_{i + 1:05d}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for j in range(record.samples_per_snapshot):
                t = t0 + j / PRONOSTIA_SAMPLE_RATE
                h, rem = divmod(t, 3600.0)
                m, s = divmod(rem, 60.0)
                us = (s - math.floor(s)) * 1e6
                fh.write(f"{int(h)},{int(m)},{int(s)},{us:.1f},"
                         f"{float(record.horizontal[i, j])!r},"
                         f"{float(record.vertical[i, j])!r}\n")
        written.append(path)
    return written
