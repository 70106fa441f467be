import errno
import json
import os
import random
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from bearingrul import dataio, features as ft, model as md, wavelets as wv
from bearingrul.errors import (
    ConfigMismatch,
    CorruptContainer,
    InconsistentSnapshotLength,
    InvalidConfig,
    InvalidSample,
    MalformedRow,
    MissingDirectory,
    VersionMismatch,
)
import csv_lines
from sample_arrays import records


def write_fixture_tree(root, rows_per_file=(4, 4, 4), mangle=None):
    """Three acc CSVs with known values: hor = 0.1*(file*10+row), ver = -hor."""
    bearing = root / "Bearing1_3"
    bearing.mkdir(parents=True)
    for f, rows in enumerate(rows_per_file, start=1):
        lines = []
        for r in range(rows):
            hor = 0.1 * (f * 10 + r)
            lines.append(f"0,0,{f},{r}.0,{hor!r},{-hor!r}")
        text = "\n".join(lines) + "\n"
        if mangle:
            text = mangle(f, text)
        (bearing / f"acc_{f:05d}.csv").write_text(text)
    return bearing


# --- PRONOSTIA ingestion ---

def test_load_fixture_tree_exact(tmp_path):
    bearing = write_fixture_tree(tmp_path)
    record = dataio.load_pronostia_bearing(bearing)
    assert record.n_snapshots == 3
    assert record.samples_per_snapshot == 4
    assert record.bearing_id == "Bearing1_3"
    assert record.condition_id == 1
    assert dataio.PRONOSTIA_SAMPLE_RATE == 25600.0
    expected = np.array([[0.1 * (f * 10 + r) for r in range(4)]
                         for f in (1, 2, 3)])
    np.testing.assert_allclose(record.horizontal, expected, atol=0)
    np.testing.assert_allclose(record.vertical, -expected, atol=0)


def test_load_orders_by_numeric_suffix(tmp_path):
    bearing = tmp_path / "Bearing2_1"
    bearing.mkdir()
    # written out of order, with non-padded numbering
    for f in (10, 2, 1):
        (bearing / f"acc_{f}.csv").write_text(f"0,0,0,0.0,{float(f)!r},0.5\n")
    record = dataio.load_pronostia_bearing(bearing)
    np.testing.assert_allclose(record.horizontal[:, 0], [1.0, 2.0, 10.0])
    assert record.condition_id == 2


def test_load_missing_directory(tmp_path):
    with pytest.raises(MissingDirectory):
        dataio.load_pronostia_bearing(tmp_path / "nope")


def test_load_no_csvs(tmp_path):
    (tmp_path / "Bearing1_1").mkdir()
    with pytest.raises(MissingDirectory):
        dataio.load_pronostia_bearing(tmp_path / "Bearing1_1")


def test_load_malformed_field_names_file_and_line(tmp_path):
    def mangle(f, text):
        if f == 2:
            lines = text.splitlines()
            lines[1] = "0,0,0,0.0,not_a_number,0.1"
            return "\n".join(lines) + "\n"
        return text

    bearing = write_fixture_tree(tmp_path, mangle=mangle)
    with pytest.raises(MalformedRow) as excinfo:
        dataio.load_pronostia_bearing(bearing)
    assert "acc_00002.csv" in str(excinfo.value)
    assert excinfo.value.line == 2


def test_load_short_row_is_malformed(tmp_path):
    def mangle(f, text):
        if f == 3:
            return text + "0,0,0\n"
        return text

    bearing = write_fixture_tree(tmp_path, mangle=mangle)
    with pytest.raises(MalformedRow):
        dataio.load_pronostia_bearing(bearing)


def test_load_ragged_snapshots(tmp_path):
    bearing = write_fixture_tree(tmp_path, rows_per_file=(4, 5, 4))
    with pytest.raises(InconsistentSnapshotLength,
                       match="^acc_00002.csv has 5 rows, expected 4$"):
        dataio.load_pronostia_bearing(bearing)


def test_load_semicolon_delimited(tmp_path):
    bearing = tmp_path / "Bearing3_2"
    bearing.mkdir()
    (bearing / "acc_00001.csv").write_text("0;0;0;0.0;1.5;-1.5\n0;0;0;39.0;2.5;-2.5\n")
    record = dataio.load_pronostia_bearing(bearing)
    np.testing.assert_allclose(record.horizontal[0], [1.5, 2.5])


@pytest.mark.parametrize("delim", [",", ";"], ids=["comma", "semicolon"])
@pytest.mark.parametrize("field", ["1_0", "１２", " ２ ", "1٠"],
                         ids=["underscore", "fullwidth", "padded-fullwidth",
                              "arabic-indic"])
def test_load_non_ascii_or_underscore_number_is_malformed(tmp_path, delim,
                                                          field):
    def mangle(f, text):
        if f == 2:
            lines = text.splitlines()
            lines[2] = delim.join(("0", "0", "0", "0", field, "2"))
            return "\n".join(lines) + "\n"
        return text

    bearing = write_fixture_tree(tmp_path, mangle=mangle)
    with pytest.raises(MalformedRow) as excinfo:
        dataio.load_pronostia_bearing(bearing)
    assert excinfo.value.path == str(bearing / "acc_00002.csv")
    assert excinfo.value.line == 3


def test_record_csv_roundtrip(tmp_path):
    """Written and re-read bit for bit, -0.0 and subnormals included, for
    the written comma folder and a `;`-delimited copy of it."""
    for n, m in ((3, 64), (4, 2560)):
        cfg = dataio.SyntheticConfig(n_snapshots=n, samples_per_snapshot=m,
                                     fault_onset_index=1, seed=4)
        record = dataio.gen_synthetic(cfg)
        record.horizontal[0, :3] = (-0.0, 5e-324, -1.7976931348623157e308)
        record.vertical[-1, -2:] = (-0.0, 2.2250738585072014e-308)
        comma = tmp_path / f"Bearing9_{m}"
        semi = tmp_path / f"semicolon_{m}" / comma.name
        semi.mkdir(parents=True)
        for path in dataio.save_record_csvdir(record, comma):
            (semi / path.name).write_text(path.read_text().replace(",", ";"))
        for folder in (comma, semi):
            back = dataio.load_pronostia_bearing(folder)
            assert back.horizontal.tobytes() == record.horizontal.tobytes()
            assert back.vertical.tobytes() == record.vertical.tobytes()


def _edge_records():
    """Records whose CSV text is hard to get right, by name."""
    def synth(n, m, seed):
        return dataio.gen_synthetic(dataio.SyntheticConfig(
            n_snapshots=n, samples_per_snapshot=m, fault_onset_index=n // 2,
            seed=seed))

    rng = np.random.default_rng(7)
    odd = ft.BearingRecord(horizontal=rng.normal(size=(1, 32000)),
                           vertical=rng.normal(size=(1, 32000)))
    specials = (0.0, -0.0, 1e-300, 5e-324, 1e16, 1e22, 123456789.125)
    odd.horizontal[0, :7] = specials
    odd.vertical[0, -7:] = specials
    odd.vertical[0, 25590:25610] = -0.0
    return {
        "pronostia-200x2560": synth(200, 2560, 1),
        # the hour rolls over at snapshot 360
        "hour-400x16": synth(400, 16, 2),
        # special values; the snapshot crosses a second at sample 25600
        "specials-1x32000": odd,
        "long-3x77000": synth(3, 77000, 3),
    }


def test_csv_writer_matches_the_per_line_writer(tmp_path):
    for name, record in _edge_records().items():
        fast = dataio.save_record_csvdir(record, tmp_path / "fast" / name)
        slow = csv_lines.save_record_csvdir(record, tmp_path / "slow" / name)
        assert [p.name for p in fast] == [p.name for p in slow]
        assert fast[0].parent == tmp_path / "fast" / name
        for a, b in zip(fast, slow):
            assert a.read_bytes() == b.read_bytes(), (name, a.name)


def _traced_peak(call):
    """call()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_record():
    record = dataio.gen_synthetic(dataio.SyntheticConfig(
        n_snapshots=200, samples_per_snapshot=512, fault_onset_index=100,
        seed=5))
    return record, record.horizontal.nbytes + record.vertical.nbytes


def test_csv_writer_holds_less_than_the_record(tmp_path):
    """Line times and text are built one snapshot at a time; whole-record
    line times peaked at 2.8 times the record's bytes."""
    record, nbytes = _memory_record()
    _, peak = _traced_peak(lambda: dataio.save_record_csvdir(record, tmp_path))
    assert peak < nbytes


def test_loader_holds_one_copy_of_the_record(tmp_path):
    """Each file is parsed into its row of one preallocated array per
    channel; a list of snapshots plus its stacked copy peaked at 2.2 times
    the record's bytes."""
    record, nbytes = _memory_record()
    dataio.save_record_csvdir(record, tmp_path)
    back, peak = _traced_peak(lambda: dataio.load_pronostia_bearing(tmp_path))
    assert back.horizontal.tobytes() == record.horizontal.tobytes()
    assert back.vertical.tobytes() == record.vertical.tobytes()
    assert peak < 1.25 * nbytes


# --- forked workers ---

@pytest.fixture
def processes(monkeypatch):
    """processes(n) makes every CSV folder split over n processes and
    returns the list that each os.fork call appends to."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def force(count):
        monkeypatch.setattr(dataio, "_process_count", lambda lines: count)
        forks.clear()
        return forks

    return force


def _small_record(n_snapshots, samples):
    return dataio.gen_synthetic(dataio.SyntheticConfig(
        n_snapshots=n_snapshots, samples_per_snapshot=samples,
        fault_onset_index=n_snapshots // 2, seed=3))


def _written_and_read(record, folder):
    paths = dataio.save_record_csvdir(record, folder)
    back = dataio.load_pronostia_bearing(folder)
    return ([p.relative_to(folder) for p in paths], [p.read_bytes() for p in paths],
            back.horizontal.tobytes(), back.vertical.tobytes())


def test_forked_workers_write_and_read_the_serial_bytes(tmp_path, processes):
    """14 snapshots split unevenly: the writer's 14 files 7+7 and 4+5+5,
    the reader's 13 after the first one 6+7 and 4+4+5."""
    record = _small_record(14, 64)
    processes(1)
    serial = _written_and_read(record, tmp_path / "serial")
    assert serial[2:] == (record.horizontal.tobytes(), record.vertical.tobytes())
    for count in (2, 3):
        forks = processes(count)
        assert _written_and_read(record, tmp_path / str(count)) == serial
        assert len(forks) == 2 * (count - 1)


def test_a_failed_fork_leaves_its_slices_to_this_process(tmp_path, processes,
                                                         monkeypatch):
    record = _small_record(14, 64)
    processes(1)
    serial = _written_and_read(record, tmp_path / "serial")
    forks = processes(4)
    fork, tries = os.fork, []

    def every_second_fork_fails():
        tries.append(1)
        if len(tries) % 2 == 0:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", every_second_fork_fails)
    assert _written_and_read(record, tmp_path / "forked") == serial
    assert len(tries) == 4 and len(forks) == 2  # one worker per folder


def test_a_worker_that_ends_without_a_result_is_an_error():
    def work(first, stop):
        if first:  # the worker's slice
            os._exit(0)

    with pytest.raises(ChildProcessError, match="ended without a result"):
        dataio._in_slices(0, 4, 2, work)


def test_process_count_follows_lines_and_cpus(monkeypatch):
    """One process per 10 240 lines, at most one per CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    counts = [dataio._process_count(n) for n in (0, 20_479, 20_480, 512_000)]
    assert counts == [1, 1, 2, 8]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert dataio._process_count(512_000) == 2
    monkeypatch.delattr(os, "fork")
    assert dataio._process_count(512_000) == 1


def test_workers_allocate_only_what_one_file_needs(tmp_path, processes,
                                                   monkeypatch):
    """Each worker's tracemalloc peak above what it inherited holds only
    per-file buffers and text. A loader worker's rows are its copy-on-write
    pages of the record (half of it here), which tracemalloc does not see;
    it sends them from those pages without a copy."""
    record, nbytes = _memory_record()
    peaks = tmp_path / "peaks"
    peaks.mkdir()
    fork, exit_ = os.fork, os._exit
    inherited = []

    def traced_fork():
        pid = fork()
        if pid == 0:
            inherited.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
        return pid

    def traced_exit(code):
        grown = tracemalloc.get_traced_memory()[1] - inherited[0]
        (peaks / f"{os.getpid()}").write_text(str(grown))
        exit_(code)

    monkeypatch.setattr(os, "fork", traced_fork)
    monkeypatch.setattr(os, "_exit", traced_exit)
    forks = processes(2)
    back, _ = _traced_peak(lambda: (dataio.save_record_csvdir(record, tmp_path / "rec"),
                                    dataio.load_pronostia_bearing(tmp_path / "rec"))[1])
    assert back.horizontal.tobytes() == record.horizontal.tobytes()
    grown = [int(p.read_text()) for p in peaks.iterdir()]
    assert len(forks) == len(grown) == 2
    assert max(grown) < 0.25 * nbytes, grown


def _folder(folder):
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


def test_forked_writer_leaves_the_serial_loops_folder_on_failure(tmp_path, processes,
                                                                 monkeypatch):
    """14 snapshots over 3 processes, 0-3, 4-8 and 9-13: this process fails
    at snapshot 2 only once the last worker has written its files, which
    are then removed."""
    record = _small_record(14, 64)
    line_times, parent = dataio._line_times, os.getpid()
    last = []  # the file this process waits for before it fails

    def disk_full_at_snapshot_2(t0, offsets):
        if t0 == 2 * dataio.PRONOSTIA_PERIOD_S:
            deadline = time.monotonic() + 30
            while (os.getpid() == parent and last and not last[0].exists()
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            raise OSError(errno.ENOSPC, "No space left on device")
        return line_times(t0, offsets)

    monkeypatch.setattr(dataio, "_line_times", disk_full_at_snapshot_2)
    folders = []
    for count, name in ((1, "serial"), (3, "forked")):
        processes(count)
        last[:] = [tmp_path / name / "acc_00014.csv"] if count > 1 else []
        with pytest.raises(OSError, match="No space left on device"):
            dataio.save_record_csvdir(record, tmp_path / name)
        folders.append(_folder(tmp_path / name))
    assert folders[0] == folders[1]
    assert sorted(folders[0]) == ["acc_00001.csv", "acc_00002.csv"]


def _malformed_row(csv):
    lines = csv.read_text().splitlines(keepends=True)
    lines[2] = "0,0,0,0,1.5x,2\n"
    csv.write_text("".join(lines))


def _non_utf8_byte(csv):
    lines = csv.read_bytes().splitlines(keepends=True)
    lines[4] = lines[4].replace(b",", b",\xff", 1)
    csv.write_bytes(b"".join(lines))


def _short_file(csv):
    csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:5]))


def _unreadable(csv):
    csv.unlink()
    csv.mkdir()


FAILURES = [_malformed_row, _non_utf8_byte, _short_file, _unreadable]


def _failure(folder):
    """Type, text, path and line of what loading the folder raises."""
    with pytest.raises(Exception) as excinfo:
        dataio.load_pronostia_bearing(folder)
    exc = excinfo.value
    return type(exc), str(exc), getattr(exc, "path", None), getattr(exc, "line", None)


@pytest.mark.parametrize("shift", range(len(FAILURES)))
def test_forked_loader_raises_the_serial_loops_first_failure(tmp_path, processes,
                                                             shift):
    """21 files over 5 processes: the caller reads files 1-4 after file 0,
    the four workers 5-8, 9-12, 13-16 and 17-20. Each worker's slice gets
    one failure, in an order rotated by `shift`, and each failure is raised
    once the ones before it are gone."""
    record = _small_record(21, 16)
    kinds = FAILURES[shift:] + FAILURES[:shift]
    places = (6, 10, 14, 18)
    for first in range(len(places)):
        folder = tmp_path / str(first)
        processes(1)
        dataio.save_record_csvdir(record, folder)
        files = sorted(folder.glob("acc_*.csv"))
        for place, fail in zip(places[first:], kinds[first:]):
            fail(files[place])
        serial = _failure(folder)
        forks = processes(5)
        assert _failure(folder) == serial
        assert len(forks) == 4
        assert files[places[first]].name in serial[1]
        if serial[0] is MalformedRow:
            assert serial[2] == str(files[places[first]])


# --- numpy fast path against the line parser ---

LINE_PARSER = dataio._parse_acc_lines


def _outcome(parse):
    """Both columns' bytes (so NaN payloads and -0.0 count), or the error."""
    try:
        hor, ver = parse()
    except MalformedRow as exc:
        return "MalformedRow", exc.line
    return hor.tobytes(), ver.tobytes()


def _fast_and_oracle(path, hor_col, ver_col):
    """_parse_acc_csv's outcome, and the line parser's on the file as text."""
    def oracle():
        with open(path, encoding="utf-8") as fh:
            return LINE_PARSER(path, fh, hor_col, ver_col)

    return (_outcome(lambda: dataio._parse_acc_csv(path, hor_col, ver_col)),
            _outcome(oracle))


ODD_FIELDS = ("-0.0", "0", "-0", "nan", "-nan", "inf", "-Infinity", "1e999",
              "5e-324", "+2", ".5", "5.", " 3 ", "\t7", "　4", "\x0c6",
              "2\x1c", "\x1f2", "8\x00", "#9", "1_0", "１２", "0x10",
              "", "abc", '"2"', "1 2")


def _fuzz_file(rng):
    """An acc CSV's text: float rows with odd fields, rows and line endings."""
    ncols = rng.choice((2, 6, 6, 7))
    lines = []
    for _ in range(rng.choice((0, 1, 2, 3, 5))):
        fields = [repr(rng.uniform(-9, 9)) for _ in range(ncols)]
        if rng.random() < 0.1:
            fields = fields[:rng.randint(1, ncols)]
        if rng.random() < 0.4:
            fields[rng.randrange(len(fields))] = rng.choice(ODD_FIELDS)
        line = ("," if rng.random() < 0.95 else ";").join(fields)
        lines.append(rng.choice((line,) * 8 + ("", " \t", f"  {line} ")))
    ending = rng.choice(("\n", "\n", "\r\n", "\r"))
    return ending.join(lines) + ending * (rng.random() < 0.8)


def test_fast_path_matches_line_parser_on_a_seeded_corpus(tmp_path, monkeypatch):
    fallbacks = []
    monkeypatch.setattr(dataio, "_parse_acc_lines",
                        lambda *a: fallbacks.append(a) or LINE_PARSER(*a))
    rng = random.Random(8)
    n_files, n_fast = 1000, 0
    for i in range(n_files):
        path = tmp_path / f"acc_{i}.csv"
        path.write_text(_fuzz_file(rng), encoding="utf-8", newline="")
        cols = rng.choice(((4, 5), (4, 5), (0, 1), (-2, -1), (5, 5), (9, 10)))
        before = len(fallbacks)
        fast, oracle = _fast_and_oracle(path, *cols)
        assert fast == oracle, (path.read_bytes(), cols)
        n_fast += len(fallbacks) == before
    # the comparison means something only if both paths saw many files
    assert n_fast >= 200 and n_files - n_fast >= 200


@pytest.mark.parametrize("text,cols,expected", [
    # numpy reads (1, 2) with `,`; the line parser splits this line at `;`
    (";;;;;;0,0,0,0,1,2\n", (4, 5), ("MalformedRow", 1)),
    # numpy warns "input contained no data" and returns no rows
    ("\n\n", (4, 5), ("MalformedRow", 0)),
    # numpy strips 0x1C as whitespace; float() rejects it
    ("0,0,0,0,2\x1c,1\n", (4, 5), ("MalformedRow", 1)),
    ("0,0,0,0,1.5,-2\r0,0,0,0,-0.0,4\r", (4, 5), ([1.5, -0.0], [-2.0, 4.0])),
    ("0,0,0,0,1.5,-2\r\n0,0,0,0,-0.0,4\r\n", (4, 5), ([1.5, -0.0], [-2.0, 4.0])),
    ("0,0,0,0,1e-3,-nan", (4, 5), ([1e-3], [-float("nan")])),
    ("0,0,0,0,1,2,3,4\n0,0,0,0,5,6,7,8\n", (4, 5), ([1.0, 5.0], [2.0, 6.0])),
    ("1,2,3\n4,5,6\n", (-2, -1), ([2.0, 5.0], [3.0, 6.0])),
    # numpy raises OverflowError for a column index beyond a C long
    ("0,0,0,0,1,2\n", (10**20, 5), ("MalformedRow", 1)),
], ids=["semicolon-line", "blank-lines-only", "unit-separator", "cr", "crlf",
        "single-row", "extra-columns", "negative-columns", "huge-column"])
def test_fast_path_explicit_cases(tmp_path, text, cols, expected):
    path = tmp_path / "acc_00001.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast, oracle = _fast_and_oracle(path, *cols)
    assert caught == []
    if expected[0] != "MalformedRow":
        expected = tuple(np.array(c).tobytes() for c in expected)
    assert fast == oracle == expected


@pytest.mark.parametrize("char", ["\u00a0", "\u3000", "\u00e9"],
                         ids=["nbsp", "ideographic-space", "e-acute"])
def test_a_character_across_byte_50000_gives_the_line_parsers_outcome(
        tmp_path, char):
    """numpy decodes the file's bytes itself: line by line here, in 50 000
    byte chunks when it opens a file by name. A multi-byte character that
    starts at byte 49 999 still gives the line parser's values or error."""
    row = "0,0,0,0,1.25,-2.5\n"
    head = row * (49_900 // len(row))
    zeros = 49_999 - len(head) - len("0,0,0,0,1")
    text = head + "0,0,0,0," + "0" * zeros + "1" + char + ",2\n" + row
    raw = text.encode("utf-8")
    assert raw.index(char.encode("utf-8")) == 49_999
    path = tmp_path / "acc_00001.csv"
    path.write_bytes(raw)
    fast, oracle = _fast_and_oracle(path, 4, 5)
    assert fast == oracle
    if char == "\u00e9":
        assert fast == ("MalformedRow", head.count("\n") + 1)
    else:
        assert len(fast[0]) == 8 * (head.count("\n") + 2)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_non_utf8_byte_is_a_malformed_row_on_its_line(tmp_path, ending):
    bearing = write_fixture_tree(tmp_path)
    csv = bearing / "acc_00002.csv"
    lines = ["0,0,0,0,1.5,2.5", "", "0,0,0,0,é,1", "0,0,0,0,\xff,2.5"]
    csv.write_bytes(ending.join(lines).encode("latin-1") + b"\n")
    with pytest.raises(MalformedRow) as excinfo:
        dataio.load_pronostia_bearing(bearing)
    assert excinfo.value.path == str(csv) and excinfo.value.line == 3
    assert str(excinfo.value).startswith(f"{csv}:3: not UTF-8")


# --- synthetic generation ---

def test_synthetic_determinism():
    cfg = dataio.SyntheticConfig(n_snapshots=10, samples_per_snapshot=128,
                                 fault_onset_index=5, seed=123)
    a = dataio.gen_synthetic(cfg)
    b = dataio.gen_synthetic(cfg)
    assert a.horizontal.tobytes() == b.horizontal.tobytes()
    assert a.vertical.tobytes() == b.vertical.tobytes()


def test_synthetic_channels_differ_but_share_schedule():
    cfg = dataio.SyntheticConfig(n_snapshots=8, samples_per_snapshot=128,
                                 fault_onset_index=2, seed=5)
    record = dataio.gen_synthetic(cfg)
    assert not np.allclose(record.horizontal, record.vertical)


def test_synthetic_onset_detected_at_full_scale():
    cfg = dataio.SyntheticConfig(n_snapshots=100, samples_per_snapshot=2560,
                                 fault_onset_index=50, seed=7)
    record = dataio.gen_synthetic(cfg)
    fpt = ft.detect_fpt(ft.kurtosis_series(record))
    assert fpt is not None and 47 <= fpt <= 53


def test_synthetic_no_growth_no_detection():
    nones = 0
    for seed in range(20):
        cfg = dataio.SyntheticConfig(n_snapshots=100, samples_per_snapshot=256,
                                     fault_onset_index=50,
                                     fault_growth_rate=0.0, seed=seed)
        record = dataio.gen_synthetic(cfg)
        nones += ft.detect_fpt(ft.kurtosis_series(record)) is None
    assert nones >= 19


def test_synthetic_impulse_only_kurtosis_rises():
    cfg = dataio.SyntheticConfig(n_snapshots=80, samples_per_snapshot=512,
                                 fault_onset_index=40, tone_level=0.0, seed=6)
    k = ft.kurtosis_series(dataio.gen_synthetic(cfg))
    assert k[42:50].mean() > k[:40].mean() + 1.0


def test_synthetic_leaves_healthy_band_near_onset():
    cfg = dataio.SyntheticConfig(n_snapshots=80, samples_per_snapshot=512,
                                 fault_onset_index=40, seed=6)
    k = ft.kurtosis_series(dataio.gen_synthetic(cfg))
    fpt = ft.detect_fpt(k)
    assert fpt is not None and 40 <= fpt <= 47


def test_synthetic_healthy_kurtosis_shaping():
    for target in (2.2, 3.0, 5.0):
        cfg = dataio.SyntheticConfig(n_snapshots=2, samples_per_snapshot=200000,
                                     fault_onset_index=1, seed=8,
                                     healthy_kurtosis_level=target)
        record = dataio.gen_synthetic(cfg)
        measured = wv.kurtosis(record.horizontal[0])
        assert measured == pytest.approx(target, rel=0.1)


def test_synthetic_config_validation():
    with pytest.raises(InvalidConfig):
        dataio.SyntheticConfig(fault_onset_index=0)
    with pytest.raises(InvalidConfig):
        dataio.SyntheticConfig(noise_std=-1.0)
    with pytest.raises(InvalidConfig):
        dataio.SyntheticConfig(healthy_kurtosis_level=1.0)


# --- dataset container ---

def make_samples(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return records((rng.normal(size=4096), rng.normal(size=4096), k / max(1, n - 1))
                   for k in range(n))


def test_dataset_roundtrip_bit_exact(tmp_path):
    samples = make_samples(10)
    path = tmp_path / "data.bin"
    dataio.save_dataset(samples, path, bearing_id="Bearing1_1", fpt=42,
                        config={"stride": 5})
    loaded = dataio.load_dataset(path)
    sidecar = json.loads((tmp_path / "data.bin.json").read_text())
    assert sidecar["fpt"] == 42
    assert sidecar["bearing_id"] == "Bearing1_1"
    assert sidecar["config"] == {"stride": 5}
    assert loaded.dtype == ft.SAMPLE_DTYPE and not loaded.flags.writeable
    assert loaded.tobytes() == samples.tobytes()


def test_save_dataset_refuses_bad_samples(tmp_path):
    samples = make_samples(2)
    samples["label"][1] = np.nan
    with pytest.raises(InvalidSample):
        dataio.save_dataset(samples, tmp_path / "data.bin")
    assert not any(tmp_path.iterdir())


def test_dataset_truncated_file(tmp_path):
    path = tmp_path / "data.bin"
    dataio.save_dataset(make_samples(3), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-100])
    with pytest.raises(CorruptContainer):
        dataio.load_dataset(path)


def test_dataset_bad_magic(tmp_path):
    path = tmp_path / "data.bin"
    dataio.save_dataset(make_samples(2), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptContainer):
        dataio.load_dataset(path)


def test_dataset_version_mismatch(tmp_path):
    path = tmp_path / "data.bin"
    dataio.save_dataset(make_samples(2), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        dataio.load_dataset(path)


# --- checkpoint container ---

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=11)
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(params, cfg, path)
    loaded, loaded_cfg = dataio.load_checkpoint(path)
    assert loaded_cfg == cfg
    assert loaded.init_seed == 11
    assert list(loaded.tensors) == list(params.tensors)  # one order for both
    for name in params.tensors:
        assert np.array_equal(loaded[name].data, params[name].data)
    assert np.array_equal(loaded.flat, params.flat)
    md.validate_params(loaded, cfg)


def test_checkpoint_preserves_forward_outputs(tmp_path):
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=12)
    rng = np.random.default_rng(13)
    params["head.out.w"].data[...] = rng.normal(size=params["head.out.w"].shape)
    hor, ver = rng.random((2, 1, 32, 32)), rng.random((2, 1, 32, 32))
    before = md.forward_batch(params, cfg, hor, ver).data
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(params, cfg, path)
    loaded, loaded_cfg = dataio.load_checkpoint(path)
    after = md.forward_batch(loaded, loaded_cfg, hor, ver).data
    assert np.array_equal(before, after)


def test_save_checkpoint_rejects_a_rebound_tensor(tmp_path):
    cfg = md.desk_config()
    params = md.init_params(cfg, seed=0)
    params["head.out.w"].data = params["head.out.w"].data + 1.0
    path = tmp_path / "model.ckpt"
    with pytest.raises(ConfigMismatch):
        dataio.save_checkpoint(params, cfg, path)
    assert not path.exists()


def test_checkpoint_truncated(tmp_path):
    cfg = md.desk_config()
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(md.init_params(cfg, seed=0), cfg, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CorruptContainer):
        dataio.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    cfg = md.desk_config()
    path = tmp_path / "model.ckpt"
    dataio.save_checkpoint(md.init_params(cfg, seed=0), cfg, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"ZZZZ"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptContainer):
        dataio.load_checkpoint(path)
