"""`load_csv` parses a file's data lines on every CPU of the affinity mask:
the caller parses the first range and one forked child each other range.
The dataset, or the error raised, must be the one of a one-process parse,
byte for byte, a failed child or fork must not change it, and no child or
part file may outlive the call."""

import errno
import io
import os
import threading
import time
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agroyield import fork, ingest, synthgen
from agroyield.errors import AgroYieldError
from helpers import assert_nothing_left, counting_forks, one_cpu, time_limit

R = ingest._FORK_ROWS
forks = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="one CPU in the affinity mask: load_csv never forks")
HEADER = ",".join(ingest.CSV_HEADER).encode()


def children(n):
    """The children that `load_csv` forks for `n` lines of one row each."""
    return len(fork.ranges(n, n // R)) - 1


@lru_cache(maxsize=1)
def good_lines():
    """The data lines of 3 * R generated rows, as `write_csv` writes them."""
    ds = synthgen.generate(synthgen.GenConfig(n_records=3 * R, seed=6))
    return b"".join(ingest._format_rows(ds, (0, len(ds)))).split(b"\n")[:-1]


def with_field(line, i, text):
    fields = line.split(b",")
    fields[i] = text
    return b",".join(fields)


# one data line edited, and the line ending it gets
LINE_EDITS = {
    "blank": (lambda line: b"", None),
    "short": (lambda line: line.rsplit(b",", 1)[0], None),
    "not a number": (lambda line: with_field(line, 7, b"n/a"), None),
    "401-digit year": (lambda line: with_field(line, 1, b"9" * 401), None),
    "CRLF": (lambda line: line, b"\r\n"),
    "bare CR": (lambda line: line, b"\r"),
    "quoted newline": (lambda line: with_field(line, 5, b'"1\n2"'), None),
}


def outcome(load, path):
    """What `load(path)` gives: the dtype, shape and bytes of each array,
    the cleaning log and the source; or the message of the error raised."""
    try:
        ds = load(path)
    except AgroYieldError as exc:
        return str(exc)
    arrays = [getattr(ds, name) for name in
              ("district", "crop", "year", "values", "row")]
    return ([(a.dtype, a.shape, a.tobytes()) for a in arrays],
            ds.cleaning_log, ds.source)


def one_process_parse(path):
    """The parse `load_csv` falls back to."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return ingest.parse_csv(fh, source=str(path))


@forks
@settings(max_examples=30, deadline=None)
@given(n=st.integers(2 * R + 1, 3 * R), crlf=st.booleans(),
       final_newline=st.booleans(),
       edits=st.lists(st.tuples(st.integers(0, 3 * R - 1),
                                st.sampled_from(sorted(LINE_EDITS))),
                      max_size=8),
       bad_utf8=st.none() | st.integers(1, R))
def test_parallel_parse_equals_one_process_parse(
        tmp_path_factory, n, crlf, final_newline, edits, bad_utf8):
    lines = good_lines()[:n]
    ends = [b"\r\n" if crlf else b"\n"] * n
    for i, kind in edits:
        edit, end = LINE_EDITS[kind]
        lines[i % n] = edit(good_lines()[i % n])
        ends[i % n] = end or ends[i % n]
    if bad_utf8 is not None:  # a byte that is not UTF-8, in the last part
        lines[n - bad_utf8] += b"\xff"
    body = b"".join(line + end for line, end in zip(lines, ends))
    if not final_newline:
        body = body[:-len(ends[-1])]
    data = HEADER + (b"\r\n" if crlf else b"\n") + body
    out = tmp_path_factory.mktemp("read")
    path = out / "d.csv"
    path.write_bytes(data)
    # a line is a row, so the lines are parsed in parts
    one_row_per_line = b'"' not in data \
        and data.count(b"\r") == data.count(b"\r\n")
    with mock.patch.object(os, "fork", wraps=os.fork) as forking:
        got = outcome(ingest.load_csv, path)
        with one_cpu():
            want = outcome(ingest.load_csv, path)
    assert forking.call_count == (children(n) if one_row_per_line else 0)
    assert got == want == outcome(one_process_parse, path)
    assert_nothing_left(out, ["d.csv"])


def write_file(directory):
    path = directory / "d.csv"
    path.write_bytes(HEADER + b"\n"
                     + b"".join(line + b"\n" for line in good_lines()))
    with one_cpu():
        return path, outcome(ingest.load_csv, path)


def no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@forks
@pytest.mark.parametrize("where", ["a child", "the caller"])
def test_an_error_falls_back_to_the_one_process_parse(tmp_path, monkeypatch,
                                                      where):
    """A child that fails has its range parsed again by the caller; a part
    that the caller cannot read raises, and the whole file is parsed
    again in one process."""
    path, want = write_file(tmp_path)
    caller = os.getpid()
    module, name = ((ingest, "_part_blocks") if where == "a child"
                    else (fork.pickle, "load"))
    real = getattr(module, name)

    def fails(*args):
        in_child = os.getpid() != caller
        if in_child == (where == "a child"):
            no_space(*args)
        return real(*args)

    monkeypatch.setattr(module, name, fails)
    pids = counting_forks(monkeypatch)
    assert outcome(ingest.load_csv, path) == want
    assert len(pids) == children(3 * R)
    assert_nothing_left(tmp_path, ["d.csv"])


@forks
@pytest.mark.parametrize("cannot", ["fork", "make a part file"])
def test_a_part_that_cannot_be_forked_is_parsed_in_process(
        tmp_path, monkeypatch, cannot):
    path, want = write_file(tmp_path)
    if cannot == "fork":
        failing = mock.Mock(side_effect=BlockingIOError(errno.EAGAIN, "busy"))
        monkeypatch.setattr(os, "fork", failing)
    else:
        failing = mock.Mock(side_effect=PermissionError(errno.EACCES, "no"))
        monkeypatch.setattr(fork.tempfile, "TemporaryFile", failing)
    assert outcome(ingest.load_csv, path) == want
    assert failing.call_count == 1
    assert_nothing_left(tmp_path, ["d.csv"])


@forks
def test_an_interrupt_kills_and_reaps_every_child(tmp_path, monkeypatch):
    path, _ = write_file(tmp_path)
    caller, real = os.getpid(), ingest._part_blocks

    def interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # a child still running when the caller stops
        yield from real(*args)

    monkeypatch.setattr(ingest, "_part_blocks", interrupted)
    pids = counting_forks(monkeypatch)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        ingest.load_csv(path)
    assert time.monotonic() - began < 30
    assert len(pids) == children(3 * R)
    assert_nothing_left(tmp_path, ["d.csv"])


def test_a_named_pipe_is_read_once(tmp_path):
    path, want = write_file(tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    with time_limit(30):
        got = outcome(ingest.load_csv, fifo)
    writer.join(30)
    assert not writer.is_alive()
    assert got[:2] == want[:2] and got[2] == str(fifo)


@settings(max_examples=300, deadline=None)
@given(body=st.lists(st.sampled_from([b"a", b",", b"\n", b"\r\n", b"\r",
                                      b'"']), max_size=40).map(b"".join),
       block_bytes=st.integers(1, 7))
def test_line_starts_match_a_reference_split(body, block_bytes):
    fh = io.BytesIO(b"h\n" + body)
    fh.readline()
    with mock.patch.object(ingest, "_BLOCK_BYTES", block_bytes):
        got = ingest._line_starts(fh)
    if b'"' in body or body.count(b"\r") != body.count(b"\r\n"):
        assert got is None
    else:
        starts = [2] + [2 + i + 1 for i, c in enumerate(body) if c == 10]
        n = body.count(b"\n") + (body[-1:] not in (b"", b"\n"))
        assert got.dtype == np.int64
        assert got.tolist() == starts[:n]
