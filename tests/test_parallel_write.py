"""`write_csv` formats its rows on every CPU of the affinity mask: the
caller writes the first range and one forked child each other range. The
file must hold the bytes that one process writes, a failed child must not
change them, and no child or part file may outlive the call. A write that
fails leaves the target as it was: no file, or the old bytes."""

import errno
import os
import time
from contextlib import nullcontext
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agroyield import fork, ingest, synthgen
from agroyield.cli import run
from helpers import assert_nothing_left, counting_forks, one_cpu

R = ingest._FORK_ROWS
CPUS = len(os.sched_getaffinity(0))
forks = pytest.mark.skipif(
    CPUS < 2, reason="one CPU in the affinity mask: write_csv never forks")


@lru_cache(maxsize=1)
def generated():
    return synthgen.generate(synthgen.GenConfig(n_records=3 * R, seed=4))


def dataset(n, integral=()):
    """The first `n` generated rows, with the `integral` value columns
    rounded, so that they are written as integers rather than by repr."""
    ds = generated().take(np.arange(n))
    ds.values[:, list(integral)] = np.round(ds.values[:, list(integral)])
    return ds


def no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 100 * R), most=st.integers(-1, 40),
       cpus=st.integers(1, 8))
def test_ranges_cover_the_items_in_contiguous_ranges(n, most, cpus):
    with mock.patch.object(fork, "cpus", return_value=cpus):
        got = fork.ranges(n, most)
    parts = max(1, min(cpus, most))
    assert len(got) == parts
    assert got[0][0] == 0 and got[-1][1] == n
    assert all(stop == start for (_, stop), (start, _) in zip(got, got[1:]))
    assert all(start <= stop for start, stop in got)
    if n >= parts:  # as `write_csv`, `load_csv` and `report` cut their items
        assert all(start < stop for start, stop in got)
    # the split that `report` made of its crops before `fork.ranges`
    assert got == [(n * i // parts, n * (i + 1) // parts)
                   for i in range(parts)]


def test_cpus_are_the_affinity_mask(monkeypatch):
    assert fork.cpus() == CPUS
    with one_cpu():
        assert fork.cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert fork.cpus() == os.cpu_count()
    monkeypatch.delattr(os, "fork")
    assert fork.cpus() == 1


ROWS = (st.sampled_from([R - 1, R, 2 * R, 2 * R + 1])
        | st.integers(1, 3 * R).filter(lambda n: n % 256))


@forks
@settings(max_examples=8, deadline=None)
@given(n=ROWS, integral=st.sets(st.integers(0, 46), max_size=12))
def test_forked_output_is_byte_identical(tmp_path_factory, n, integral):
    ds = dataset(n, integral)
    out = tmp_path_factory.mktemp("fork")
    with one_cpu():
        ingest.write_csv(ds, out / "one.csv")
    ingest.write_csv(ds, out / "all.csv")
    assert (out / "all.csv").read_bytes() == (out / "one.csv").read_bytes()
    assert_nothing_left(out, ["all.csv", "one.csv"])


@forks
def test_a_failed_child_leaves_the_bytes_unchanged(tmp_path, monkeypatch):
    ds = dataset(2 * R + 1, integral=[0, 46])
    with one_cpu():
        ingest.write_csv(ds, tmp_path / "one.csv")
    caller, real = os.getpid(), ingest._format_rows

    def fails_in_a_child(*args):
        return (real if os.getpid() == caller else no_space)(*args)

    monkeypatch.setattr(ingest, "_format_rows", fails_in_a_child)
    pids = counting_forks(monkeypatch)
    ingest.write_csv(ds, tmp_path / "all.csv")
    assert len(pids) == 1
    assert (tmp_path / "all.csv").read_bytes() \
        == (tmp_path / "one.csv").read_bytes()
    assert_nothing_left(tmp_path, ["all.csv", "one.csv"])


@forks
@pytest.mark.parametrize("cannot", ["fork", "make a part file"])
def test_a_part_that_cannot_be_forked_is_formatted_in_process(
        tmp_path, monkeypatch, cannot):
    ds = dataset(2 * R + 1)
    with one_cpu():
        ingest.write_csv(ds, tmp_path / "one.csv")
    if cannot == "fork":
        failing = mock.Mock(side_effect=BlockingIOError(errno.EAGAIN, "busy"))
        monkeypatch.setattr(os, "fork", failing)
    else:
        failing = mock.Mock(side_effect=PermissionError(errno.EACCES, "no"))
        monkeypatch.setattr(fork.tempfile, "TemporaryFile", failing)
    ingest.write_csv(ds, tmp_path / "all.csv")
    assert failing.call_count == 1
    assert (tmp_path / "all.csv").read_bytes() \
        == (tmp_path / "one.csv").read_bytes()
    assert_nothing_left(tmp_path, ["all.csv", "one.csv"])


@forks
def test_an_error_in_every_process_is_the_one_process_error(tmp_path,
                                                            monkeypatch):
    ds = dataset(2 * R + 1)
    ingest.write_csv(ds, tmp_path / "raw.csv")
    monkeypatch.setattr(ingest, "_format_rows", no_space)
    pids = counting_forks(monkeypatch)
    raised = {}
    for cpus in ("one", "all"):
        with one_cpu() if cpus == "one" else nullcontext():
            with pytest.raises(OSError) as exc:
                ingest.write_csv(ds, tmp_path / f"{cpus}.csv")
        raised[cpus] = (type(exc.value), str(exc.value))
    assert len(pids) == 1
    assert raised["one"] == raised["all"] == (
        OSError, "[Errno 28] No space left on device")
    assert_nothing_left(tmp_path, ["raw.csv"])


@forks
@pytest.mark.parametrize("command", ["generate", "clean"])
def test_an_error_in_every_process_exits_as_one_process(
        tmp_path, monkeypatch, capsys, command):
    raw = tmp_path / "raw.csv"
    ingest.write_csv(dataset(2 * R + 1), raw)
    monkeypatch.setattr(ingest, "_format_rows", no_space)
    pids = counting_forks(monkeypatch)
    outcome = {}
    for cpus in ("one", "all"):
        out = tmp_path / cpus
        argv = (["generate", "--n", str(2 * R + 1), "--out",
                 str(out / "data.csv")] if command == "generate"
                else ["clean", "--data", str(raw), "--out", str(out)])
        capsys.readouterr()
        with one_cpu() if cpus == "one" else nullcontext():
            code = run(argv)
        err = capsys.readouterr().err.splitlines()
        outcome[cpus] = code, [line for line in err
                               if line.startswith("data error:")]
        assert_nothing_left(out, [])
    # the failing write forks once; `clean` also forks once to read raw.csv
    assert len(pids) == (2 if command == "clean" else 1)
    assert outcome["one"] == outcome["all"] == (
        2, ["data error: [Errno 28] No space left on device"])


def interrupted(*args):
    raise KeyboardInterrupt


@forks
@pytest.mark.parametrize("fault, code, errors", [
    (no_space, 2, ["data error: [Errno 28] No space left on device"]),
    (interrupted, "interrupted", [])], ids=["full_disk", "interrupt"])
@pytest.mark.parametrize("command", ["generate", "clean"])
def test_a_failed_rewrite_keeps_the_old_bytes(tmp_path, monkeypatch, capsys,
                                              command, fault, code, errors):
    raw = tmp_path / "raw.csv"
    ingest.write_csv(dataset(2 * R + 1), raw)
    name = "cleaned.csv" if command == "clean" else "data.csv"
    for cpus in ("one", "all"):
        out = tmp_path / cpus
        out.mkdir()
        argv = (["generate", "--n", str(2 * R + 1), "--out", str(out / name)]
                if command == "generate"
                else ["clean", "--data", str(raw), "--out", str(out)])
        assert run(argv) == 0
        old = {path: path.read_bytes() for path in out.iterdir()}
        with monkeypatch.context() as patch:
            patch.setattr(ingest, "_format_rows", fault)
            capsys.readouterr()
            with one_cpu() if cpus == "one" else nullcontext():
                try:
                    got = run(argv)
                except KeyboardInterrupt:
                    got = "interrupted"
        assert got == code
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("data error:")] == errors
        assert {path: path.read_bytes() for path in out.iterdir()} == old
        assert_nothing_left(out, [path.name for path in old])


@forks
def test_an_interrupt_kills_and_reaps_every_child(tmp_path, monkeypatch):
    ds = dataset(2 * R + 1)
    caller, real = os.getpid(), ingest._format_rows

    def interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # a child still running when the caller stops
        return real(*args)

    monkeypatch.setattr(ingest, "_format_rows", interrupted)
    pids = counting_forks(monkeypatch)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        ingest.write_csv(ds, tmp_path / "d.csv")
    assert time.monotonic() - began < 30
    assert len(pids) == 1
    assert_nothing_left(tmp_path, [])
