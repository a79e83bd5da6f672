"""`report` trains its crops on every CPU of the affinity mask once its
training work reaches `cli._FORK_WORK` row passes: the caller trains the
first range of crops and one forked child each other range. The files
under `--out`, the log lines and the exit code must be those of one
process, a failed child or fork must not change them, and no child or
part file may outlive the call."""

import errno
import hashlib
import os
import time
from contextlib import nullcontext
from unittest import mock

import pytest

from agroyield import cli, fork, pipeline
from agroyield.cli import run
from agroyield.errors import DivergedLoss
from agroyield.schema import Crop
from helpers import assert_nothing_left, counting_forks, forks, one_cpu

# one child per CPU after the first, at most one per crop
CHILDREN = min(len(os.sched_getaffinity(0)), len(Crop)) - 1
TRAINING = ("--seed", "3", "--epochs", "3", "--trees", "3")
# the fewest cleaned rows whose report with TRAINING forks: its 3 epochs
# and 3 trees pass each row 6 times
FORK_AT = -(-cli._FORK_WORK // 6)
EVALUATED = [f"evaluated {crop.name}" for crop in Crop]
REPORTED = ["models", "report.json", "report.md"]


def generated(directory, *how):
    path = directory / "d.csv"
    assert run(["generate", *how, "--seed", "3", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A valid CSV of 120 rows of each crop, whose report forks."""
    assert 6 * 120 >= FORK_AT
    return generated(tmp_path_factory.mktemp("data"), "--n", "720")


def outcome(capsys, data, out, one=False):
    """What `report` of `data` into `out` gives: the exit code, the stderr
    lines after the configuration and the sha256 of every file under `out`;
    run in one process when `one`."""
    capsys.readouterr()
    with one_cpu() if one else nullcontext():
        code = run(["report", "--data", str(data), *TRAINING,
                    "--out", str(out)])
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("effective config:")]
    files = {p.relative_to(out).as_posix():
             hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return code, err, files


@forks
def test_forked_report_writes_the_one_process_bytes(data, tmp_path,
                                                    monkeypatch, capsys):
    want = outcome(capsys, data, tmp_path / "one", one=True)
    pids = counting_forks(monkeypatch)
    got = outcome(capsys, data, tmp_path / "all")
    assert len(pids) == CHILDREN
    assert got == want
    assert want[:2] == (0, EVALUATED) and len(want[2]) == 26
    assert_nothing_left(tmp_path / "all", REPORTED)


def test_training_work_counts_row_passes():
    assert cli._training_work(420, {"epochs": 3, "trees": 3}) == 2520
    # unset epochs count as the network's most
    assert cli._training_work(1000, {"epochs": None, "trees": 30}) == 230_000
    # the 420-row coverage report that perfbench traces stays in process
    assert cli._training_work(420, {"epochs": 3, "trees": 3}) < cli._FORK_WORK


@pytest.mark.parametrize("rows, children", [
    ("coverage", 0), (FORK_AT - 1, 0), (FORK_AT, CHILDREN)])
def test_report_forks_from_fork_work_on(tmp_path, monkeypatch, capsys,
                                        rows, children):
    how = ["--coverage"] if rows == "coverage" else ["--n", str(rows)]
    path = generated(tmp_path, *how)
    pids = counting_forks(monkeypatch)
    code, err, _ = outcome(capsys, path, tmp_path / "out")
    assert (code, err) == (0, EVALUATED)
    assert len(pids) == children


@forks
@pytest.mark.parametrize("where", ["a child", "every process"])
def test_a_training_error_gives_the_one_process_outcome(
        data, tmp_path, monkeypatch, capsys, where):
    caller, real = os.getpid(), pipeline.train_variant

    def diverges(variant, crop_split, *args):
        if (crop_split.crop is Crop.Jute and variant == "forest"
                and (where == "every process" or os.getpid() != caller)):
            raise DivergedLoss("training MSE became nan")
        return real(variant, crop_split, *args)

    monkeypatch.setattr(pipeline, "train_variant", diverges)
    want = outcome(capsys, data, tmp_path / "one", one=True)
    pids = counting_forks(monkeypatch)
    got = outcome(capsys, data, tmp_path / "all")
    assert len(pids) == CHILDREN
    assert got == want
    if where == "a child":  # the caller trains the child's range again
        assert want[:2] == (0, EVALUATED)
        assert_nothing_left(tmp_path / "all", REPORTED)
    else:  # Jute's first two models are saved, as one process saves them
        assert want[:2] == (3, EVALUATED[:-1] + [
            "training failure: training MSE became nan"])
        assert sorted(f for f in want[2] if "jute" in f) == [
            "models/jute_dnn.json", "models/jute_svm.json"]
        assert len(want[2]) == 22
        assert_nothing_left(tmp_path / "all", ["models"])


@forks
@pytest.mark.parametrize("crop", [Crop.AmanRice, Crop.Jute])
def test_a_crop_that_cannot_be_split_fails_after_the_crops_before_it(
        tmp_path, monkeypatch, capsys, crop):
    """AmanRice is in the caller's range, Jute in a child's."""
    lines = generated(tmp_path, "--n", "1000").read_bytes().splitlines(True)
    name = crop.name.lower().encode()
    rows = [line for line in lines if line.split(b",")[2] == name]
    path = tmp_path / "one_row.csv"
    path.write_bytes(b"".join(line for line in lines
                              if line not in rows[1:]))
    assert len(lines) - len(rows) >= FORK_AT
    want = outcome(capsys, path, tmp_path / "one", one=True)
    pids = counting_forks(monkeypatch)
    got = outcome(capsys, path, tmp_path / "all")
    assert len(pids) == CHILDREN
    assert got == want
    assert want[:2] == (2, EVALUATED[:crop.value] + [
        f"data error: crop {crop.name} has 1 records; need at least 2"])
    assert len(want[2]) == 4 * crop.value


@forks
@pytest.mark.parametrize("cannot", ["fork", "make a part file"])
def test_a_range_that_cannot_be_forked_is_trained_in_process(
        data, tmp_path, monkeypatch, capsys, cannot):
    want = outcome(capsys, data, tmp_path / "one", one=True)
    if cannot == "fork":
        failing = mock.Mock(side_effect=BlockingIOError(errno.EAGAIN, "busy"))
        monkeypatch.setattr(os, "fork", failing)
    else:
        failing = mock.Mock(side_effect=PermissionError(errno.EACCES, "no"))
        monkeypatch.setattr(fork.tempfile, "TemporaryFile", failing)
    assert outcome(capsys, data, tmp_path / "all") == want
    assert failing.call_count == CHILDREN
    assert_nothing_left(tmp_path / "all", REPORTED)


@forks
def test_an_interrupt_kills_and_reaps_every_child(data, tmp_path,
                                                  monkeypatch):
    caller = os.getpid()

    def interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)  # a child still training when the caller stops
        raise AssertionError("a child outlived the interrupt")

    monkeypatch.setattr(pipeline, "train_variant", interrupted)
    pids = counting_forks(monkeypatch)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run(["report", "--data", str(data), *TRAINING,
             "--out", str(tmp_path / "out")])
    assert time.monotonic() - began < 30
    assert len(pids) == CHILDREN
    assert_nothing_left(tmp_path / "out", ["models"])


@forks
@pytest.mark.skipif(fork._openblas() is None, reason="no OpenBLAS found")
def test_forked_work_runs_on_one_blas_thread(tmp_path):
    set_threads, get_threads = fork._openblas()
    threads = get_threads()

    def child_threads(part):
        part.write(bytes([get_threads()]))

    set_threads(2)
    try:
        with fork.forked([child_threads], tmp_path) as children:
            assert get_threads() == 1
            assert fork.exited(children[0])
            children[0][1].seek(0)
            assert children[0][1].read() == bytes([1])
        assert get_threads() == 2
        with fork.forked([], tmp_path):  # nothing forks, nothing changes
            assert get_threads() == 2
    finally:
        set_threads(threads)
