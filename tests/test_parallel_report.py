"""`report` trains its crops on every CPU of the affinity mask once its
training work reaches `cli._FORK_WORK` row passes: in `fork.each`, the
caller trains the first range of crops and one forked child each other
range, each crop split before any is trained and encoded where it is
trained. The files under `--out`, the log lines and the exit code must be
those of one process, a failed child or fork must not change them, and no
child or part file may outlive the call, also when the caller's loop over
`fork.each` raises."""

import errno
import hashlib
import os
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agroyield import cli, fork, ingest, models, pipeline, schema
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


# the crops the caller trains itself when the report forks
CALLER_CROPS = list(Crop)[slice(*fork.ranges(len(Crop), len(Crop))[0])]
FAMILIES = st.sampled_from(list(models.VARIANTS))
# (where DivergedLoss is raised, crop, family). A crop of a child's range
# is trained in the caller only when its child fails, so a failure in the
# caller alone is drawn for the caller's own crops.
FAILURES = st.one_of(
    st.tuples(st.just("the caller"), st.sampled_from(CALLER_CROPS), FAMILIES),
    st.tuples(st.sampled_from(["a child", "every process"]),
              st.sampled_from(list(Crop)), FAMILIES))


@forks
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(failure=FAILURES)
def test_a_training_error_anywhere_gives_the_one_process_outcome(
        data, monkeypatch, capsys, failure):
    where, crop, family = failure
    caller, real = os.getpid(), pipeline.train_variant

    def diverges(variant, crop_split, *args):
        here = "the caller" if os.getpid() == caller else "a child"
        if ((crop_split.crop, variant) == (crop, family)
                and where in (here, "every process")):
            raise DivergedLoss("training MSE became nan")
        return real(variant, crop_split, *args)

    with tempfile.TemporaryDirectory() as tmp, \
            monkeypatch.context() as patch:
        patch.setattr(pipeline, "train_variant", diverges)
        want = outcome(capsys, data, Path(tmp) / "one", one=True)
        pids = counting_forks(patch)
        got = outcome(capsys, data, Path(tmp) / "all")
        assert len(pids) == CHILDREN
        assert got == want
        assert want[0] == (0 if where == "a child" else 3)
        assert_nothing_left(Path(tmp) / "all",
                            REPORTED if want[0] == 0 else ["models"])


def one_row(path, crop):
    """`path` with only the first row of `crop` left: it cannot be split."""
    lines = path.read_bytes().splitlines(True)
    name = crop.name.lower().encode()
    rows = [line for line in lines if line.split(b",")[2] == name]
    path.write_bytes(b"".join(line for line in lines
                              if line not in rows[1:]))
    assert len(lines) - len(rows) >= FORK_AT
    return f"data error: crop {crop.name} has 1 records; need at least 2"


def zero_yields(path, crop):
    """`path` with every yield and production of `crop` set to 0, which
    `clean` keeps and which cannot be scored."""
    dataset = ingest.load_csv(path)
    rows = dataset.crop == crop.value
    for column in ("production", "yield"):
        dataset.values[rows, schema.VALUE_INDEX[column]] = 0.0
    ingest.write_csv(dataset, path)
    assert len(ingest.clean(ingest.load_csv(path))) == len(dataset)
    _, test = pipeline.split_crop(dataset, crop, 0.8, 3)  # TRAINING's seed
    return (f"data error: crop {crop.name} has {len(test)} of {len(test)} "
            f"test rows with a yield of at most 1e-09 t/ha; a scored yield "
            f"must be above it")


@forks
@pytest.mark.parametrize("crop, spoil", [
    (Crop.AmanRice, one_row), (Crop.Jute, one_row),
    (Crop.AmanRice, zero_yields), (Crop.Jute, zero_yields)], ids=[
        "Crop.AmanRice", "Crop.Jute",
        "Crop.AmanRice-zero_yields", "Crop.Jute-zero_yields"])
def test_report_checks_every_crop_before_training(
        tmp_path, monkeypatch, capsys, crop, spoil):
    """AmanRice would be in the caller's range, Jute in a child's. A crop
    that cannot be split or scored stops the report before it trains any
    crop or makes anything under `--out`, in one process and forked."""
    path = generated(tmp_path, "--n", "1000")
    error = spoil(path, crop)
    want = outcome(capsys, path, tmp_path / "one", one=True)
    pids = counting_forks(monkeypatch)
    got = outcome(capsys, path, tmp_path / "all")
    assert pids == []
    assert got == want == (2, [error], {})
    assert not (tmp_path / "all").exists()


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

    def blas_threads(item):
        yield item, get_threads()

    set_threads(2)
    try:
        with fork.each(blas_threads, ["caller", "child"], tmp_path) as got:
            assert get_threads() == 1
            assert list(got) == [("caller", 1), ("child", 1)]
        assert get_threads() == 2
        # one item forks nothing and changes nothing
        with fork.each(blas_threads, ["caller"], tmp_path) as got:
            assert list(got) == [("caller", 2)]
    finally:
        set_threads(threads)


@forks
def test_an_error_in_the_callers_loop_leaves_no_child_or_part_file(
        tmp_path, monkeypatch):
    """Leaving the block kills and reaps the children still running and
    closes their part files; cleanup that waited for the iterator to be
    collected would leave them."""
    caller = os.getpid()

    def run(item):
        if os.getpid() != caller:
            time.sleep(60)  # a child still running when the caller stops
        yield item

    parts, make = [], fork.tempfile.TemporaryFile

    def made(**kwargs):
        parts.append(make(**kwargs))
        return parts[-1]

    monkeypatch.setattr(fork.tempfile, "TemporaryFile", made)
    pids = counting_forks(monkeypatch)
    began = time.monotonic()
    with pytest.raises(OSError, match="No space left"):
        with fork.each(run, list(range(3)), tmp_path) as results:
            for _ in results:  # a failing write of what came in
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert time.monotonic() - began < 30
    assert len(pids) == 2
    assert_nothing_left(tmp_path, [])
    assert len(parts) == 2 and all(part.closed for part in parts)
