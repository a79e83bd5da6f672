"""Each prep stage holds one copy of the data.

`tracemalloc` counts the bytes that a stage allocates, NumPy arrays
included. Its peak may be 1.25 times the array bytes of the dataset the
stage makes or reads, plus a fixed allowance; `clean` that drops no row
and `write_csv` make no copy and may hold 0.25 times. At 20,000 records on
NumPy 2.4 the peaks were generate 1.21 (its validation included), load_csv
1.20, clean 0.13 without a dropped row and 1.06 with drops, and write_csv
0.22, times those bytes; before the stages worked in one copy the first
four were 2.88, 2.01, 2.44 and 2.32. `tracemalloc` sees only the process it
runs in, so `load_csv` and `write_csv` are each bounded once pinned to one
CPU, where they fork no child, and once more for the caller's share when
they fork.
"""

import os
import tracemalloc

import numpy as np
import pytest

from agroyield import fork, ingest, schema, synthgen
from helpers import one_cpu

RECORDS = 20_000
ONE_COPY, NO_COPY = 1.25, 0.25
ALLOWANCE = 1 << 20  # bytes: blocks, parse buffers and small arrays


def array_bytes(dataset) -> int:
    return sum(a.nbytes for a in (dataset.district, dataset.crop,
                                  dataset.year, dataset.values, dataset.row))


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_within_bound(peak, dataset, factor=ONE_COPY):
    bound = factor * array_bytes(dataset) + ALLOWANCE
    assert peak <= bound, f"peak {peak} bytes > bound {bound:.0f}"


@pytest.fixture(scope="module")
def generated():
    return traced_peak(synthgen.generate,
                       synthgen.GenConfig(n_records=RECORDS, seed=3))


@pytest.fixture(scope="module")
def loaded(generated, tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "raw.csv"
    ingest.write_csv(generated[0], path)
    # pinned to one CPU, so that the traced process parses every line
    with one_cpu():
        return traced_peak(ingest.load_csv, path)


def test_generate_holds_one_copy(generated):
    dataset, peak = generated
    assert_within_bound(peak, dataset)


def test_load_csv_holds_one_copy(loaded):
    dataset, peak = loaded
    assert len(dataset) == RECORDS
    assert_within_bound(peak, dataset)


forks = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="one CPU in the affinity mask: load_csv and write_csv never fork")


@forks
def test_forked_load_csv_holds_one_copy_in_the_caller(loaded):
    # forked children parse the other ranges, which tracemalloc cannot see
    assert len(fork.ranges(RECORDS, RECORDS // ingest._FORK_ROWS)) > 1
    dataset, peak = traced_peak(ingest.load_csv, loaded[0].source)
    assert len(dataset) == RECORDS
    assert_within_bound(peak, dataset)


def test_write_csv_copies_nothing(generated, tmp_path):
    # pinned to one CPU, so that the traced process formats every row
    dataset = generated[0]
    with one_cpu():
        _, peak = traced_peak(ingest.write_csv, dataset, tmp_path / "d.csv")
    assert_within_bound(peak, dataset, NO_COPY)


@forks
def test_forked_write_csv_copies_nothing_in_the_caller(generated, tmp_path):
    # forked children format the other ranges, which tracemalloc cannot see
    dataset = generated[0]
    assert len(fork.ranges(len(dataset),
                           len(dataset) // ingest._FORK_ROWS)) > 1
    _, peak = traced_peak(ingest.write_csv, dataset, tmp_path / "d.csv")
    assert_within_bound(peak, dataset, NO_COPY)


def test_clean_without_a_drop_gathers_nothing(loaded):
    dataset = loaded[0]
    cleaned, peak = traced_peak(ingest.clean, dataset)
    assert len(cleaned) == len(dataset)
    assert_within_bound(peak, dataset, NO_COPY)


def test_clean_with_drops_gathers_once(loaded):
    raw = loaded[0]
    rows = np.r_[np.arange(len(raw)), np.arange(0, len(raw), 10)]
    values = raw.values[rows]
    values[5, schema.VALUE_COLUMNS.index("humidity")] = 150.0
    dirty = ingest.Dataset(raw.district[rows], raw.crop[rows], raw.year[rows],
                           values, np.arange(len(rows)))
    cleaned, peak = traced_peak(ingest.clean, dirty)
    assert len(cleaned) == len(raw) - 1
    assert [r for r, why in cleaned.cleaning_log if why == "duplicate"] \
        == list(range(len(raw), len(rows)))
    assert_within_bound(peak, dirty)
