"""Shared test helpers: valid records, tiny datasets and their encoding, a
crop split's scaled train part, a FlatTree walker, a time limit, a one-CPU
pin, a skip marker for one CPU and the checks of the forking CSV stages
and `report`."""

import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from agroyield import ingest, schema
from agroyield.schema import AgroRecord, Crop, District

# values from the published sample rows (Dhaka 2008)
TABLE1_DHAKA_2008 = dict(avg_rainfall=2385.0, humidity=71.0,
                         urea=25967.0, tsp=8262.0, dap=1573.0)

# a valid record's values, by `schema.VALUE_COLUMNS` name, except the yield
# (keyword `yield_t_ha`), the production and the district indicators
_DEFAULTS = dict(
    **TABLE1_DHAKA_2008, max_temp=34.0, min_temp=12.0, mp=2000.0,
    **dict(zip(schema.LAND_FRAC_COLUMNS, (1.0,) + (0.0,) * 5)),
    **dict(zip(schema.SOIL_FRAC_COLUMNS, (1.0,) + (0.0,) * 18)),
    soil_moisture=3.0, soil_texture=3.0, soil_consistency=3.0,
    soil_reaction=6.5, soil_structure=3.0, soil_composition=3.0,
    area=1000.0, yield_t_ha=2.0)


def make_record(district=District.Dhaka, year=2008, crop=Crop.AusRice,
                **values) -> AgroRecord:
    """A valid record, with `values` overriding the defaults by column
    name. The indicators follow the district, and the production defaults
    to yield * area; an unknown name raises TypeError."""
    unknown = values.keys() - _DEFAULTS.keys() - {"production"}
    if unknown:
        raise TypeError(f"make_record() got unknown values {sorted(unknown)}")
    named = {**_DEFAULTS, **values}
    named.setdefault("production", named["yield_t_ha"] * named["area"])
    named.update(zip(schema.INDICATOR_COLUMNS,
                     schema.encode_district(district)))
    named["yield"] = named["yield_t_ha"]
    return AgroRecord(district, year, crop,
                      tuple(named[name] for name in schema.VALUE_COLUMNS))


def record_value(record, name):
    """`record`'s value in the `schema.VALUE_COLUMNS` column `name`."""
    return record.values[schema.VALUE_INDEX[name]]


def leaf_value(tree, row):
    """The leaf value that `row` reaches in a FlatTree, walked node by node."""
    i = 0
    while tree.feature[i] >= 0:
        i = i + 1 if row[tree.feature[i]] <= tree.value[i] else tree.right[i]
    return tree.value[i]


def dataset_of(records, source="<memory>") -> ingest.Dataset:
    """A dataset whose rows are `records`, in order."""
    return ingest.Dataset(
        district=np.array([r.district.value for r in records], dtype=np.int64),
        crop=np.array([r.crop.value for r in records], dtype=np.int64),
        year=np.array([schema.year64(r.year) for r in records],
                      dtype=np.int64),
        values=np.array([r.values for r in records],
                        dtype=float).reshape(len(records), 47),
        row=np.arange(len(records)), source=source)


def encoded(records):
    """(x, y): the raw feature matrix and yields of `records`, as
    `evaluation.evaluate` and `compare` take them."""
    dataset = dataset_of(records)
    return ingest.feature_matrix(dataset), ingest.target_vector(dataset)


def scaled_train(crop_split):
    """The raw train part of a `pipeline.CropSplit`, min-max scaled as
    `models.fit_model` scales it: (normalizer, x, y)."""
    norm = ingest.fit_normalizer(crop_split.x_train, crop_split.y_train)
    return (norm, ingest.normalize_features(norm, crop_split.x_train),
            ingest.normalize_target(norm, crop_split.y_train))


class Hung(Exception):
    """Raised by `time_limit`; no package or OS error, so nothing catches it."""


@contextmanager
def time_limit(seconds):
    """Interrupt the block with `Hung` if it runs longer than `seconds`.

    A per-example deadline that also stops an endless loop, which a
    deadline checked after the call returns cannot.
    """
    def expire(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def one_cpu():
    """Pin this process to one CPU of its affinity mask for the block, so
    `ingest.write_csv` formats every row, `ingest.load_csv` parses every
    line and `report` trains every crop in process; the mask is restored
    afterwards."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


forks = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="one CPU in the affinity mask: nothing forks")


def counting_forks(monkeypatch):
    """The pids that `os.fork` returns to this process from now on."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_nothing_left(directory, names):
    """No child of this process is left, reaped or not, and `directory`
    holds exactly the files `names`."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(directory)) == sorted(names)
