"""Shared test helpers: valid records, tiny datasets, a crop split's scaled
train part, a FlatTree walker, a time limit and a one-CPU pin."""

import os
import signal
from contextlib import contextmanager

import numpy as np

from agroyield import ingest, schema
from agroyield.schema import (
    AgroRecord,
    Crop,
    District,
    Fertilizer,
    SoilProperty,
    Weather,
)

# values from the published sample rows (Dhaka 2008)
TABLE1_DHAKA_2008 = dict(avg_rainfall=2385.0, humidity=71.0,
                         urea=25967.0, tsp=8262.0, dap=1573.0)


def make_record(**over) -> AgroRecord:
    yield_t_ha = over.pop("yield_t_ha", 2.0)
    area = over.pop("area", 1000.0)
    fields = dict(
        district=District.Dhaka,
        year=2008,
        crop=Crop.AusRice,
        weather=Weather(avg_rainfall=2385.0, max_temp=34.0, min_temp=12.0,
                        humidity=71.0),
        fertilizer=Fertilizer(urea=25967.0, tsp=8262.0, dap=1573.0, mp=2000.0),
        land_fractions=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        soil_fractions=(1.0,) + (0.0,) * 18,
        soil_props=SoilProperty(moisture=3.0, texture=3.0, consistency=3.0,
                                reaction=6.5, structure=3.0, composition=3.0),
        area=area,
        production=yield_t_ha * area,
        yield_t_ha=yield_t_ha,
    )
    fields.update(over)
    return AgroRecord(**fields)


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
        values=np.array([schema.record_values(r) for r in records],
                        dtype=float).reshape(len(records), 47),
        row=np.arange(len(records)), source=source)


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
    `ingest.write_csv` formats every row in process; the mask is restored
    afterwards."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)
