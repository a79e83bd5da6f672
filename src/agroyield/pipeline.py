"""Per-crop splits, made here alone and once per command, as row indices
and as encoded arrays, and model training for the CLI's `train`,
`evaluate` and `report` commands, with the settings the CLI resolved."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ingest
from .errors import AgroYieldError
from .models import Model, fit_model
from .rng import SplitMix64, derive_seed
from .schema import Crop


@dataclass
class CropSplit:
    crop: Crop
    x_train: np.ndarray  # (n_train, 46), raw features
    y_train: np.ndarray  # (n_train,), yields in t/ha
    x_test: np.ndarray   # (n_test, 46)
    y_test: np.ndarray   # (n_test,)


def split(n: int, train_ratio: float, seed: int) -> tuple:
    """Seeded shuffle split of rows 0, ..., n - 1, n >= 2, into (train,
    test) int64 index arrays; train gets the first floor(n * ratio) of the
    order. `split_crop` checks n and the CLI the ratio."""
    order = np.array(SplitMix64(seed).permutation(n), dtype=np.int64)
    n_train = int(n * train_ratio)
    return order[:n_train], order[n_train:]


def split_crop(dataset: ingest.Dataset, crop: Crop, train_ratio: float,
               seed: int) -> tuple:
    """The (train, test) indices into `dataset` of one crop's rows, split
    80/20-style with a seed derived from `seed` and the crop."""
    rows = np.flatnonzero(dataset.crop == crop.value)
    if len(rows) < 2:
        raise AgroYieldError(
            f"crop {crop.name} has {len(rows)} records; need at least 2")
    train, test = split(len(rows), train_ratio,
                        derive_seed(seed, f"split.{crop.name}"))
    return rows[train], rows[test]


def encode_rows(dataset: ingest.Dataset, rows: np.ndarray) -> tuple:
    """(x, y): the raw (n, 46) feature matrix and the yields (t/ha) of
    `dataset`'s rows `rows`."""
    part = dataset.take(rows)
    return (ingest.feature_matrix(part.year, part.values),
            ingest.target_vector(part))


def split_trainable(dataset: ingest.Dataset, crop: Crop,
                    train_ratio: float, seed: int) -> tuple:
    """`split_crop`'s (train, test) indices; AgroYieldError if the ratio
    leaves no row to train on."""
    train_rows, test_rows = split_crop(dataset, crop, train_ratio, seed)
    if len(train_rows) == 0:  # every row of the crop is a test row
        raise AgroYieldError(
            f"crop {crop.name} has {len(test_rows)} records; train ratio "
            f"{train_ratio} leaves none to train on")
    return train_rows, test_rows


def prepare_crop_split(dataset: ingest.Dataset, crop: Crop,
                       train_rows: np.ndarray,
                       test_rows: np.ndarray) -> CropSplit:
    """Encode one crop's train and test rows (`split_trainable`'s indices)
    once, for every variant trained and scored on them."""
    return CropSplit(crop, *encode_rows(dataset, train_rows),
                     *encode_rows(dataset, test_rows))


def train_variant(variant: str, crop_split: CropSplit, seed: int,
                  settings: dict | None = None) -> Model:
    """Fit one model variant on a prepared crop split with `settings`, the
    training fields of the CLI's resolved config (`models.fit_model`)."""
    train_seed = derive_seed(seed, f"train.{variant}.{crop_split.crop.name}")
    return fit_model(variant, crop_split.x_train, crop_split.y_train,
                     train_seed, settings or {}, crop_split.crop)
