"""Per-crop splits, as row indices and as encoded arrays, and model
training for the CLI's `train`, `evaluate` and `report` commands."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ingest
from .errors import AgroYieldError
from .models import Model, fit_model
from .rng import derive_seed
from .schema import Crop


@dataclass(frozen=True)
class Hyperparams:
    """The training settings the CLI takes. None leaves the default of the
    trainer, which is the one place each default is written."""
    epochs: int | None = None
    learning_rate: float | None = None
    trees: int | None = None
    batch_size: int | None = None
    patience: int | None = None


@dataclass
class CropSplit:
    crop: Crop
    x_train: np.ndarray  # (n_train, 46), raw features
    y_train: np.ndarray  # (n_train,), yields in t/ha
    x_test: np.ndarray   # (n_test, 46)
    y_test: np.ndarray   # (n_test,)


def split_crop(dataset: ingest.Dataset, crop: Crop, train_ratio: float,
               seed: int) -> tuple:
    """The (train, test) indices into `dataset` of one crop's rows, split
    80/20-style with a seed derived from `seed` and the crop."""
    rows = np.flatnonzero(dataset.crop == crop.value)
    if len(rows) < 2:
        raise AgroYieldError(
            f"crop {crop.name} has {len(rows)} records; need at least 2")
    train, test = ingest.split(len(rows), train_ratio,
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
                       train_ratio: float, seed: int) -> CropSplit:
    """Split one crop's rows with a train row (`split_trainable`) and
    encode each part once, for every variant trained and scored on it."""
    train_rows, test_rows = split_trainable(dataset, crop, train_ratio, seed)
    return CropSplit(crop, *encode_rows(dataset, train_rows),
                     *encode_rows(dataset, test_rows))


def train_variant(variant: str, crop_split: CropSplit, seed: int,
                  hyper: Hyperparams = Hyperparams()) -> Model:
    """Fit one model variant on a prepared crop split."""
    train_seed = derive_seed(seed, f"train.{variant}.{crop_split.crop.name}")
    return fit_model(variant, crop_split.x_train, crop_split.y_train,
                     train_seed, hyper, crop_split.crop)
