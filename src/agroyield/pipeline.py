"""Per-crop train/test splits and model training for the CLI's `train`
and `report` commands (and `evaluate`'s test split)."""

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
    test: ingest.Dataset
    x_train: np.ndarray  # (n_train, 46), raw features
    y_train: np.ndarray  # (n_train,), yields in t/ha


def split_crop(dataset: ingest.Dataset, crop: Crop, train_ratio: float,
               seed: int) -> tuple:
    """One crop's records, split 80/20-style into (train, test) datasets
    with a seed derived from `seed` and the crop."""
    rows = np.flatnonzero(dataset.crop == crop.value)
    if len(rows) < 2:
        raise AgroYieldError(
            f"crop {crop.name} has {len(rows)} records; need at least 2")
    subset = dataset.take(rows, f"{dataset.source}[{crop.name}]")
    split_seed = derive_seed(seed, f"split.{crop.name}")
    return ingest.split(
        subset, ingest.SplitConfig(train_ratio=train_ratio, seed=split_seed))


def prepare_crop_split(dataset: ingest.Dataset, crop: Crop,
                       train_ratio: float, seed: int) -> CropSplit:
    """Split one crop's records and encode the train part once, for every
    variant trained on it."""
    train, test = split_crop(dataset, crop, train_ratio, seed)
    return CropSplit(crop=crop, test=test,
                     x_train=ingest.feature_matrix(train),
                     y_train=ingest.target_vector(train))


def train_variant(variant: str, crop_split: CropSplit, seed: int,
                  hyper: Hyperparams = Hyperparams()) -> Model:
    """Fit one model variant on a prepared crop split."""
    train_seed = derive_seed(seed, f"train.{variant}.{crop_split.crop.name}")
    return fit_model(variant, crop_split.x_train, crop_split.y_train,
                     train_seed, hyper, crop_split.crop)
