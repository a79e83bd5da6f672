"""High-level training pipeline shared by the CLI and experiment scripts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ingest
from .errors import TooFewRecords
from .models import Model, variant_spec
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
    normalizer: ingest.Normalizer
    x_train: np.ndarray  # (n_train, 46), normalized
    y_train: np.ndarray  # (n_train,), normalized yield


def split_crop(dataset: ingest.Dataset, crop: Crop, train_ratio: float,
               seed: int) -> tuple:
    """One crop's records, split 80/20-style into (train, test) datasets
    with a seed derived from `seed` and the crop."""
    rows = np.flatnonzero(dataset.crop == crop.value)
    if len(rows) < 2:
        raise TooFewRecords(
            f"crop {crop.name} has {len(rows)} records; need at least 2")
    subset = dataset.take(rows, f"{dataset.source}[{crop.name}]")
    split_seed = derive_seed(seed, f"split.{crop.name}")
    return ingest.split(
        subset, ingest.SplitConfig(train_ratio=train_ratio, seed=split_seed))


def prepare_crop_split(dataset: ingest.Dataset, crop: Crop,
                       train_ratio: float, seed: int) -> CropSplit:
    """Split one crop's records and fit the normalizer on the train part."""
    train, test = split_crop(dataset, crop, train_ratio, seed)
    x = ingest.feature_matrix(train)
    y = ingest.target_vector(train)
    normalizer = ingest.fit_normalizer(x, y)
    return CropSplit(
        crop=crop, test=test, normalizer=normalizer,
        x_train=ingest.normalize_features(normalizer, x),
        y_train=ingest.normalize_target(normalizer, y),
    )


def train_variant(variant: str, crop_split: CropSplit, seed: int,
                  hyper: Hyperparams = Hyperparams()) -> Model:
    """Fit one model variant on a prepared crop split."""
    spec = variant_spec(variant)
    train_seed = derive_seed(seed, f"train.{variant}.{crop_split.crop.name}")
    payload, history = spec.fit(crop_split.x_train, crop_split.y_train,
                                hyper, train_seed)
    return Model(variant=variant, payload=payload,
                 normalizer=crop_split.normalizer, crop=crop_split.crop,
                 history=history)
