"""High-level training pipeline shared by the CLI and experiment scripts."""

from __future__ import annotations

from dataclasses import dataclass

from . import ingest
from .errors import TooFewRecords
from .models import Model, variant_spec
from .rng import derive_seed
from .schema import Crop


@dataclass(frozen=True)
class Hyperparams:
    epochs: int | None = None       # None -> per-variant default
    learning_rate: float | None = None
    trees: int = 100
    layer_sizes: tuple | None = None  # hidden part defaults to (64, 32, 16)
    hidden_activation: str = "relu"
    batch_size: int = 32
    patience: int = 20
    svm_epsilon: float = 0.05
    svm_c: float = 1.0


@dataclass
class CropSplit:
    crop: Crop
    train: ingest.Dataset
    test: ingest.Dataset
    normalizer: ingest.Normalizer
    train_data: ingest.NormalizedData


def prepare_crop_split(dataset: ingest.Dataset, crop: Crop,
                       train_ratio: float, seed: int) -> CropSplit:
    """Filter one crop, split 80/20-style, fit the normalizer on train."""
    records = [r for r in dataset.records if r.crop is crop]
    if len(records) < 2:
        raise TooFewRecords(
            f"crop {crop.name} has {len(records)} records; need at least 2")
    subset = ingest.Dataset(records=records,
                            source=f"{dataset.source}[{crop.name}]")
    split_seed = derive_seed(seed, f"split.{crop.name}")
    train, test = ingest.split(
        subset, ingest.SplitConfig(train_ratio=train_ratio, seed=split_seed))
    normalizer = ingest.fit_normalizer(train)
    return CropSplit(
        crop=crop, train=train, test=test, normalizer=normalizer,
        train_data=ingest.apply_normalizer(normalizer, train),
    )


def train_variant(variant: str, crop_split: CropSplit, seed: int,
                  hyper: Hyperparams = Hyperparams()) -> Model:
    """Fit one model variant on a prepared crop split."""
    spec = variant_spec(variant)
    train_seed = derive_seed(seed, f"train.{variant}.{crop_split.crop.name}")
    payload, history = spec.fit(crop_split.train_data.x, crop_split.train_data.y,
                                hyper, train_seed)
    return Model(variant=variant, payload=payload,
                 normalizer=crop_split.normalizer, crop=crop_split.crop,
                 history=history)
