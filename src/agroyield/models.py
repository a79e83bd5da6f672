"""The model-family table, the min-max scaler, the trained-predictor
wrapper and its JSON envelope: the one module that knows a model file.

`VARIANTS` maps each model family's name to how it is fitted, how it
predicts and how its payload is stored; its order is the row order of the
report. Every trained model is stored as
    {"schema_version": 2, "variant": ..., "crop": ..., "normalizer": ...,
     "payload": ...}
so the CLI loads any model file the same way; any other schema_version is
refused. A forest payload holds the `ForestConfig` fields and, per tree,
the `baselines.FlatTree` lists `feature`, `value`, `right` and
`n_samples`, so loading builds no object per node.

`model_from_json` checks every file before it is used: arrays have 46
finite entries, network weight shapes match `layer_sizes` (46 ... 1), and
every walk through a tree moves forward to a leaf, with a bounded number
of NumPy operations per forest. Anything else raises AgroYieldError.

A model maps raw 46-feature rows to yields in t/ha. `fit_model` fits its
`Normalizer` (min-max scaling) on the raw train rows and yields, and
`predict_model` takes raw rows and scales them with it; no other module
scales rows for a model. Predictions are returned in original units
(t/ha): every family's raw output, a loaded forest's leaf outside [0, 1]
included, is clamped to [0, 1] before it is unscaled, so a yield lies in
the train yields' range; a non-finite prediction raises AgroYieldError.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from itertools import chain
from typing import Callable

import numpy as np

from . import baselines, nn, schema
from .errors import AgroYieldError
from .schema import N_FEATURES, json_number, json_numbers

SCHEMA_VERSION = 2
# district indicator columns pass through the scaling unchanged
_INDICATOR_MASK = np.array(
    [c in schema.INDICATOR_COLUMNS for c in schema.schema_columns()]
)


@dataclass(frozen=True)
class Variant:
    label: str              # method name in the report tables
    fit: Callable           # (x, y, settings, seed) -> (payload, history|None)
    predict_raw: Callable   # (payload, x_norm) -> normalized predictions
    to_dict: Callable       # payload -> JSON-ready dict
    from_dict: Callable     # dict -> payload


@dataclass
class Normalizer:
    """The min-max ranges of a model's raw train rows and yields: its
    file's "normalizer" section."""
    column_mins: np.ndarray  # (46,)
    column_maxs: np.ndarray  # (46,)
    target_min: float
    target_max: float

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> Normalizer:
        """Ranges of a raw (n, 46) train matrix and its yield vector."""
        if len(x) == 0:
            raise AgroYieldError("cannot fit a normalizer on an empty dataset")
        return cls(
            column_mins=x.min(axis=0),
            column_maxs=x.max(axis=0),
            target_min=float(y.min()),
            target_max=float(y.max()),
        )

    def scale(self, x: np.ndarray) -> np.ndarray:
        """x' = clip((x - min) / (max - min), 0, 1) of float64 rows (n, 46);
        constant columns -> 0; district indicator columns pass through."""
        span = self.column_maxs - self.column_mins
        safe_span = np.where(span > 0, span, 1.0)
        out = np.clip((x - self.column_mins) / safe_span, 0.0, 1.0)
        out[:, span == 0] = 0.0
        out[:, _INDICATOR_MASK] = x[:, _INDICATOR_MASK]
        return out

    def scale_target(self, y: np.ndarray) -> np.ndarray:
        """y' = (y - min) / (max - min) of float64 yields; constant -> 0."""
        span = self.target_max - self.target_min
        if span == 0:
            return np.zeros_like(y)
        return (y - self.target_min) / span

    def unscale_target(self, raw) -> np.ndarray:
        """Yields (t/ha) of raw model outputs: each is clamped to [0, 1],
        then mapped onto [target_min, target_max]. An overflowed span is
        left to give a non-finite yield."""
        span = self.target_max - self.target_min
        out = np.clip(raw, 0.0, 1.0) * span + self.target_min
        # rounding can carry a raw 1 one ulp past target_max
        return np.minimum(out, self.target_max) if np.isfinite(span) else out


@dataclass
class Model:
    variant: str
    payload: object
    normalizer: Normalizer
    crop: schema.Crop | None = None
    history: nn.LossHistory | None = None  # set by training, not serialized


def _set(settings: dict, **names) -> dict:
    """The trainer arguments of `names` (argument="CLI field") whose field
    `settings` sets; the trainer's own default stands for the others."""
    return {arg: settings[key] for arg, key in names.items()
            if settings.get(key) is not None}


# The entries below reach nn and baselines through the module attribute at
# call time, so a function replaced there (e.g. by a tracer) is the one run.

def _fit_dnn(x, y, settings, seed):
    cfg = nn.TrainConfig(seed=seed, **_set(
        settings, learning_rate="lr", batch_size="batch_size",
        max_epochs="epochs", patience="patience"))
    return nn.train(nn.init_network(seed=seed), x, y, cfg)


def _dnn_to_dict(p: nn.Network) -> dict:
    return {
        "layer_sizes": list(p.layer_sizes),
        "hidden_activation": p.hidden_activation,
        "weights": [w.tolist() for w in p.weights],
        "biases": [b.tolist() for b in p.biases],
    }


def _dnn_from_dict(d: dict) -> nn.Network:
    sizes = d["layer_sizes"]
    if (type(sizes) is not list or len(sizes) < 2
            or any(type(n) is not int or n < 1 for n in sizes)
            or sizes[0] != N_FEATURES or sizes[-1] != 1):
        raise AgroYieldError(f"dnn layer_sizes must be positive integers "
                             f"from {N_FEATURES} to 1, got {sizes!r}")
    shapes = list(zip(sizes[1:], sizes[:-1]))  # (fan_out, fan_in)
    weights, biases = d["weights"], d["biases"]
    if (type(weights) is not list or len(weights) != len(shapes)
            or type(biases) is not list or len(biases) != len(shapes)):
        raise AgroYieldError("dnn weights and biases must have one entry "
                             "per layer")
    for w, (fan_out, fan_in) in zip(weights, shapes):
        if (type(w) is not list or len(w) != fan_out
                or any(type(row) is not list or len(row) != fan_in
                       for row in w)):
            raise AgroYieldError(f"dnn weights must have shape "
                                 f"({fan_out}, {fan_in})")
    if (type(d["hidden_activation"]) is not str
            or d["hidden_activation"] not in nn.ACTIVATIONS):
        raise AgroYieldError(f"unknown dnn hidden_activation "
                             f"{d['hidden_activation']!r}")
    return nn.Network(
        layer_sizes=tuple(sizes),
        weights=[json_numbers(list(chain.from_iterable(w)), "dnn weights")
                 .reshape(shape) for w, shape in zip(weights, shapes)],
        biases=[json_numbers(b, "dnn biases", fan_out)
                for b, (fan_out, _) in zip(biases, shapes)],
        hidden_activation=d["hidden_activation"],
    )


def _fit_svm(x, y, settings, seed):
    return baselines.train_svm(x, y, **_set(
        settings, learning_rate="lr", epochs="epochs")), None


def _fit_forest(x, y, settings, seed):
    return baselines.train_forest(x, y, baselines.ForestConfig(
        seed=seed, **_set(settings, n_trees="trees"))), None


def _forest_to_dict(p: baselines.ForestModel) -> dict:
    return {**asdict(p.config), "trees": [vars(t) for t in p.flat_trees]}


def _check_trees(trees: list) -> None:
    """AgroYieldError unless each tree's lists are valid and every walk
    through a tree moves forward to a leaf.

    The lists of all trees are checked together as flat arrays: a bounded
    number of NumPy operations per forest, no Python loop per node.
    """
    sizes = [len(t.feature) for t in trees]
    for t, n in zip(trees, sizes):
        if n == 0 or any(type(c) is not list or len(c) != n
                         for c in (t.feature, t.value, t.right, t.n_samples)):
            raise AgroYieldError("forest tree lists must be non-empty "
                                 "lists of equal length")

    def column(name, integer):
        return json_numbers(list(chain.from_iterable(getattr(t, name)
                                                     for t in trees)),
                            f"forest tree {name}", integer=integer)

    feature, right = column("feature", True), column("right", True)
    column("value", False)
    column("n_samples", True)
    size = np.repeat(sizes, sizes)
    index = np.arange(len(feature)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    internal = feature >= 0
    ok = np.where(internal, (index + 1 < right) & (right < size), right == -1)
    if not (ok.all() and feature.min() >= -1 and feature.max() < N_FEATURES):
        raise AgroYieldError(
            f"forest tree has a feature outside [-1, {N_FEATURES}) or a right "
            f"child that does not point forward within its tree")


def _forest_from_dict(d: dict) -> baselines.ForestModel:
    values = {f.name: d[f.name] for f in fields(baselines.ForestConfig)}
    for name, value in values.items():
        # `type` keeps bools out of the integer fields; a forest's seed is
        # derived as an unsigned 64-bit value, so no int64 bound applies
        kind, what = ((bool, "true or false") if name == "bootstrap"
                      else (int, "an integer"))
        if type(value) is not kind:
            raise AgroYieldError(f"forest {name} must be {what}, "
                                 f"got {value!r}")
    cfg = baselines.ForestConfig(**values)
    trees = [baselines.FlatTree(**t) for t in d["trees"]]
    if len(trees) != cfg.n_trees:
        raise AgroYieldError(f"forest has {len(trees)} trees, "
                             f"n_trees is {cfg.n_trees!r}")
    _check_trees(trees)
    return baselines.ForestModel(flat_trees=trees, config=cfg)


def _fit_logistic(x, y, settings, seed):
    return baselines.train_logistic(x, y, **_set(
        settings, learning_rate="lr", epochs="epochs")), None


VARIANTS = {
    "dnn": Variant(
        label="Deep Neural Network(DNN)",
        fit=_fit_dnn,
        predict_raw=lambda p, x: nn.forward_batch(p, x)[0],
        to_dict=_dnn_to_dict,
        from_dict=_dnn_from_dict,
    ),
    "svm": Variant(
        label="Support Vector Machine(SVM)",
        fit=_fit_svm,
        predict_raw=lambda p, x: p.predict_raw(x),
        to_dict=lambda p: {"weights": p.weights.tolist(), "bias": p.bias,
                           "epsilon": p.epsilon, "c": p.c},
        from_dict=lambda d: baselines.SvmModel(
            weights=json_numbers(d["weights"], "svm weights", N_FEATURES),
            bias=json_number(d["bias"], "svm bias"),
            epsilon=json_number(d["epsilon"], "svm epsilon"),
            c=json_number(d["c"], "svm c")),
    ),
    "forest": Variant(
        label="Random Forest",
        fit=_fit_forest,
        predict_raw=lambda p, x: baselines.predict_forest_batch(p, x),
        to_dict=_forest_to_dict,
        from_dict=_forest_from_dict,
    ),
    "logistic": Variant(
        label="Logistic Regression",
        fit=_fit_logistic,
        predict_raw=lambda p, x: p.predict_raw(x),
        to_dict=lambda p: {"weights": p.weights.tolist(), "bias": p.bias},
        from_dict=lambda d: baselines.LogisticModel(
            weights=json_numbers(d["weights"], "logistic weights", N_FEATURES),
            bias=json_number(d["bias"], "logistic bias")),
    ),
}


def variant_spec(name) -> Variant:
    """The table entry for a variant name; AgroYieldError if there is none."""
    try:
        return VARIANTS[name]
    except (KeyError, TypeError):
        raise AgroYieldError(f"unknown model variant {name!r}; expected "
                             f"one of {', '.join(VARIANTS)}") from None


def fit_model(variant: str, x: np.ndarray, y: np.ndarray, seed: int,
              settings: dict, crop: schema.Crop | None) -> Model:
    """Fit one model of `variant` on raw (n, 46) train rows `x` and their
    yields `y` (t/ha): the min-max scaling is fitted on them first, and the
    model is trained on the scaled rows. `settings` holds training fields
    as `cli.resolve_config` gives them (`epochs`, `lr`, `trees`,
    `batch_size`, `patience`): each `_fit_*` entry maps them to its
    trainer's arguments, and one missing or None leaves its default."""
    normalizer = Normalizer.fit(x, y)
    spec = variant_spec(variant)
    payload, history = spec.fit(normalizer.scale(x),
                                normalizer.scale_target(y), settings, seed)
    return Model(variant=variant, payload=payload, normalizer=normalizer,
                 crop=crop, history=history)


def predict_model(model: Model, x) -> np.ndarray:
    """Predict yields (t/ha) from raw 46-feature rows."""
    spec = variant_spec(model.variant)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != len(model.normalizer.column_mins):
        raise AgroYieldError(
            f"expected {len(model.normalizer.column_mins)} features, "
            f"got {x.shape[1]}")
    yields = model.normalizer.unscale_target(
        spec.predict_raw(model.payload, model.normalizer.scale(x)))
    if not np.isfinite(yields).all():
        raise AgroYieldError(
            f"{model.variant} model predicts a non-finite yield")
    return yields


# ------------------------------------------------------------ serialization

def model_to_json(model: Model) -> str:
    spec = variant_spec(model.variant)
    norm = model.normalizer
    doc = {
        "schema_version": SCHEMA_VERSION,
        "variant": model.variant,
        "crop": None if model.crop is None else model.crop.name,
        "normalizer": {
            "column_mins": norm.column_mins.tolist(),
            "column_maxs": norm.column_maxs.tolist(),
            "target_min": norm.target_min,
            "target_max": norm.target_max,
        },
        "payload": spec.to_dict(model.payload),
    }
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> Model:
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise AgroYieldError("a model file must be a JSON object")
        version = doc.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise AgroYieldError(f"unsupported model schema_version "
                                 f"{version!r}; expected {SCHEMA_VERSION}")
        variant = doc["variant"]
        spec = variant_spec(variant)
        d = doc["normalizer"]
        norm = Normalizer(
            column_mins=json_numbers(d["column_mins"],
                                     "normalizer column_mins", N_FEATURES),
            column_maxs=json_numbers(d["column_maxs"],
                                     "normalizer column_maxs", N_FEATURES),
            target_min=json_number(d["target_min"], "normalizer target_min"),
            target_max=json_number(d["target_max"], "normalizer target_max"),
        )
        payload = spec.from_dict(doc["payload"])
        crop_name = doc.get("crop")
        crop = None if crop_name is None else schema.Crop[crop_name]
    except (KeyError, ValueError, TypeError, OverflowError,
            RecursionError) as exc:
        raise AgroYieldError(f"bad model file: {exc}") from exc
    return Model(variant=variant, payload=payload, normalizer=norm, crop=crop)


def save_model(model: Model, path) -> None:
    schema.write_file(path, [(model_to_json(model) + "\n").encode()])


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise AgroYieldError(f"model file {path} is not UTF-8: {exc}") from exc
    return model_from_json(text)
