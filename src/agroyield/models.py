"""The model-family table, the trained-predictor wrapper and its JSON envelope.

`VARIANTS` maps each model family's name to how it is fitted, how it
predicts and how its payload is stored; its order is the row order of the
report. Every trained model is stored as
    {"schema_version": 1, "variant": ..., "normalizer": ..., "payload": ...}
so the CLI loads any model file the same way. Predictions are returned in
original units (t/ha): the network's and the SVM's raw outputs are clamped
to [0, 1] before denormalization so reported yields are never negative.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from . import baselines, ingest, nn, schema
from .errors import DimensionMismatch, MalformedConfig

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Variant:
    label: str              # method name in the report tables
    fit: Callable           # (x, y, hyper, seed) -> (payload, history or None)
    predict_raw: Callable   # (payload, x_norm) -> normalized predictions
    to_dict: Callable       # payload -> JSON-ready dict
    from_dict: Callable     # dict -> payload


@dataclass
class Model:
    variant: str
    payload: object
    normalizer: ingest.Normalizer
    crop: schema.Crop | None = None
    history: nn.LossHistory | None = None  # set by training, not serialized


def _default(value, fallback):
    return fallback if value is None else value


# The entries below reach nn and baselines through the module attribute at
# call time, so a function replaced there (e.g. by a tracer) is the one run.

def _fit_dnn(x, y, hyper, seed):
    default_sizes = (x.shape[1],) + nn.DEFAULT_LAYER_SIZES[1:]
    net = nn.init_network(_default(hyper.layer_sizes, default_sizes),
                          hyper.hidden_activation, seed=seed)
    cfg = nn.TrainConfig(
        learning_rate=_default(hyper.learning_rate, 0.01),
        batch_size=hyper.batch_size,
        max_epochs=_default(hyper.epochs, 200),
        patience=hyper.patience,
        seed=seed,
    )
    return nn.train(net, x, y, cfg)


def _dnn_to_dict(p: nn.Network) -> dict:
    return {
        "layer_sizes": list(p.layer_sizes),
        "hidden_activation": p.hidden_activation,
        "weights": [w.tolist() for w in p.weights],
        "biases": [b.tolist() for b in p.biases],
    }


def _dnn_from_dict(d: dict) -> nn.Network:
    return nn.Network(
        layer_sizes=tuple(d["layer_sizes"]),
        weights=[np.array(w, dtype=float) for w in d["weights"]],
        biases=[np.array(b, dtype=float) for b in d["biases"]],
        hidden_activation=d["hidden_activation"],
    )


def _fit_svm(x, y, hyper, seed):
    return baselines.train_svm(
        x, y, epsilon=hyper.svm_epsilon, c=hyper.svm_c,
        learning_rate=_default(hyper.learning_rate, 0.1),
        epochs=_default(hyper.epochs, 500)), None


def _fit_forest(x, y, hyper, seed):
    return baselines.train_forest(x, y, baselines.ForestConfig(
        n_trees=hyper.trees, seed=seed)), None


def _tree_to_dict(node: baselines.TreeNode) -> dict:
    if node.is_leaf:
        return {"value": node.value, "n_samples": node.n_samples}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_to_dict(node.left),
        "right": _tree_to_dict(node.right),
    }


def _tree_from_dict(d: dict) -> baselines.TreeNode:
    if "value" in d:
        return baselines.TreeNode(value=d["value"], n_samples=d["n_samples"])
    return baselines.TreeNode(
        feature=d["feature"],
        threshold=d["threshold"],
        left=_tree_from_dict(d["left"]),
        right=_tree_from_dict(d["right"]),
    )


def _forest_to_dict(p: baselines.ForestModel) -> dict:
    return {**asdict(p.config), "trees": [_tree_to_dict(t) for t in p.trees]}


def _forest_from_dict(d: dict) -> baselines.ForestModel:
    cfg = baselines.ForestConfig(
        **{f.name: d[f.name] for f in fields(baselines.ForestConfig)})
    return baselines.ForestModel(
        trees=[_tree_from_dict(t) for t in d["trees"]], config=cfg)


def _fit_logistic(x, y, hyper, seed):
    return baselines.train_logistic(
        x, y, learning_rate=_default(hyper.learning_rate, 0.5),
        epochs=_default(hyper.epochs, 500)), None


VARIANTS = {
    "dnn": Variant(
        label="Deep Neural Network(DNN)",
        fit=_fit_dnn,
        predict_raw=lambda p, x: np.clip(nn.forward_batch(p, x)[0], 0.0, 1.0),
        to_dict=_dnn_to_dict,
        from_dict=_dnn_from_dict,
    ),
    "svm": Variant(
        label="Support Vector Machine(SVM)",
        fit=_fit_svm,
        predict_raw=lambda p, x: np.clip(p.predict_raw(x), 0.0, 1.0),
        to_dict=lambda p: {"weights": p.weights.tolist(), "bias": p.bias,
                           "epsilon": p.epsilon, "c": p.c},
        from_dict=lambda d: baselines.SvmModel(
            weights=np.array(d["weights"], dtype=float), bias=d["bias"],
            epsilon=d["epsilon"], c=d["c"]),
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
            weights=np.array(d["weights"], dtype=float), bias=d["bias"]),
    ),
}


def variant_spec(name) -> Variant:
    """The table entry for a variant name; MalformedConfig if there is none."""
    try:
        return VARIANTS[name]
    except (KeyError, TypeError):
        raise MalformedConfig(f"unknown model variant {name!r}; expected "
                              f"one of {', '.join(VARIANTS)}") from None


def predict_model(model: Model, x_norm) -> np.ndarray:
    """Predict yields (t/ha) from normalized 46-feature rows."""
    spec = variant_spec(model.variant)
    x = np.atleast_2d(np.asarray(x_norm, dtype=float))
    if x.shape[1] != len(model.normalizer.column_mins):
        raise DimensionMismatch(
            f"expected {len(model.normalizer.column_mins)} features, "
            f"got {x.shape[1]}")
    raw = spec.predict_raw(model.payload, x)
    return ingest.denormalize_target(model.normalizer, raw)


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
        variant = doc["variant"]
        spec = variant_spec(variant)
        norm = ingest.Normalizer(
            column_mins=np.array(doc["normalizer"]["column_mins"], dtype=float),
            column_maxs=np.array(doc["normalizer"]["column_maxs"], dtype=float),
            target_min=doc["normalizer"]["target_min"],
            target_max=doc["normalizer"]["target_max"],
        )
        payload = spec.from_dict(doc["payload"])
        crop_name = doc.get("crop")
        crop = None if crop_name is None else schema.Crop[crop_name]
    except (KeyError, ValueError, TypeError, RecursionError) as exc:
        raise MalformedConfig(f"bad model file: {exc}") from exc
    return Model(variant=variant, payload=payload, normalizer=norm, crop=crop)


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_json(model) + "\n")


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedConfig(f"model file {path} is not UTF-8: {exc}") from exc
    return model_from_json(text)
