"""The model-family table, the trained-predictor wrapper and its JSON envelope.

`VARIANTS` maps each model family's name to how it is fitted, how it
predicts and how its payload is stored; its order is the row order of the
report. Every trained model is stored as
    {"schema_version": 2, "variant": ..., "crop": ..., "normalizer": ...,
     "payload": ...}
so the CLI loads any model file the same way. A forest payload holds the
`ForestConfig` fields and, per tree, the `baselines.FlatTree` lists
`feature`, `value`, `right` and `n_samples`, so loading builds no object per
node. Schema 1 differs only there: each tree is nested node dicts, which
`_tree_from_v1` flattens into the same lists.

`model_from_json` checks every file before it is used: arrays have 46
finite entries, network weight shapes match `layer_sizes` (46 ... 1), and
every walk through a tree moves forward to a leaf, with a bounded number
of NumPy operations per forest. Anything else raises MalformedConfig.

Predictions are returned in original units (t/ha): the network's and the
SVM's raw outputs are clamped to [0, 1] before denormalization so reported
yields are never negative; a non-finite prediction raises
NonFinitePrediction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from itertools import chain
from typing import Callable

import numpy as np

from . import baselines, ingest, nn, schema
from .errors import DimensionMismatch, MalformedConfig, NonFinitePrediction
from .schema import json_number, json_numbers

SCHEMA_VERSION = 2
N_FEATURES = len(schema.schema_columns())


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


def _set(**values) -> dict:
    """The keyword arguments that were given a value, so that the trainer's
    own default stands for each one that was not."""
    return {key: value for key, value in values.items() if value is not None}


# The entries below reach nn and baselines through the module attribute at
# call time, so a function replaced there (e.g. by a tracer) is the one run.

def _fit_dnn(x, y, hyper, seed):
    cfg = nn.TrainConfig(seed=seed, **_set(
        learning_rate=hyper.learning_rate, batch_size=hyper.batch_size,
        max_epochs=hyper.epochs, patience=hyper.patience))
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
        raise MalformedConfig(f"dnn layer_sizes must be positive integers "
                              f"from {N_FEATURES} to 1, got {sizes!r}")
    shapes = list(zip(sizes[1:], sizes[:-1]))  # (fan_out, fan_in)
    weights, biases = d["weights"], d["biases"]
    if (type(weights) is not list or len(weights) != len(shapes)
            or type(biases) is not list or len(biases) != len(shapes)):
        raise MalformedConfig("dnn weights and biases must have one entry "
                              "per layer")
    for w, (fan_out, fan_in) in zip(weights, shapes):
        if (type(w) is not list or len(w) != fan_out
                or any(type(row) is not list or len(row) != fan_in
                       for row in w)):
            raise MalformedConfig(f"dnn weights must have shape "
                                  f"({fan_out}, {fan_in})")
    if d["hidden_activation"] not in nn.HIDDEN_ACTIVATIONS:
        raise MalformedConfig(f"unknown dnn hidden_activation "
                              f"{d['hidden_activation']!r}")
    return nn.Network(
        layer_sizes=tuple(sizes),
        weights=[json_numbers(list(chain.from_iterable(w)), "dnn weights")
                 .reshape(shape) for w, shape in zip(weights, shapes)],
        biases=[json_numbers(b, "dnn biases", fan_out)
                for b, (fan_out, _) in zip(biases, shapes)],
        hidden_activation=d["hidden_activation"],
    )


def _fit_svm(x, y, hyper, seed):
    return baselines.train_svm(x, y, **_set(
        learning_rate=hyper.learning_rate, epochs=hyper.epochs)), None


def _fit_forest(x, y, hyper, seed):
    return baselines.train_forest(x, y, baselines.ForestConfig(
        seed=seed, **_set(n_trees=hyper.trees))), None


def _forest_to_dict(p: baselines.ForestModel) -> dict:
    return {**asdict(p.config), "trees": [vars(t) for t in p.flat_trees]}


def _check_trees(trees: list) -> None:
    """MalformedConfig unless each tree's lists are valid and every walk
    through a tree moves forward to a leaf.

    The lists of all trees are checked together as flat arrays: a bounded
    number of NumPy operations per forest, no Python loop per node.
    """
    sizes = [len(t.feature) for t in trees]
    for t, n in zip(trees, sizes):
        if n == 0 or any(type(c) is not list or len(c) != n
                         for c in (t.feature, t.value, t.right, t.n_samples)):
            raise MalformedConfig("forest tree lists must be non-empty "
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
        raise MalformedConfig(
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
            raise MalformedConfig(f"forest {name} must be {what}, "
                                  f"got {value!r}")
    cfg = baselines.ForestConfig(**values)
    trees = [baselines.FlatTree(**t) for t in d["trees"]]
    if len(trees) != cfg.n_trees:
        raise MalformedConfig(f"forest has {len(trees)} trees, "
                              f"n_trees is {cfg.n_trees!r}")
    _check_trees(trees)
    return baselines.ForestModel(flat_trees=trees, config=cfg)


def _tree_from_v1(root: dict) -> dict:
    """A schema-1 tree of nested node dicts as schema-2 preorder lists.

    Schema 1 stores no count at an internal node; it is the sum of its
    children's, as the grower (`baselines._grow`) records it.
    """
    tree = {"feature": [], "value": [], "right": [], "n_samples": []}

    def visit(node):
        i = len(tree["feature"])
        leaf = "value" in node
        tree["feature"].append(-1 if leaf else node["feature"])
        tree["value"].append(node["value"] if leaf else node["threshold"])
        tree["right"].append(-1)
        tree["n_samples"].append(node["n_samples"] if leaf else 0)
        if not leaf:
            visit(node["left"])
            tree["right"][i] = right = len(tree["feature"])
            visit(node["right"])
            tree["n_samples"][i] = (tree["n_samples"][i + 1]
                                    + tree["n_samples"][right])

    visit(root)
    return tree


def _fit_logistic(x, y, hyper, seed):
    return baselines.train_logistic(x, y, **_set(
        learning_rate=hyper.learning_rate, epochs=hyper.epochs)), None


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
    yields = ingest.denormalize_target(model.normalizer, raw)
    if not np.isfinite(yields).all():
        raise NonFinitePrediction(
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
            raise MalformedConfig("a model file must be a JSON object")
        version = doc.get("schema_version")
        if type(version) is not int or version not in (1, SCHEMA_VERSION):
            raise MalformedConfig(f"unsupported model schema_version "
                                  f"{version!r}; expected 1 or 2")
        variant = doc["variant"]
        spec = variant_spec(variant)
        d = doc["normalizer"]
        norm = ingest.Normalizer(
            column_mins=json_numbers(d["column_mins"],
                                     "normalizer column_mins", N_FEATURES),
            column_maxs=json_numbers(d["column_maxs"],
                                     "normalizer column_maxs", N_FEATURES),
            target_min=json_number(d["target_min"], "normalizer target_min"),
            target_max=json_number(d["target_max"], "normalizer target_max"),
        )
        payload = doc["payload"]
        if version == 1 and variant == "forest":
            payload = {**payload,
                       "trees": [_tree_from_v1(t) for t in payload["trees"]]}
        payload = spec.from_dict(payload)
        crop_name = doc.get("crop")
        crop = None if crop_name is None else schema.Crop[crop_name]
    except (KeyError, ValueError, TypeError, OverflowError,
            RecursionError) as exc:
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
