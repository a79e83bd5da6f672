import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroyield import baselines, ingest, nn, pipeline, synthgen
from agroyield.errors import (
    AgroYieldError,
    DimensionMismatch,
    MalformedConfig,
    NonFinitePrediction,
)
from agroyield.models import (
    VARIANTS,
    Model,
    load_model,
    model_from_json,
    model_to_json,
    predict_model,
    save_model,
)
from agroyield.schema import Crop
from helpers import time_limit


@pytest.fixture(scope="module")
def crop_split():
    ds = synthgen.generate(synthgen.GenConfig(n_records=300, seed=17,
                                              crops=(Crop.Wheat,)))
    return pipeline.prepare_crop_split(ds, Crop.Wheat, 0.8, 17)


@pytest.fixture(scope="module")
def trained_models(crop_split):
    hyper = pipeline.Hyperparams(epochs=5, trees=3)
    return {variant: pipeline.train_variant(variant, crop_split, 17, hyper)
            for variant in VARIANTS}


class TestVariantTable:
    def test_report_row_order(self):
        assert list(VARIANTS) == ["dnn", "svm", "forest", "logistic"]

    def test_unknown_variant_is_malformed_config(self, crop_split):
        with pytest.raises(MalformedConfig):
            pipeline.train_variant("quantum", crop_split, 17)
        model = Model("quantum", None, crop_split.normalizer)
        with pytest.raises(MalformedConfig):
            predict_model(model, np.zeros((1, 46)))
        with pytest.raises(MalformedConfig):
            model_to_json(model)

    def test_only_the_network_keeps_a_history(self, trained_models):
        for variant, model in trained_models.items():
            assert (model.history is not None) == (variant == "dnn")
        assert len(trained_models["dnn"].history.train_mse) == 5

    def test_zero_epochs_is_not_replaced_by_the_default(self, crop_split):
        model = pipeline.train_variant("dnn", crop_split, 17,
                                       pipeline.Hyperparams(epochs=0))
        assert model.history.train_mse == []


class TestPredictModel:
    def test_all_variants_predict_finite_yields(self, crop_split,
                                                trained_models):
        x = ingest.normalize_features(
            crop_split.normalizer, ingest.feature_matrix(crop_split.test))
        for model in trained_models.values():
            preds = predict_model(model, x)
            assert preds.shape == (len(crop_split.test.records),)
            assert np.all(np.isfinite(preds))
            assert np.all(preds >= 0)

    def test_dimension_mismatch(self, trained_models):
        with pytest.raises(DimensionMismatch):
            predict_model(trained_models["dnn"], np.zeros((1, 10)))

    def test_logistic_zero_model_denormalizes_midpoint(self):
        norm = ingest.Normalizer(column_mins=np.zeros(46),
                                 column_maxs=np.ones(46),
                                 target_min=0.0, target_max=10.0)
        model = Model("logistic", baselines.LogisticModel(np.zeros(46), 0.0),
                      norm)
        assert predict_model(model, np.zeros((1, 46)))[0] == pytest.approx(5.0)

    def test_svm_zero_model_clamps_then_denormalizes(self):
        norm = ingest.Normalizer(column_mins=np.zeros(46),
                                 column_maxs=np.ones(46),
                                 target_min=2.0, target_max=4.0)
        model = Model("svm", baselines.SvmModel(np.zeros(46), -0.3,
                                                epsilon=0.05, c=1.0), norm)
        # raw -0.3 clamps to 0 then denormalizes to target_min
        assert predict_model(model, np.zeros((1, 46)))[0] == pytest.approx(2.0)

    def test_constant_forest_predicts_denormalized_leaf(self):
        norm = ingest.Normalizer(column_mins=np.zeros(46),
                                 column_maxs=np.ones(46),
                                 target_min=1.0, target_max=3.0)
        leaf = baselines.FlatTree(feature=[-1], value=[0.5], right=[-1],
                                  n_samples=[4])
        forest = baselines.ForestModel(flat_trees=[leaf, leaf],
                                       config=baselines.ForestConfig(n_trees=2))
        model = Model("forest", forest, norm)
        assert predict_model(model, np.ones((1, 46)))[0] == pytest.approx(2.0)

    def test_non_finite_prediction_raises(self):
        # finite bounds whose span overflows to infinity
        norm = ingest.Normalizer(column_mins=np.zeros(46),
                                 column_maxs=np.ones(46),
                                 target_min=-1e308, target_max=1e308)
        model = Model("logistic", baselines.LogisticModel(np.zeros(46), 0.0),
                      norm)
        with pytest.raises(NonFinitePrediction), np.errstate(over="ignore"):
            predict_model(model, np.zeros((1, 46)))


class TestSerialization:
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_round_trip_preserves_predictions(self, variant, crop_split,
                                              trained_models, tmp_path):
        model = trained_models[variant]
        path = tmp_path / f"{variant}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.variant == variant
        assert loaded.crop is Crop.Wheat
        x = ingest.normalize_features(
            crop_split.normalizer, ingest.feature_matrix(crop_split.test))
        np.testing.assert_array_equal(predict_model(model, x),
                                      predict_model(loaded, x))

    def test_serialization_is_deterministic(self, trained_models):
        a = model_to_json(trained_models["dnn"])
        b = model_to_json(trained_models["dnn"])
        assert a == b

    def test_garbage_raises_malformed_config(self):
        with pytest.raises(MalformedConfig):
            model_from_json('{"variant": "dnn"}')
        with pytest.raises(MalformedConfig):
            model_from_json('{"variant": "quantum", "normalizer": {}, '
                            '"payload": {}}')


DATA = Path(__file__).parent / "data"


def _v1_fixture_recipe():
    """The data, forest and probe rows behind tests/data/forest_v1.json."""
    rng = np.random.default_rng(505)
    x = rng.integers(0, 4, size=(80, 46)) / 3.0
    y = 0.5 * x[:, 0] + 0.3 * x[:, 5] + 0.1 * rng.uniform(size=80)
    forest = baselines.train_forest(x, y, baselines.ForestConfig(
        n_trees=3, max_depth=4, min_leaf=3, seed=5))
    norm = ingest.Normalizer(column_mins=np.zeros(46),
                             column_maxs=np.ones(46),
                             target_min=1.0, target_max=3.0)
    probes = np.vstack([x, rng.uniform(size=(40, 46))])
    return Model("forest", forest, norm, Crop.Jute), probes


class TestSchemaV1:
    """forest_v1.json is a schema-1 forest file; the predictions beside it
    were computed when that format was current."""

    def test_v1_forest_predicts_exactly_as_before(self):
        model = load_model(DATA / "forest_v1.json")
        _, probes = _v1_fixture_recipe()
        want = json.loads((DATA / "forest_v1_predictions.json").read_text())
        assert predict_model(model, probes).tolist() == want

    def test_v1_forest_loads_as_the_same_forest_trained_now(self):
        trained, _ = _v1_fixture_recipe()
        loaded = load_model(DATA / "forest_v1.json")
        assert model_to_json(loaded) == model_to_json(trained)


# ------------------------------------------------------------------ fuzzing

@pytest.fixture(scope="module")
def small_docs(crop_split):
    """A small valid model file of each variant, parsed, plus the schema-1
    forest fixture."""
    hyper = pipeline.Hyperparams(epochs=2, trees=2)
    models = {variant: pipeline.train_variant(variant, crop_split, 17, hyper)
              for variant in VARIANTS}
    models["dnn"].payload = nn.init_network((46, 3, 1), seed=17)
    docs = {variant: json.loads(model_to_json(model))
            for variant, model in models.items()}
    docs["forest-v1"] = json.loads((DATA / "forest_v1.json").read_text())
    return docs


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


def _nodes(value, path=()):
    """(path, value) of every value in a parsed JSON document."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _mutate(data, doc):
    """Apply one drawn mutation to `doc` in place."""
    nodes = list(_nodes(doc))
    kinds = ["resize", "replace", "schema_version"]
    trees = doc["payload"].get("trees", [])
    if trees and isinstance(trees[0]["right"], list):  # schema 2
        kinds.append("right")
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "resize":
        path, old = data.draw(st.sampled_from(
            [(p, v) for p, v in nodes if isinstance(v, list)]), label="list")
        size = data.draw(st.integers(0, len(old) + 3).filter(
            lambda n: n != len(old)), label="size")
        new = old[:size] + [copy.deepcopy(old[i % len(old)]) if old
                            else data.draw(_JSON_VALUES)
                            for i in range(size - len(old))]
    elif kind == "replace":
        path, _ = data.draw(st.sampled_from(
            [(p, v) for p, v in nodes if type(v) in (int, float)]),
            label="number")
        new = data.draw(_JSON_VALUES, label="value")
    elif kind == "right":
        t = data.draw(st.integers(0, len(trees) - 1), label="tree")
        internal = [i for i, f in enumerate(trees[t]["feature"]) if f >= 0]
        if not internal:
            return
        i = data.draw(st.sampled_from(internal), label="node")
        path = ("payload", "trees", t, "right", i)
        new = data.draw(st.integers(0, i), label="backwards or self")
    else:
        path = ("schema_version",)
        new = data.draw(st.integers(-1, 4) | _JSON_VALUES, label="version")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new


# normalized rows: zeros, ones and uniform rows reach both sides of splits
_PROBES = np.vstack([np.zeros(46), np.ones(46),
                     np.random.default_rng(0).uniform(size=(30, 46))])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_model_file_loads_or_raises_package_error(small_docs, data):
    name = data.draw(st.sampled_from(sorted(small_docs)), label="file")
    doc = copy.deepcopy(small_docs[name])
    _mutate(data, doc)
    text = json.dumps(doc)
    with time_limit(10), np.errstate(all="ignore"):
        try:
            model = model_from_json(text)
            ingest.normalize_features(model.normalizer, np.zeros((1, 46)))
            preds = predict_model(model, _PROBES)
        except AgroYieldError:
            return
    assert preds.shape == (len(_PROBES),) and np.isfinite(preds).all()
