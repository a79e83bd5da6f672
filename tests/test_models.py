import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroyield import baselines, nn, pipeline, schema, synthgen
from agroyield.errors import AgroYieldError
from agroyield.models import (
    VARIANTS,
    Model,
    Normalizer,
    fit_model,
    load_model,
    model_from_json,
    model_to_json,
    predict_model,
    save_model,
)
from agroyield.schema import Crop
from helpers import scaled_train, time_limit


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
        unknown = "unknown model variant 'quantum'"
        with pytest.raises(AgroYieldError, match=unknown):
            pipeline.train_variant("quantum", crop_split, 17)
        model = Model("quantum", None, scaled_train(crop_split)[0])
        with pytest.raises(AgroYieldError, match=unknown):
            predict_model(model, np.zeros((1, 46)))
        with pytest.raises(AgroYieldError, match=unknown):
            model_to_json(model)

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_an_empty_train_part_is_refused(self, variant):
        # the normalizer's check is the one check of a non-empty train part
        with pytest.raises(AgroYieldError, match="cannot fit a normalizer "
                                                 "on an empty dataset"):
            fit_model(variant, np.empty((0, 46)), np.empty(0), 17,
                      pipeline.Hyperparams(epochs=1, trees=1), Crop.Wheat)

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
        for model in trained_models.values():
            preds = predict_model(model, crop_split.x_test)
            assert preds.shape == (len(crop_split.y_test),)
            assert np.all(np.isfinite(preds))
            assert np.all(preds >= 0)

    def test_dimension_mismatch(self, trained_models):
        with pytest.raises(AgroYieldError,
                           match="expected 46 features, got 10"):
            predict_model(trained_models["dnn"], np.zeros((1, 10)))

    def test_logistic_zero_model_denormalizes_midpoint(self):
        norm = Normalizer(column_mins=np.zeros(46),
                          column_maxs=np.ones(46),
                          target_min=0.0, target_max=10.0)
        model = Model("logistic", baselines.LogisticModel(np.zeros(46), 0.0),
                      norm)
        assert predict_model(model, np.zeros((1, 46)))[0] == pytest.approx(5.0)

    def test_svm_zero_model_clamps_then_denormalizes(self):
        norm = Normalizer(column_mins=np.zeros(46),
                          column_maxs=np.ones(46),
                          target_min=2.0, target_max=4.0)
        model = Model("svm", baselines.SvmModel(np.zeros(46), -0.3,
                                                epsilon=0.05, c=1.0), norm)
        # raw -0.3 clamps to 0 then denormalizes to target_min
        assert predict_model(model, np.zeros((1, 46)))[0] == pytest.approx(2.0)

    def test_constant_forest_predicts_denormalized_leaf(self):
        norm = Normalizer(column_mins=np.zeros(46),
                          column_maxs=np.ones(46),
                          target_min=1.0, target_max=3.0)
        leaf = baselines.FlatTree(feature=[-1], value=[0.5], right=[-1],
                                  n_samples=[4])
        forest = baselines.ForestModel(flat_trees=[leaf, leaf],
                                       config=baselines.ForestConfig(n_trees=2))
        model = Model("forest", forest, norm)
        assert predict_model(model, np.ones((1, 46)))[0] == pytest.approx(2.0)

    def test_forest_leaves_outside_the_unit_range_are_clamped(self):
        norm = Normalizer(column_mins=np.zeros(46),
                          column_maxs=np.ones(46),
                          target_min=1.0, target_max=3.0)
        # feature 0 at most 0.5 reaches the leaf 1.5, else the leaf -0.5
        tree = baselines.FlatTree(feature=[0, -1, -1], value=[0.5, 1.5, -0.5],
                                  right=[2, -1, -1], n_samples=[2, 1, 1])
        forest = baselines.ForestModel(flat_trees=[tree],
                                       config=baselines.ForestConfig(n_trees=1))
        model = Model("forest", forest, norm)
        x = np.zeros((2, 46))
        x[1, 0] = 1.0
        for m in (model, model_from_json(model_to_json(model))):
            assert predict_model(m, x).tolist() == [3.0, 1.0]

    def test_rows_are_raw_and_scaled_by_the_model(self):
        maxs = np.ones(46)
        maxs[0] = 10.0
        norm = Normalizer(column_mins=np.zeros(46), column_maxs=maxs,
                          target_min=0.0, target_max=10.0)
        weights = np.zeros(46)
        weights[0] = 1.0
        model = Model("logistic", baselines.LogisticModel(weights, 0.0), norm)
        row = np.zeros((1, 46))
        row[0, 0] = 10.0  # the top of column 0's range, scaled to 1
        assert predict_model(model, row)[0] == pytest.approx(
            10.0 / (1.0 + np.exp(-1.0)))

    def test_non_finite_prediction_raises(self):
        # finite bounds whose span overflows to infinity
        norm = Normalizer(column_mins=np.zeros(46),
                          column_maxs=np.ones(46),
                          target_min=-1e308, target_max=1e308)
        model = Model("logistic", baselines.LogisticModel(np.zeros(46), 0.0),
                      norm)
        with (pytest.raises(AgroYieldError, match="non-finite yield"),
              np.errstate(over="ignore")):
            predict_model(model, np.zeros((1, 46)))


# train yields as `clean` keeps them (finite, at least 0); raw outputs of any
# family, a loaded forest's leaves or an infinity included
_TRAIN_YIELDS = st.lists(st.floats(0.0, 1e12), min_size=1, max_size=20)
_RAW_OUTPUTS = st.lists(st.floats(allow_nan=False), min_size=1, max_size=20)


def _target_scaler(yields):
    """The normalizer fitted on `yields` (features do not matter here)."""
    return Normalizer.fit(np.zeros((len(yields), 46)), np.array(yields))


@given(_TRAIN_YIELDS, _RAW_OUTPUTS)
def test_unscaled_outputs_lie_in_the_train_yield_range(yields, raw):
    out = _target_scaler(yields).unscale_target(np.array(raw))
    assert (out >= min(yields)).all() and (out <= max(yields)).all()


@given(st.floats(0.0, 1e12), st.integers(1, 20), _RAW_OUTPUTS)
def test_a_constant_train_yield_comes_back(value, n, raw):
    norm = _target_scaler([value] * n)
    assert (norm.scale_target(np.full(n, value)) == 0.0).all()
    assert (norm.unscale_target(np.array(raw)) == value).all()


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
        np.testing.assert_array_equal(predict_model(model, crop_split.x_test),
                                      predict_model(loaded, crop_split.x_test))

    def test_serialization_is_deterministic(self, trained_models):
        a = model_to_json(trained_models["dnn"])
        b = model_to_json(trained_models["dnn"])
        assert a == b

    def test_garbage_raises_malformed_config(self):
        with pytest.raises(AgroYieldError, match="unsupported model schema"):
            model_from_json('{"variant": "dnn"}')
        with pytest.raises(AgroYieldError, match="unsupported model schema"):
            model_from_json('{"variant": "quantum", "normalizer": {}, '
                            '"payload": {}}')


DATA = Path(__file__).parent / "data"


def _v1_fixture_recipe():
    """The data, forest and probe rows behind tests/data/forest_v2.json."""
    rng = np.random.default_rng(505)
    x = rng.integers(0, 4, size=(80, 46)) / 3.0
    y = 0.5 * x[:, 0] + 0.3 * x[:, 5] + 0.1 * rng.uniform(size=80)
    forest = baselines.train_forest(x, y, baselines.ForestConfig(
        n_trees=3, max_depth=4, min_leaf=3, seed=5))
    norm = Normalizer(column_mins=np.zeros(46),
                      column_maxs=np.ones(46),
                      target_min=1.0, target_max=3.0)
    probes = np.vstack([x, rng.uniform(size=(40, 46))])
    return Model("forest", forest, norm, Crop.Jute), probes


class TestSchemaV1:
    """forest_v2.json is a forest file first saved as schema 1 and rewritten
    as schema 2; the predictions beside it were computed from the schema-1
    file when that format was current."""

    def test_v1_forest_predicts_exactly_as_before(self):
        model = load_model(DATA / "forest_v2.json")
        _, probes = _v1_fixture_recipe()
        want = json.loads((DATA / "forest_v1_predictions.json").read_text())
        assert predict_model(model, probes).tolist() == want

    def test_v1_forest_loads_as_the_same_forest_trained_now(self):
        trained, _ = _v1_fixture_recipe()
        loaded = load_model(DATA / "forest_v2.json")
        assert model_to_json(loaded) == model_to_json(trained)


# ------------------------------------------------------------------ fuzzing

@pytest.fixture(scope="module")
def small_docs(crop_split):
    """A small valid model file of each variant, parsed, plus the forest
    fixture."""
    hyper = pipeline.Hyperparams(epochs=2, trees=2)
    models = {variant: pipeline.train_variant(variant, crop_split, 17, hyper)
              for variant in VARIANTS}
    models["dnn"].payload = nn.init_network((46, 3, 1), seed=17)
    docs = {variant: json.loads(model_to_json(model))
            for variant, model in models.items()}
    docs["forest-fixture"] = json.loads((DATA / "forest_v2.json").read_text())
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
    if trees:
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


# scaled rows: zeros, ones and uniform rows reach both sides of splits
_PROBES = np.vstack([np.zeros(46), np.ones(46),
                     np.random.default_rng(0).uniform(size=(30, 46))])
_INDICATOR = np.array([c in schema.INDICATOR_COLUMNS
                       for c in schema.schema_columns()])


@pytest.fixture(scope="module")
def raw_probes(small_docs):
    """Per file, the raw rows that its own normalizer scales onto `_PROBES`
    (columns constant in its train rows aside)."""
    raw = {}
    for name, doc in small_docs.items():
        norm = model_from_json(json.dumps(doc)).normalizer
        rows = norm.column_mins + _PROBES * (norm.column_maxs
                                             - norm.column_mins)
        rows[:, _INDICATOR] = _PROBES[:, _INDICATOR]  # passed through unscaled
        raw[name] = rows
    return raw


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_model_file_loads_or_raises_package_error(small_docs,
                                                          raw_probes, data):
    name = data.draw(st.sampled_from(sorted(small_docs)), label="file")
    doc = copy.deepcopy(small_docs[name])
    _mutate(data, doc)
    text = json.dumps(doc)
    with time_limit(10), np.errstate(all="ignore"):
        try:
            model = model_from_json(text)
            preds = predict_model(model, raw_probes[name])
        except AgroYieldError:
            return
    assert preds.shape == (len(_PROBES),) and np.isfinite(preds).all()
