import numpy as np
import pytest

from agroyield import baselines, ingest, nn, pipeline, synthgen
from agroyield.errors import DimensionMismatch, MalformedConfig
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
            crop_split.normalizer, ingest.feature_matrix(crop_split.test.records))
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
        model = Model("svm", baselines.SvmModel(np.zeros(46), -0.3), norm)
        # raw -0.3 clamps to 0 then denormalizes to target_min
        assert predict_model(model, np.zeros((1, 46)))[0] == pytest.approx(2.0)

    def test_constant_forest_predicts_denormalized_leaf(self):
        norm = ingest.Normalizer(column_mins=np.zeros(46),
                                 column_maxs=np.ones(46),
                                 target_min=1.0, target_max=3.0)
        leaf = baselines.TreeNode(value=0.5, n_samples=4)
        forest = baselines.ForestModel(trees=[leaf, leaf],
                                       config=baselines.ForestConfig(n_trees=2))
        model = Model("forest", forest, norm)
        assert predict_model(model, np.ones((1, 46)))[0] == pytest.approx(2.0)


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
            crop_split.normalizer, ingest.feature_matrix(crop_split.test.records))
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
