from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from agroyield import baselines, evaluation, ingest, synthgen
from agroyield.errors import AgroYieldError
from agroyield.evaluation import (
    METHOD_ORDER,
    EvalReport,
    compare,
    emit_plot_data,
    evaluate,
    mape,
    plot_series_to_csv,
    render_markdown,
    report_to_dict,
    select_crop,
)
from agroyield.models import Model, Normalizer
from agroyield.schema import Crop, District
from helpers import dataset_of, encoded, make_record, record_value


def constant_model(value, target_min=0.0, target_max=10.0, crop=None):
    """A forest of one leaf predicting `value` t/ha for any input."""
    span = target_max - target_min
    leaf = baselines.FlatTree(feature=[-1], value=[(value - target_min) / span],
                              right=[-1], n_samples=[1])
    forest = baselines.ForestModel(flat_trees=[leaf],
                                   config=baselines.ForestConfig(n_trees=1))
    norm = Normalizer(column_mins=np.zeros(46), column_maxs=np.ones(46),
                      target_min=target_min, target_max=target_max)
    return Model("forest", forest, norm, crop)


class TestMape:
    def test_perfect_prediction(self):
        assert mape([100.0], [100.0]) == 0.0

    def test_ten_percent_miss(self):
        assert mape([110.0], [100.0]) == pytest.approx(10.0)

    def test_mean_of_two_misses(self):
        assert mape([110.0, 90.0], [100.0, 100.0]) == pytest.approx(10.0)

    @given(st.lists(st.floats(0.5, 100.0), min_size=1, max_size=20),
           st.floats(0.01, 1000.0))
    def test_scale_invariance(self, actuals, c):
        preds = [a * 1.07 for a in actuals]
        base = mape(preds, actuals)
        scaled = mape([p * c for p in preds], [a * c for a in actuals])
        assert scaled == pytest.approx(base, rel=1e-9)


class TestEvaluate:
    def test_oracle_model_scores_100(self):
        records = [make_record(yield_t_ha=4.0, year=2008 + i) for i in range(3)]
        metrics = evaluate(constant_model(4.0), *encoded(records))
        assert metrics.accuracy_pct == pytest.approx(100.0)
        assert metrics.error_pct == pytest.approx(0.0)

    def test_uniform_ten_percent_overprediction(self):
        records = [make_record(yield_t_ha=2.0, year=2008 + i) for i in range(4)]
        metrics = evaluate(constant_model(2.2), *encoded(records))
        assert metrics.error_pct == pytest.approx(10.0)

    def test_complement_identity(self):
        records = [make_record(yield_t_ha=1.0 + i, year=2008 + i)
                   for i in range(5)]
        metrics = evaluate(constant_model(1.7), *encoded(records))
        assert metrics.accuracy_pct + metrics.error_pct == pytest.approx(
            100.0, abs=1e-9)

    def test_empty_test_set(self):
        with pytest.raises(AgroYieldError, match="no test records"):
            evaluate(constant_model(1.0), *encoded([]))


def table_rows(metrics_by_variant):
    """compare's metrics as the rows report.json stores, at an 80/20 split."""
    report = EvalReport(metrics_by_crop={Crop.Jute: metrics_by_variant},
                        source="unit", seed=0, train_ratio=0.8)
    return [SimpleNamespace(**row)
            for row in report_to_dict(report)["crops"]["Jute"]]


class TestCompare:
    def models(self):
        return {key: constant_model(2.0 + i)
                for i, (key, _) in enumerate(METHOD_ORDER)}

    def test_four_rows_fixed_order(self):
        records = [make_record(yield_t_ha=2.5, year=2008 + i) for i in range(4)]
        rows = table_rows(compare(self.models(), *encoded(records)))
        assert [r.method for r in rows] == [
            "Deep Neural Network(DNN)",
            "Support Vector Machine(SVM)",
            "Random Forest",
            "Logistic Regression",
        ]
        assert all(r.training_pct == 80.0 and r.testing_pct == 20.0
                   for r in rows)

    def test_identical_model_gives_identical_rows(self):
        records = [make_record(yield_t_ha=2.5, year=2008 + i) for i in range(4)]
        same = constant_model(3.0)
        rows = table_rows(compare({key: same for key, _ in METHOD_ORDER},
                                  *encoded(records)))
        assert len({(r.accuracy_pct, r.error_pct) for r in rows}) == 1

    def test_row_complement_identity(self):
        records = [make_record(yield_t_ha=2.5, year=2008 + i) for i in range(4)]
        for row in table_rows(compare(self.models(), *encoded(records))):
            assert row.accuracy_pct + row.error_pct == pytest.approx(
                100.0, abs=1e-9)


class TestRenderMarkdown:
    def test_exact_header_and_method_order(self):
        metrics = compare({key: constant_model(2.0)
                           for key, _ in METHOD_ORDER},
                          *encoded([make_record(yield_t_ha=2.0)]))
        report = EvalReport(metrics_by_crop={Crop.Jute: metrics},
                            source="unit", seed=0, train_ratio=0.8)
        text = render_markdown(report)
        assert "| Method | Training (%) | Testing (%) | Accuracy (%) | MSE (%) |" in text
        assert "## Evaluation measures of Jute" in text
        lines = [l for l in text.splitlines() if l.startswith("| Deep")]
        assert lines == ["| Deep Neural Network(DNN) | 80 | 20 | 100.00 | 0.00 |"]


class TestSelectCrop:
    def per_crop_models(self, values):
        return {crop: constant_model(v, crop=crop)
                for crop, v in zip(Crop, values)}

    def test_argmax_selection(self):
        values = [3.2, 3.0, 2.8, 2.5, 3.1, 4.5]  # Jute highest
        rec = select_crop(self.per_crop_models(values), make_record())
        assert rec.selected is Crop.Jute
        assert rec.predicted[Crop.Jute] == pytest.approx(4.5)

    def test_crop_is_not_a_feature(self):
        # select_crop encodes the request once for all six crop models
        records = [make_record(crop=c) for c in Crop]
        x = ingest.feature_matrix([r.year for r in records],
                                  [r.values for r in records])
        assert len({tuple(row) for row in x.tolist()}) == 1

    def test_all_equal_ties_break_to_first_member(self):
        rec = select_crop(self.per_crop_models([2.0] * 6), make_record())
        assert rec.selected is Crop.AusRice

    def test_missing_model_raises(self):
        models = self.per_crop_models([1, 2, 3, 4, 5, 6])
        del models[Crop.Potato]
        with pytest.raises(AgroYieldError, match="no model for crops: Potato"):
            select_crop(models, make_record())

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(0)
        values = [1.5, 2.7, 2.2, 0.9, 2.69, 1.0]
        baseline_choice = select_crop(self.per_crop_models(values),
                                      make_record()).selected
        for _ in range(20):
            # random strictly increasing map applied to the six values
            order = np.argsort(values)
            new_sorted = np.cumsum(rng.uniform(0.1, 2.0, size=6))
            transformed = [0.0] * 6
            for rank, idx in enumerate(order):
                transformed[idx] = float(new_sorted[rank])
            choice = select_crop(self.per_crop_models(transformed),
                                 make_record()).selected
            assert choice is baseline_choice


class TestEmitPlotData:
    def dataset(self):
        records = [
            make_record(district=District.Dhaka, year=2008,
                        crop=Crop.Jute, yield_t_ha=2.0, avg_rainfall=2385.0,
                        max_temp=34.0, min_temp=12.0, humidity=71.0),
            make_record(district=District.Dhaka, year=2008,
                        crop=Crop.Jute, yield_t_ha=4.0, avg_rainfall=1900.0,
                        max_temp=30.0, min_temp=14.0, humidity=65.0),
            make_record(district=District.Tangail, year=2009,
                        crop=Crop.Wheat, yield_t_ha=3.0),
        ]
        return dataset_of(records)

    def test_single_record_series(self):
        ds = dataset_of([make_record()])
        series = emit_plot_data(ds, "max_temp")
        assert series.points == [(District.Dhaka, 2008, None, 34.0)]

    def test_weather_kind_means_per_district_year(self):
        series = emit_plot_data(self.dataset(), "max_temp")
        assert series.points[0] == (District.Dhaka, 2008, None, 32.0)

    def test_production_sums_match_explicit_loop(self):
        ds = self.dataset()
        series = emit_plot_data(ds, "production")
        explicit = {}
        for r in ds.records:
            key = (r.district, r.year, r.crop)
            explicit[key] = (explicit.get(key, 0.0)
                             + record_value(r, "production"))
        assert {(d, y, c): v for d, y, c, v in series.points} == explicit

    def test_yield_kind_averages(self):
        series = emit_plot_data(self.dataset(), "yield")
        jute = [p for p in series.points if p[2] is Crop.Jute][0]
        assert jute[3] == pytest.approx(3.0)

    def test_sorted_by_district_then_year(self):
        series = emit_plot_data(self.dataset(), "yield")
        keys = [(p[0].value, p[1]) for p in series.points]
        assert keys == sorted(keys)

    def test_unknown_kind(self):
        with pytest.raises(AgroYieldError, match="unknown plot kind 'wind'"):
            emit_plot_data(self.dataset(), "wind")

    def test_empty_dataset(self):
        with pytest.raises(AgroYieldError, match="no records to plot"):
            emit_plot_data(dataset_of([]), "yield")

    def test_csv_export_shape(self):
        text = plot_series_to_csv(emit_plot_data(self.dataset(), "yield"))
        lines = text.strip().splitlines()
        assert lines[0] == "kind,district,year,crop,value"
        assert lines[1].startswith("yield,dhaka,2008,jute,")


def _reference_plot_points(records, kind):
    """The per-record grouping `emit_plot_data` replaced, with its logic
    unchanged; it reads each value from the record's row by name."""
    groups = {}
    for r in records:
        if kind in ("max_temp", "min_temp", "avg_rainfall"):
            key = (r.district, r.year, None)
            value = record_value(r, kind)
        elif kind == "production":
            key = (r.district, r.year, r.crop)
            value = record_value(r, "production")
        else:
            key = (r.district, r.year, r.crop)
            value = record_value(r, "yield")
        groups.setdefault(key, []).append(value)

    def sort_key(item):
        (district, year, crop), _ = item
        return (district.value, year, -1 if crop is None else crop.value)

    points = []
    for (district, year, crop), values in sorted(groups.items(), key=sort_key):
        agg = (float(sum(values)) if kind == "production"
               else float(sum(values) / len(values)))
        points.append((district, year, crop, agg))
    return points


@pytest.mark.parametrize("kind", evaluation.PLOT_KINDS)
def test_plot_points_equal_per_record_reference(kind):
    ds = synthgen.generate(synthgen.GenConfig(n_records=1500, seed=21,
                                              years=(2008, 2010)))
    shuffled = ds.take(np.random.default_rng(0).permutation(len(ds)))
    for data in (ds, shuffled):
        assert emit_plot_data(data, kind).points \
            == _reference_plot_points(data.records, kind)
