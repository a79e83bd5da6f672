"""Metrics, four-model comparison tables, crop selection, plot-data export.

Accuracy is reported as the exact complement of the mean absolute
percentage error (accuracy + error = 100). The comparison table keeps
the literal column name "MSE (%)" for layout compatibility with the
published tables even though the value is the MAPE; report footnotes say
so. `evaluate` and `compare` score encoded test rows (raw features and
yields, as `pipeline.CropSplit` holds them) and encode nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ingest, schema
from .errors import AgroYieldError
from .models import VARIANTS, Model, predict_model
from .schema import Crop, District

NEAR_ZERO_ACTUAL = 1e-9

METHOD_ORDER = tuple((name, v.label) for name, v in VARIANTS.items())

TABLE_HEADER = "Method | Training (%) | Testing (%) | Accuracy (%) | MSE (%)"

PLOT_KINDS = ("max_temp", "min_temp", "avg_rainfall", "production", "yield")
_WEATHER_KINDS = ("max_temp", "min_temp", "avg_rainfall")


@dataclass(frozen=True)
class Metrics:
    error_pct: float
    n_test: int

    @property
    def accuracy_pct(self) -> float:
        return 100.0 - self.error_pct


@dataclass
class EvalReport:
    metrics_by_crop: dict       # Crop -> {variant: Metrics}
    source: str
    seed: int
    train_ratio: float


@dataclass(frozen=True)
class CropRecommendation:
    predicted: dict   # Crop -> t/ha
    selected: Crop


@dataclass
class PlotSeries:
    kind: str
    points: list  # (District, year, Crop | None, value)


def mape(predictions, actuals) -> float:
    """(100 / n) * sum |pred - actual| / |actual| of n >= 1 predictions and
    as many actuals, each above `NEAR_ZERO_ACTUAL`, as `evaluate` checks."""
    p = np.asarray(predictions, dtype=float)
    a = np.asarray(actuals, dtype=float)
    return float(100.0 * np.mean(np.abs(p - a) / np.abs(a)))


def check_scorable(crop: Crop | None, actuals) -> None:
    """AgroYieldError naming `crop` unless every test yield of `actuals`
    is above `NEAR_ZERO_ACTUAL`."""
    near_zero = np.count_nonzero(np.abs(actuals) <= NEAR_ZERO_ACTUAL)
    if near_zero:
        raise AgroYieldError(
            f"crop {getattr(crop, 'name', None)} has {near_zero} of "
            f"{len(actuals)} test rows with a yield of at most "
            f"{NEAR_ZERO_ACTUAL:g} t/ha; a scored yield must be above it")


def evaluate(model: Model, x, actuals) -> Metrics:
    """Metrics of `model` on raw feature rows `x` with yields `actuals`,
    which `check_scorable` must pass."""
    if len(actuals) == 0:
        raise AgroYieldError("no test records")
    check_scorable(model.crop, actuals)
    return Metrics(error_pct=mape(predict_model(model, x), actuals),
                   n_test=len(actuals))


def compare(models: dict, x, actuals) -> dict:
    """{variant: Metrics} in method order on one crop's encoded test rows."""
    return {key: evaluate(models[key], x, actuals) for key, _ in METHOD_ORDER}


def _table_rows(report: EvalReport, crop: Crop) -> list:
    """One crop's table rows, in method order, as report.json stores them."""
    training_pct = 100.0 * report.train_ratio
    metrics = report.metrics_by_crop[crop]
    return [{"method": label, "training_pct": training_pct,
             "testing_pct": 100.0 - training_pct,
             "accuracy_pct": metrics[key].accuracy_pct,
             "error_pct": metrics[key].error_pct}
            for key, label in METHOD_ORDER]


def _fmt_pct(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:g}"


def render_markdown(report: EvalReport) -> str:
    lines = ["# Crop yield model comparison", ""]
    lines.append(f"Source: {report.source}  ")
    lines.append(f"Seed: {report.seed}")
    lines.append("")
    for crop in Crop:
        if crop not in report.metrics_by_crop:
            continue
        lines.append(f"## Evaluation measures of {schema.CROP_DISPLAY_NAMES[crop]}")
        lines.append("")
        lines.append(f"| {TABLE_HEADER} |")
        lines.append("| --- | --- | --- | --- | --- |")
        for row in _table_rows(report, crop):
            lines.append(
                f"| {row['method']} | {_fmt_pct(row['training_pct'])} "
                f"| {_fmt_pct(row['testing_pct'])} "
                f"| {row['accuracy_pct']:.2f} | {row['error_pct']:.2f} |"
            )
        lines.append("")
    lines.append('*The "MSE (%)" column reports the mean absolute percentage '
                 "error; the column name is kept only for table-layout "
                 "compatibility. Accuracy is its exact complement "
                 "(accuracy + error = 100).*")
    lines.append("")
    return "\n".join(lines)


def report_to_dict(report: EvalReport) -> dict:
    return {
        "source": report.source,
        "seed": report.seed,
        "train_ratio": report.train_ratio,
        "crops": {crop.name: _table_rows(report, crop)
                  for crop in report.metrics_by_crop},
    }


def select_crop(per_crop_models: dict, record: schema.AgroRecord) -> CropRecommendation:
    """Argmax of per-crop predicted yield; ties break in enumeration order.
    `record` must be valid, as every row of a cleaned dataset is."""
    missing = [c.name for c in Crop if c not in per_crop_models]
    if missing:
        raise AgroYieldError(f"no model for crops: {', '.join(missing)}")
    # crop is not a feature, so one encoding serves every crop's model
    x = ingest.feature_matrix([record.year], [record.values])
    predicted = {crop: float(predict_model(per_crop_models[crop], x)[0])
                 for crop in Crop}
    selected = max(Crop, key=lambda c: (predicted[c], -c.value))
    return CropRecommendation(predicted=predicted, selected=selected)


def emit_plot_data(dataset: ingest.Dataset, kind: str) -> PlotSeries:
    """Group records into plot-ready points.

    Weather kinds average per (district, year); production sums and yield
    averages per (district, year, crop).
    """
    if kind not in PLOT_KINDS:
        raise AgroYieldError(f"unknown plot kind {kind!r}")
    if len(dataset) == 0:
        raise AgroYieldError("no records to plot")
    weather = kind in _WEATHER_KINDS
    crop = np.full(len(dataset), -1) if weather else dataset.crop
    column = schema.VALUE_INDEX[kind]
    # stable, so each group keeps the dataset's order and `sum` adds in it
    order = np.lexsort((crop, dataset.year, dataset.district))
    keys = np.column_stack([dataset.district, dataset.year, crop])[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    values = dataset.values[order, column].tolist()
    points = []
    stops = starts[1:].tolist() + [len(order)]
    for start, stop in zip(starts.tolist(), stops):
        district, year, crop_value = keys[start].tolist()
        total = sum(values[start:stop])
        points.append((
            District(district), year,
            None if crop_value < 0 else Crop(crop_value),
            float(total if kind == "production" else total / (stop - start))))
    return PlotSeries(kind=kind, points=points)


def plot_series_to_csv(series: PlotSeries) -> str:
    lines = ["kind,district,year,crop,value"]
    for district, year, crop, value in series.points:
        crop_name = "" if crop is None else crop.name.lower()
        lines.append(
            f"{series.kind},{district.name.lower()},{year},{crop_name},{value!r}")
    return "\n".join(lines) + "\n"
