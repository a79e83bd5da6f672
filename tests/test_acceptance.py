"""Acceptance gate: eleven release criteria run at their stated tolerances.

Each test prints one ``[criterion N] PASS``/``FAIL`` line (run pytest with
``-s`` or check captured output). The suite combines format-fidelity
checks, property suites, and oracle-backed synthetic experiments.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from agroyield import (baselines, evaluation, ingest, models, nn, pipeline,
                       synthgen)
from agroyield.cli import run
from agroyield.evaluation import METHOD_ORDER, EvalReport, compare, render_markdown
from agroyield.schema import Crop
from helpers import (dataset_of, encoded, leaf_value, make_record,
                     record_value, split_and_encode)
from test_evaluation import constant_model

DATA_DIR = Path(__file__).parent / "data"


def criterion(number, description):
    """Wrap a test so it reports a single pass/fail line for its criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {description}",
                      file=sys.stderr)
                raise
            print(f"[criterion {number:2d}] PASS  {description}",
                  file=sys.stderr)
            return result
        return wrapper
    return deco


# ------------------------------------------------------------------------
@criterion(1, "gradient check < 1e-4 on 100 probes")
def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(2024)
    checked = 0
    probe = 0
    while checked < 100:
        probe += 1
        if checked < 80:
            sizes = [int(rng.integers(2, 7)) for _ in range(rng.integers(2, 4))]
            sizes = [int(rng.integers(2, 7))] + sizes + [1]
            activation = "sigmoid"
        elif checked < 90:
            sizes = [4, 6, 5, 1]
            activation = "relu"
        else:
            sizes = [46, 64, 32, 16, 1]
            activation = "sigmoid"
        net = nn.init_network(sizes, seed=int(rng.integers(0, 2**31)),
                              hidden_activation=activation)
        x = rng.uniform(-1.0, 1.0, size=sizes[0])
        target = float(rng.uniform(-1.0, 1.0))
        if activation == "relu":
            # skip probes whose pre-activations sit near a relu kink, where
            # the finite-difference estimate is not meaningful
            near_kink = False
            a = x
            for w, b in zip(net.weights[:-1], net.biases[:-1]):
                z = a @ w.T + b
                if np.any(np.abs(z) < 1e-3):
                    near_kink = True
                    break
                a = np.maximum(z, 0.0)
            if near_kink:
                continue
        worst = nn.gradient_check(net, x, target, epsilon=1e-5)
        assert worst < 1e-4, f"probe {probe}: relative error {worst}"
        checked += 1


# ------------------------------------------------------------------------
@criterion(2, "DNN/forest <= 10% MAPE and logistic worse, 4 of 5 seeds")
def test_criterion_2_oracle_learnability():
    seeds = (101, 102, 103, 104, 105)
    dnn_ok = forest_ok = logistic_worse = 0
    for seed in seeds:
        cfg = synthgen.GenConfig(n_records=5000, seed=seed, noise_sigma=0.02,
                                 crops=(Crop.BoroRice,))
        ds = synthgen.generate(cfg)
        cs = split_and_encode(ds, Crop.BoroRice, 0.8, seed)
        errs = {}
        settings = {
            "dnn": {"epochs": 300, "lr": 0.1},
            "forest": {"trees": 30},
            "logistic": {},
        }
        for variant, setting in settings.items():
            model = pipeline.train_variant(variant, cs, seed, setting)
            errs[variant] = evaluation.evaluate(
                model, cs.x_test, cs.y_test).error_pct
        dnn_ok += errs["dnn"] <= 10.0
        forest_ok += errs["forest"] <= 10.0
        logistic_worse += (errs["logistic"] > errs["dnn"]
                           and errs["logistic"] > errs["forest"])
    assert dnn_ok >= 4, f"DNN under 10% in only {dnn_ok}/5 seeds"
    assert forest_ok >= 4, f"forest under 10% in only {forest_ok}/5 seeds"
    assert logistic_worse >= 4, (
        f"logistic worse than both in only {logistic_worse}/5 seeds")


# ------------------------------------------------------------------------
@criterion(3, "accuracy + error = 100 within 1e-9 on every report row")
def test_criterion_3_complement_identity(tmp_path):
    data = tmp_path / "d.csv"
    assert run(["generate", "--coverage", "--seed", "11",
                "--out", str(data)]) == 0
    out = tmp_path / "report"
    assert run(["report", "--data", str(data), "--seed", "11", "--epochs",
                "3", "--trees", "3", "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    rows = [row for rows in doc["crops"].values() for row in rows]
    assert len(rows) == 24
    for row in rows:
        assert abs(row["accuracy_pct"] + row["error_pct"] - 100.0) < 1e-9


# ------------------------------------------------------------------------
@criterion(4, "report Markdown matches the golden file exactly")
def test_criterion_4_report_fidelity():
    records = [make_record(yield_t_ha=2.0 + 0.5 * i, year=2008 + i)
               for i in range(5)]
    metrics_by_crop = {}
    for j, crop in enumerate(Crop):
        models = {key: constant_model(2.0 + 0.3 * (i + j))
                  for i, (key, _) in enumerate(METHOD_ORDER)}
        metrics_by_crop[crop] = compare(models, *encoded(records))
    report = EvalReport(metrics_by_crop=metrics_by_crop,
                        source="golden-fixture", seed=12345, train_ratio=0.8)
    golden = (DATA_DIR / "golden_report.md").read_text()
    assert render_markdown(report) == golden


# ------------------------------------------------------------------------
@criterion(5, "split sizes exact, disjoint, exhaustive, seed-stable")
def test_criterion_5_split_exactness():
    for n in (10, 999, 300000):
        train_a, test_a = pipeline.split(n, 0.8, 77)
        train_b, test_b = pipeline.split(n, 0.8, 77)
        assert len(train_a) == int(0.8 * n)
        assert len(test_a) == n - int(0.8 * n)
        assert set(train_a.tolist()).isdisjoint(test_a.tolist())
        assert sorted(train_a.tolist() + test_a.tolist()) == list(range(n))
        assert train_a.tolist() == train_b.tolist()
        assert test_a.tolist() == test_b.tolist()


# ------------------------------------------------------------------------
@criterion(6, "normalized train columns hit [0,1]; order preserved")
def test_criterion_6_normalization():
    rng = np.random.default_rng(6)
    ds = synthgen.generate(synthgen.GenConfig(n_records=200, seed=6))
    x = ingest.feature_matrix(ds.year, ds.values)
    norm = models.Normalizer.fit(x, ingest.target_vector(ds))
    z = norm.scale(x)
    span = x.max(axis=0) - x.min(axis=0)
    for col in range(46):
        if models._INDICATOR_MASK[col]:
            continue
        if span[col] == 0.0:
            assert np.all(z[:, col] == 0.0)
        else:
            assert abs(z[:, col].min()) < 1e-12
            assert abs(z[:, col].max() - 1.0) < 1e-12

    for trial in range(1000):
        col = rng.uniform(-100.0, 100.0, size=12)
        lo, hi = col.min() - rng.uniform(0.0, 5.0), col.max() + rng.uniform(0.0, 5.0)
        mins, maxs = np.zeros(46), np.ones(46)
        mins[0], maxs[0] = lo, hi
        norm = models.Normalizer(column_mins=mins, column_maxs=maxs,
                                 target_min=0.0, target_max=1.0)
        mat = np.zeros((12, 46))
        mat[:, 0] = col
        scaled = norm.scale(mat)[:, 0]
        assert np.array_equal(np.argsort(col, kind="stable"),
                              np.argsort(scaled, kind="stable"))


# ------------------------------------------------------------------------
@criterion(7, "deduplication idempotent, first-kept, counts logged")
def test_criterion_7_cleaning():
    base = [make_record(year=2008 + i, yield_t_ha=2.0 + 0.1 * i)
            for i in range(4)]
    records = base + [base[0], base[2], base[0]]  # verbatim duplicates
    ds = dataset_of(records)
    once = ingest.clean(ds)
    assert list(once.records) == base  # first occurrences, original order
    assert [row for row, _ in once.cleaning_log] == [4, 5, 6]
    assert all(reason == "duplicate" for _, reason in once.cleaning_log)
    twice = ingest.clean(once)
    assert list(twice.records) == list(once.records)
    assert twice.cleaning_log == once.cleaning_log


# ------------------------------------------------------------------------
@criterion(8, "forest = mean over trees; single tree memorizes")
def test_criterion_8_forest_oracle():
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(120, 5))
    y = 0.4 * x[:, 0] + x[:, 1] * x[:, 2] + 0.1 * rng.uniform(size=120)
    forest = baselines.train_forest(
        x, y, baselines.ForestConfig(n_trees=9, max_depth=6, min_leaf=2,
                                     features_per_split=3, seed=8))
    probes = rng.uniform(size=(1000, 5))
    means = baselines.predict_forest_batch(forest, probes)
    for probe, mean in zip(probes, means):
        explicit = np.mean([leaf_value(t, probe) for t in forest.flat_trees])
        assert abs(mean - explicit) < 1e-12

    xm = rng.uniform(size=(20, 4))
    ym = rng.uniform(size=20)
    memorizer = baselines.train_forest(xm, ym, baselines.ForestConfig(
        n_trees=1, bootstrap=False, max_depth=64, min_leaf=1,
        features_per_split=xm.shape[1]))
    assert baselines.predict_forest_batch(memorizer, xm) == pytest.approx(
        ym, abs=1e-12)


# ------------------------------------------------------------------------
@criterion(9, "temperatures inside calibrated ranges for 100,000 records")
def test_criterion_9_calibration_bounds():
    ds = synthgen.generate(synthgen.GenConfig(n_records=100000, seed=9))
    assert len(ds.records) == 100000
    for record in ds.records:
        assert 22.5 <= record_value(record, "max_temp") <= 35.0
        assert 10.0 <= record_value(record, "min_temp") <= 22.0


# ------------------------------------------------------------------------
@criterion(10, "two identical report runs are byte-identical")
def test_criterion_10_end_to_end_determinism(tmp_path):
    data = tmp_path / "d.csv"
    assert run(["generate", "--coverage", "--seed", "13",
                "--out", str(data)]) == 0
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["report", "--data", str(data), "--seed", "13",
                    "--epochs", "3", "--trees", "3", "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert rel_a == rel_b
    assert len(rel_a) == 26  # report.md, report.json, 24 model files
    for rel in rel_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


# ------------------------------------------------------------------------
@criterion(11, "crop choice invariant under increasing transforms")
def test_criterion_11_selection_invariance():
    rng = np.random.default_rng(11)
    values = [1.8, 3.1, 2.4, 3.09, 0.7, 2.9]
    record = make_record()

    def choose(vals):
        models = {crop: constant_model(v, crop=crop)
                  for crop, v in zip(Crop, vals)}
        return evaluation.select_crop(models, record).selected

    baseline = choose(values)
    order = np.argsort(values)
    for _ in range(100):
        new_sorted = np.cumsum(rng.uniform(0.05, 3.0, size=6))
        transformed = [0.0] * 6
        for rank, idx in enumerate(order):
            transformed[idx] = float(new_sorted[rank])
        assert choose(transformed) is baseline

    assert choose([2.5] * 6) is Crop.AusRice  # enumeration-order tie-break
