"""Tests of the benchmark itself: statistics, self time, tracing, output checks.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from agroyield import cli, models  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ------------------------------------------------------------- percentiles

def test_min_samples_leave_ten_beyond():
    assert stats.min_samples(50) == 20
    assert stats.min_samples(95) == 200
    assert stats.min_samples(99) == 1000


def test_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)


@pytest.mark.parametrize("n", [200, 201, 250, 1000])
def test_percentile_has_ten_samples_beyond(n):
    samples = list(range(n, 0, -1))  # order must not matter
    p95 = stats.percentile(samples, 95)
    assert sum(s > p95 for s in samples) >= 10
    assert p95 == sorted(samples)[math.ceil(0.95 * n) - 1]


def test_percentile_nearest_rank():
    assert stats.percentile(list(range(1, 201)), 95) == 190
    assert stats.percentile(list(range(1, 21)), 50) == 10


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    # statistics.quantiles(1..10, n=4) gives 2.75 and 8.25; the median is 5.5
    assert stats.quartile_spread(list(range(1, 11))) == pytest.approx(1.0)


# --------------------------------------------------------- reference units

def test_kernel_around_takes_the_samples_inside_the_unit():
    samples = [(float(t), 1.0) for t in range(10)] + [(float(t), 3.0)
                                                      for t in range(10, 20)]
    assert reference.kernel_around(samples, 10.0, 19.0) == 3.0
    assert reference.inside(samples, 10.0, 12.0) == 9.0


def test_kernel_around_borrows_neighbours_for_a_short_unit():
    samples = [(1.0, 1.0), (2.0, 1.0), (3.0, 4.0), (4.0, 2.0), (5.0, 2.0),
               (9.0, 100.0)]
    # none inside [3.5, 3.6]: the five nearest, not the distant one
    assert reference.kernel_around(samples, 3.5, 3.6) == 2.0
    with pytest.raises(ValueError):
        reference.kernel_around([], 0.0, 1.0)


def test_sampler_times_the_kernel_while_started():
    sampler = reference.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    assert all(0.0 < s < 0.1 for _, s in sampler.samples)
    count = len(sampler.samples)
    time.sleep(0.1)
    assert len(sampler.samples) == count  # stopped


def test_timed_skips_warmup_and_traced_units():
    units = [{"traced": False, "warmup": True, "wall_s": 9.0},
             {"traced": False, "warmup": False, "wall_s": 1.0},
             {"traced": True, "warmup": False, "wall_s": 7.0},
             {"traced": False, "warmup": False, "wall_s": 2.0}]
    assert run.timed(units) == [1.0, 2.0]


# --------------------------------------------------------------- self time

def _span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_time_subtracts_children():
    spans = [_span("p", 0.0, 10.0), _span("a", 1.0, 3.0, 0),
             _span("b", 4.0, 8.0, 0), _span("g", 5.0, 6.0, 2)]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("p", 0.0, 10.0), _span("a", 1.0, 3.0, 0),
             _span("b", 2.0, 5.0, 0), _span("c", 9.0, 12.0, 0)]
    # children cover [1, 5] and [9, 10] of the parent
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_aggregate_sums_per_name():
    spans = [_span("p", 0.0, 4.0), _span("c", 1.0, 2.0, 0),
             ["c", 2.0, 3.5, 0, {"rows": 3}]]
    table = tracing.aggregate(spans)
    assert table["c"]["calls"] == 2
    assert table["c"]["total_s"] == pytest.approx(2.5)
    assert table["c"]["counts"] == {"rows": 3}
    assert table["p"]["self_s"] == pytest.approx(1.5)


# ----------------------------------------------------------------- tracing

@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """Criterion 10's small report: 26 files in about a second."""
    root = tmp_path_factory.mktemp("report")
    data = root / "coverage.csv"
    assert cli.run(["generate", "--coverage", "--seed", "13", "--out", str(data)]) == 0
    assert cli.run(["report", "--data", str(data), "--seed", "13", "--epochs", "3",
                    "--trees", "3", "--out", str(root / "out")]) == 0
    return root


def test_tracer_records_nested_spans_and_restores(small_report, tmp_path):
    original = models.load_model
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.load_model is not original  # bound by `from .models import`
        assert cli.run(["report", "--data", str(small_report / "coverage.csv"),
                        "--seed", "13", "--epochs", "3", "--trees", "3",
                        "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    assert cli.load_model is original and models.load_model is original
    table = tracing.aggregate(tracer.spans)
    assert table["cli.run"]["calls"] == 1
    assert table["baselines.train_forest"]["calls"] == 6
    assert table["nn.train"]["counts"]["epochs"] == 18
    assert table["models.save_model"]["calls"] == 24
    run_span = next(i for i, s in enumerate(tracer.spans) if s[0] == "cli.run")
    assert all(s[3] >= run_span for s in tracer.spans[run_span + 1:])
    metrics = tracing.layer_metrics(table, 1, 0.0)
    assert set(metrics) == set(tracing.PER_LAYER) | {tracing.TRACE_OVERHEAD}
    assert metrics["models.load_s"]["value"] == 0.0
    assert metrics["baselines.forest_nodes"]["value"] > 0
    # the traced run wrote the same bytes as the untraced one
    assert (run._tree_digest(tmp_path / "out")
            == run._tree_digest(small_report / "out"))


# ----------------------------------------------------------- output checks

def test_report_check_fires_on_corruption(small_report, tmp_path):
    import shutil
    check = WORKLOADS["report"].check
    out = tmp_path / "out"
    shutil.copytree(small_report / "out", out)
    assert check(tmp_path, out, 0) == []

    (out / "models" / "jute_dnn.json").write_text('{"variant": "dnn"}')
    assert any("does not load" in p for p in check(tmp_path, out, 0))

    (out / "models" / "jute_dnn.json").unlink()
    assert any("25 output files" in p for p in check(tmp_path, out, 0))

    shutil.copy(small_report / "out" / "models" / "jute_dnn.json", out / "models")
    report = json.loads((out / "report.json").read_text())
    report["crops"]["Jute"][0]["error_pct"] += 1e-6
    (out / "report.json").write_text(json.dumps(report))
    assert any("accuracy + error" in p for p in check(tmp_path, out, 0))


def test_prep_check_fires_on_corruption(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "PREP_RECORDS", 300)
    wl = WORKLOADS["prep"]
    out = tmp_path / "unit"
    for argv in wl.unit(tmp_path, out, 5, 0):
        assert cli.run(argv) == 0
    assert wl.check(tmp_path, out, 0) == []

    log = out / "clean" / "cleaning_log.jsonl"
    log.write_text(log.read_text() + '{"row": 0, "reason": "invented"}\n')
    assert any("kept" in p for p in wl.check(tmp_path, out, 0))

    plot = out / "plots" / "yield.csv"
    plot.write_text(plot.read_text().replace("kind,district", "kind,region", 1))
    assert any("header" in p for p in wl.check(tmp_path, out, 0))


@pytest.fixture(scope="module")
def small_select(tmp_path_factory):
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "SELECT_RECORDS", 600)
    patch.setattr(workloads, "SELECT_TREES", 2)
    try:
        inputs = tmp_path_factory.mktemp("select")
        WORKLOADS["select"].prepare(inputs, 3)
    finally:
        patch.undo()
    return inputs


def _answer(inputs, out, index):
    for argv in WORKLOADS["select"].unit(inputs, out, 3, index):
        assert cli.run(argv) == 0
    return json.loads((out / "answer.json").read_text())


def test_select_check_fires_on_corruption(small_select, tmp_path):
    check = WORKLOADS["select"].check
    answer = _answer(small_select, tmp_path, 7)
    assert check(small_select, tmp_path, 7) == []
    assert check(small_select, tmp_path, 8) != []  # another request's answer

    predicted = answer["predicted_yield_t_ha"]
    worst = min(predicted, key=predicted.get)
    (tmp_path / "answer.json").write_text(json.dumps(dict(answer, selected=worst)))
    assert any("argmax" in p for p in check(small_select, tmp_path, 7))

    tied = dict(answer, predicted_yield_t_ha={c: 1.0 for c in predicted},
                selected=list(predicted)[-1])
    (tmp_path / "answer.json").write_text(json.dumps(tied))
    problems = check(small_select, tmp_path, 7)
    assert any(f"argmax is {workloads._crop_names()[0]}" in p for p in problems)

    nudged = json.loads(json.dumps(answer))
    nudged["predicted_yield_t_ha"][worst] *= 1.0 + 1e-12
    (tmp_path / "answer.json").write_text(json.dumps(nudged))
    assert any("differs" in p for p in check(small_select, tmp_path, 7))


def test_check_units_counts_exits_and_traced_differences(small_select, tmp_path):
    wl = WORKLOADS["select"]
    plain, traced = tmp_path / "0", tmp_path / "1"
    _answer(small_select, plain, 4)
    _answer(small_select, traced, 4)
    units = [{"index": 4, "traced": False, "dir": str(plain),
              "calls": [{"argv": ["select"], "exit": 0}]},
             {"index": 4, "traced": True, "dir": str(traced),
              "calls": [{"argv": ["select"], "exit": 0}]}]
    assert run.check_units(wl, small_select, units) == []

    (traced / "answer.json").write_text((traced / "answer.json").read_text() + " ")
    assert any("traced outputs differ" in p
               for p in run.check_units(wl, small_select, units))

    units[0]["calls"][0]["exit"] = 2
    problems = run.check_units(wl, small_select, units[:1])
    assert len(problems) == 1 and "exit 2" in problems[0]
