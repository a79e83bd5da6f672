import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100, 104, 98, 102, 101, 99, 103, 97, 100, 105]
NO_FAILURES = (0.0, 0.0)
LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.25}


def test_clear_gain_holds():
    change = [p - 10 for p in PARENT]
    result = bench_pairs.judge(PARENT, change, LOWER, NO_FAILURES)
    assert result["wins"] == 10 and result["holds"]
    assert result["parent"][1] == 100.5
    assert result["delta"] == pytest.approx(-10 / 100.5)


def test_eight_wins_in_ten_is_not_a_gain():
    change = [p - 10 for p in PARENT]
    change[0] = change[1] = 200
    result = bench_pairs.judge(PARENT, change, LOWER, NO_FAILURES)
    assert result["wins"] == 8 and not result["holds"]


def test_gap_within_the_parent_iqr_is_not_a_gain():
    change = [p - 1 for p in PARENT]
    result = bench_pairs.judge(PARENT, change, LOWER, NO_FAILURES)
    assert result["wins"] == 10
    assert result["parent_iqr"] > 1 and not result["holds"]


def test_a_failed_run_loses_its_pair():
    change = [p - 10 for p in PARENT]
    change[3] = None
    result = bench_pairs.judge(PARENT, change, LOWER, NO_FAILURES)
    assert result["wins"] == 9 and result["holds"]
    change[4] = None
    assert not bench_pairs.judge(PARENT, change, LOWER, NO_FAILURES)["holds"]


def test_more_failed_operations_is_not_a_gain():
    change = [p - 10 for p in PARENT]
    assert bench_pairs.judge(PARENT, change, LOWER, (0.01, 0.01))["holds"]
    assert not bench_pairs.judge(PARENT, change, LOWER, (0.0, 0.01))["holds"]


def test_failed_share_pools_the_successful_runs():
    runs = [{"failed": 1, "attempted": 10}, None,
            {"failed": 0, "attempted": 30}]
    assert bench_pairs.failed_share(runs) == 1 / 40


def test_higher_is_better():
    change = [p + 10 for p in PARENT]
    assert bench_pairs.judge(PARENT, change, HIGHER, NO_FAILURES)["holds"]
    assert not bench_pairs.judge(PARENT, change, LOWER, NO_FAILURES)["holds"]


def test_mismatched_runs_rejected():
    with pytest.raises(ValueError):
        bench_pairs.judge(PARENT, PARENT[:-1], LOWER, NO_FAILURES)


def test_nine_pairs_are_too_few_for_a_gain():
    change = [p - 10 for p in PARENT]
    result = bench_pairs.judge(PARENT[:9], change[:9], LOWER, NO_FAILURES)
    assert result["wins"] == 9 and not result["holds"]


# PARENT's quartiles are 98.75, 100.5 and 103.25: its IQR, 4.5, is 4.5% of
# its median
def test_a_change_within_the_bound_holds():
    change = [p + 20 for p in PARENT]  # median 19.9% worse
    assert bench_pairs.judge(PARENT, change, LOWER,
                             NO_FAILURES)["verdict"] == "holds"


def test_a_change_past_the_bound_regressed():
    change = [p + 30 for p in PARENT]  # median 29.9% worse
    assert bench_pairs.judge(PARENT, change, LOWER,
                             NO_FAILURES)["verdict"] == "regressed"
    assert bench_pairs.judge(PARENT, [p - 30 for p in PARENT], HIGHER,
                             NO_FAILURES)["verdict"] == "regressed"


def test_a_regressed_metric_exits_1():
    held = bench_pairs.judge(PARENT, PARENT, LOWER, NO_FAILURES)
    regressed = bench_pairs.judge(PARENT, [p + 30 for p in PARENT], LOWER,
                                  NO_FAILURES)
    assert (held["verdict"], regressed["verdict"]) == ("holds", "regressed")
    assert bench_pairs.exit_status([held, held]) == 0
    assert bench_pairs.exit_status([held, regressed]) == 1


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    tight = {"better": "lower", "bound": 0.03}
    result = bench_pairs.judge(PARENT, PARENT, tight, NO_FAILURES)
    assert result["verdict"] == "unresolved"


def test_a_change_that_beats_every_parent_run_resolves_the_spread():
    tight = {"better": "lower", "bound": 0.03}
    change = [96] * 10  # below the parent's fastest run, 97
    assert bench_pairs.judge(PARENT, change, tight,
                             NO_FAILURES)["verdict"] == "holds"
    change[0] = None  # a failed run beats nothing
    assert bench_pairs.judge(PARENT, change, tight,
                             NO_FAILURES)["verdict"] == "unresolved"


def test_diagnostics_show_medians_and_wins_without_a_verdict():
    def run(wall_s, kernel_ms):
        return {"wall_s": wall_s, "kernel_ms": kernel_ms}

    runs = {"parent": [run(p / 100, 0.30) for p in PARENT],
            "change": [run((p - 25) / 100, 0.39) for p in PARENT[:-1]]
            + [None]}
    wall, kernel = bench_pairs.diagnostic_lines(runs)
    assert wall.startswith("  wall_s (diagnostic, no verdict): parent 1.005 ")
    assert "wins 9/10" in wall
    assert kernel.startswith(
        "  kernel_ms (diagnostic, no verdict): parent 0.3 [0.3, 0.3]  "
        "change 0.39 [0.39, 0.39]  median +30.0%  wins 0/10")
    for line in (wall, kernel):
        assert "holds" not in line and "regress" not in line
    runs["change"] = [None] * 10
    assert bench_pairs.diagnostic_lines(runs)[0].endswith(
        "no successful runs on one side")


def test_paired_ratios_are_per_seed():
    change = [0.9 * p for p in PARENT]
    change[0] = 2 * PARENT[0]  # one pair lost
    ratios = bench_pairs.paired_ratios(PARENT, change)
    assert ratios["pairs"] == 10 and ratios["below"] == 9
    q1, qm, q3 = ratios["quartiles"]
    assert qm == pytest.approx(0.9) and q1 == pytest.approx(0.9)
    assert q3 == pytest.approx(0.9)
    assert bench_pairs.ratio_line(ratios) == (
        "    paired ratio change/parent (diagnostic, no verdict): "
        "median 0.9 [0.9, 0.9]  below 1 in 9/10")


def test_paired_ratios_keep_the_pairing_that_medians_lose():
    # the medians differ by far less than the parent's IQR, but every
    # pair is 2% faster
    change = [0.98 * p for p in PARENT]
    result = bench_pairs.judge(PARENT, change, LOWER, NO_FAILURES)
    assert not result["holds"]
    ratios = bench_pairs.paired_ratios(PARENT, change)
    assert ratios["below"] == 10
    assert ratios["quartiles"][2] == pytest.approx(0.98)


def test_paired_ratios_skip_failed_runs_and_a_zero_parent():
    parent = [10.0, None, 0.0, 20.0]
    change = [5.0, 4.0, 3.0, None]
    ratios = bench_pairs.paired_ratios(parent, change)
    assert ratios == {"pairs": 1, "quartiles": (0.5, 0.5, 0.5), "below": 1}
    assert bench_pairs.paired_ratios([None], [1.0]) is None
    assert bench_pairs.ratio_line(None).endswith(
        "no pair with two successful runs")
    with pytest.raises(ValueError):
        bench_pairs.paired_ratios(PARENT, PARENT[:-1])


def fake_runs(monkeypatch, slower_on=()):
    """Stub `export` and `run_side`; the change runs twice as long on the
    workloads of `slower_on`. The calls made, in order."""
    calls = []

    def export(rev, dest):
        calls.append(("export", rev))
        return rev

    def run_side(tree, workload, seed, out):
        calls.append((workload, seed, tree))
        slow = 2 if tree == "B" and workload in slower_on else 1
        return {"wall_ref": 100 * slow, "setup_s": 1.0, "peak_rss_mb": 50.0,
                "failed": 0, "attempted": 10, "wall_s": 0.5,
                "kernel_ms": 0.3}, None

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    return calls


ARGV = ["--parent", "A", "--change", "B", "--seeds", "1", "2",
        "--workload"]


def test_several_workloads_share_one_export(monkeypatch, capsys):
    calls = fake_runs(monkeypatch)
    assert bench_pairs.main(ARGV + ["report", "prep", "select"]) == 0
    assert calls == [("export", "A"), ("export", "B")] + [
        (workload, seed, tree) for workload in ("report", "prep", "select")
        for seed, trees in ((1, "AB"), (2, "BA")) for tree in trees]
    out = capsys.readouterr().out
    blocks = [line for line in out.splitlines() if ": A -> B, seeds" in line]
    assert blocks == [f"{w}: A -> B, seeds 1 2"
                      for w in ("report", "prep", "select")]
    assert out.count("): holds\n") == 9  # three metrics per workload


def test_a_regression_on_any_workload_exits_1(monkeypatch, capsys):
    fake_runs(monkeypatch, slower_on=("prep",))
    assert bench_pairs.main(ARGV + ["report", "prep"]) == 1
    assert bench_pairs.main(ARGV + ["report"]) == 0
    assert "regressed" in capsys.readouterr().out


def test_an_unknown_workload_is_a_usage_error(monkeypatch, capsys):
    calls = fake_runs(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(ARGV + ["report", "nope"])
    assert exc.value.code == 2 and calls == []
    with pytest.raises(SystemExit):
        bench_pairs.main(ARGV[:-1])  # --workload is required
    assert calls == []
