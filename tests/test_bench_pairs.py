import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100, 104, 98, 102, 101, 99, 103, 97, 100, 105]
NO_FAILURES = (0.0, 0.0)


def test_clear_gain_holds():
    change = [p - 10 for p in PARENT]
    result = bench_pairs.judge(PARENT, change, "lower", NO_FAILURES)
    assert result["wins"] == 10 and result["holds"]
    assert result["parent"][1] == 100.5
    assert result["delta"] == pytest.approx(-10 / 100.5)


def test_eight_wins_in_ten_is_not_a_gain():
    change = [p - 10 for p in PARENT]
    change[0] = change[1] = 200
    result = bench_pairs.judge(PARENT, change, "lower", NO_FAILURES)
    assert result["wins"] == 8 and not result["holds"]


def test_gap_within_the_parent_iqr_is_not_a_gain():
    change = [p - 1 for p in PARENT]
    result = bench_pairs.judge(PARENT, change, "lower", NO_FAILURES)
    assert result["wins"] == 10
    assert result["parent_iqr"] > 1 and not result["holds"]


def test_a_failed_run_loses_its_pair():
    change = [p - 10 for p in PARENT]
    change[3] = None
    result = bench_pairs.judge(PARENT, change, "lower", NO_FAILURES)
    assert result["wins"] == 9 and result["holds"]
    change[4] = None
    assert not bench_pairs.judge(PARENT, change, "lower", NO_FAILURES)["holds"]


def test_more_failed_operations_is_not_a_gain():
    change = [p - 10 for p in PARENT]
    assert bench_pairs.judge(PARENT, change, "lower", (0.01, 0.01))["holds"]
    assert not bench_pairs.judge(PARENT, change, "lower", (0.0, 0.01))["holds"]


def test_failed_share_pools_the_successful_runs():
    runs = [{"failed": 1, "attempted": 10}, None,
            {"failed": 0, "attempted": 30}]
    assert bench_pairs.failed_share(runs) == 1 / 40


def test_higher_is_better():
    change = [p + 10 for p in PARENT]
    assert bench_pairs.judge(PARENT, change, "higher", NO_FAILURES)["holds"]
    assert not bench_pairs.judge(PARENT, change, "lower", NO_FAILURES)["holds"]


def test_mismatched_runs_rejected():
    with pytest.raises(ValueError):
        bench_pairs.judge(PARENT, PARENT[:-1], "lower", NO_FAILURES)
