#!/usr/bin/env python3
"""Run the benchmark on two commits in alternating pairs and judge them.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \
        --workload report prep select --seeds 61 62 63 64 65 66 67 68 69 70

Each commit is exported once with `git archive` into a temporary
directory. For each workload in turn, `perfbench/run.py --workload W
--seed S --out F` runs there, once per seed and side, and the workload's
block of verdicts is printed. The side that runs first alternates with
the seed, so a drift of the host's speed falls on both sides alike.

For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the pairs the change wins, the parent's
interquartile range, and two verdicts:

- gain holds: there are at least ten pairs, the change wins at least
  nine in ten, its median is better than the parent's by more than the
  parent's interquartile range, and no larger share of its operations
  fails;
- no regression: `regressed` when the change's median is worse than the
  parent's by more than the metric's `bound`, a fraction of the parent's
  median; else `unresolved` when the parent's interquartile range is
  wider than that bound, unless every change run beats every parent run;
  else `holds`.

Under each end-to-end metric it also prints, with no verdict, the
paired ratios: change / parent per seed, over the pairs where both runs
succeeded, with their median, quartiles and how many are below 1. Both
runs of a pair share a seed, so the ratio leaves out the spread between
seeds that the parent's interquartile range holds.

It also prints, with no verdict, the same medians, quartiles and pairs
won (lower is counted as won) for two diagnostics from the run JSON's
`extra`: `wall_s`, the median unit in seconds, and `kernel_ms`, the
sampler's kernel time that `wall_ref` divides by. The kernel runs in the
timed process, so work that the change moves onto another CPU can slow it
and make `wall_ref` overstate the gain; the two show whether it did.

A run that exits non-zero is listed and its pair counts as lost. The
temporary directory is removed afterwards. The script exits 1 when any
end-to-end metric regressed on any workload, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as `statistics.quantiles(n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# figures of the run JSON's `extra` shown beside the verdicts, lower first
DIAGNOSTICS = ("wall_s", "kernel_ms")


def compare(parent: list, change: list, better: str) -> dict:
    """Pairs, pairs won and, when each side has a successful run, both
    sides' quartiles, the parent's interquartile range and the relative
    change of the median. None marks a failed run; a pair is won when both
    runs succeeded and the change is strictly better."""
    if len(parent) != len(change):
        raise ValueError("parent and change need one run per seed each")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(p is not None and c is not None and sign * (c - p) > 0
               for p, c in zip(parent, change))
    ok_p = [p for p in parent if p is not None]
    ok_c = [c for c in change if c is not None]
    out = {"pairs": len(parent), "wins": wins}
    if ok_p and ok_c:
        p1, pm, p3 = quartiles(ok_p)
        c1, cm, c3 = quartiles(ok_c)
        out.update(parent=(p1, pm, p3), change=(c1, cm, c3),
                   parent_iqr=p3 - p1,
                   delta=(cm - pm) / abs(pm) if pm else math.nan)
    return out


def judge(parent: list, change: list, metric: dict, failed: tuple) -> dict:
    """Both verdicts on paired runs of one metric; None marks a failed run.

    `metric` is the metric's entry in BENCHMARK.json and `failed` the
    (parent, change) share of operations that failed. "holds" is the gain
    rule and "verdict" the no-regression rule of the module docstring, on
    top of what `compare` gives.
    """
    out = dict(compare(parent, change, metric["better"]), holds=False,
               verdict=None)
    if "parent" not in out:
        return out
    sign = -1.0 if metric["better"] == "lower" else 1.0
    wins = out["wins"]
    (p1, pm, p3), (c1, cm, c3) = out["parent"], out["change"]
    ok_p = [p for p in parent if p is not None]
    ok_c = [c for c in change if c is not None]
    out["holds"] = (len(parent) >= 10
                    and 10 * wins >= 9 * len(parent)
                    and sign * (cm - pm) > p3 - p1
                    and failed[1] <= failed[0])
    bound = metric["bound"] * abs(pm)
    beats_all = (len(ok_c) == len(change)
                 and min(sign * c for c in ok_c) > max(sign * p for p in ok_p))
    if sign * (pm - cm) > bound:
        out["verdict"] = "regressed"
    elif p3 - p1 > bound and not beats_all:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "holds"
    return out


def paired_ratios(parent: list, change: list) -> dict | None:
    """The change / parent ratio of each pair whose runs both succeeded
    (None marks a failed run) and whose parent is not 0: their count,
    (q1, median, q3) and how many are below 1; None without such a pair."""
    if len(parent) != len(change):
        raise ValueError("parent and change need one run per seed each")
    ratios = [c / p for p, c in zip(parent, change)
              if p is not None and c is not None and p != 0]
    if not ratios:
        return None
    return {"pairs": len(ratios), "quartiles": quartiles(ratios),
            "below": sum(r < 1 for r in ratios)}


def ratio_line(ratios: dict | None) -> str:
    """A `paired_ratios` result as printed under its metric."""
    head = "    paired ratio change/parent (diagnostic, no verdict): "
    if ratios is None:
        return head + "no pair with two successful runs"
    q1, qm, q3 = ratios["quartiles"]
    return (head + f"median {qm:.4g} [{q1:.4g}, {q3:.4g}]  "
            f"below 1 in {ratios['below']}/{ratios['pairs']}")


def exit_status(results: list) -> int:
    """1 when any `judge` result of `results` regressed, else 0."""
    return int(any(r["verdict"] == "regressed" for r in results))


def export(rev: str, dest: Path) -> Path:
    """The tree of commit `rev`, written to `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_side(tree: Path, workload: str, seed: int, out: Path):
    """(end-to-end metrics, None) of one run, or (None, reason)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        return None, f"exited {proc.returncode}: {' '.join(tail)}"
    doc = json.loads(out.read_text())
    metrics = dict(doc["end_to_end"], failed=doc["failed"],
                   attempted=doc["attempted"],
                   **{name: doc["extra"][name] for name in DIAGNOSTICS})
    return metrics, None


def figures(result: dict) -> str:
    """Medians, quartiles and pairs won of a `compare` result, as printed."""
    (p1, pm, p3), (c1, cm, c3) = result["parent"], result["change"]
    return (f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"median {100 * result['delta']:+.1f}%  "
            f"wins {result['wins']}/{result['pairs']}")


def diagnostic_lines(runs: dict) -> list:
    """One line per DIAGNOSTICS figure of the parent and change runs."""
    lines = []
    for name in DIAGNOSTICS:
        result = compare([r and r[name] for r in runs["parent"]],
                         [r and r[name] for r in runs["change"]], "lower")
        shown = (figures(result) if "parent" in result
                 else "no successful runs on one side")
        lines.append(f"  {name} (diagnostic, no verdict): {shown}")
    return lines


def failed_share(runs: list) -> float:
    """Failed over attempted operations across a side's successful runs."""
    ok = [r for r in runs if r]
    attempted = sum(r["attempted"] for r in ok)
    return sum(r["failed"] for r in ok) / attempted if attempted else math.nan


def run_pairs(trees: dict, workload: str, seeds: list, tmp: Path) -> tuple:
    """({side: [metrics or None per seed]}, failure lines) of one
    workload's runs on the exported `trees`, the first side alternating."""
    sides = ("parent", "change")
    runs = {side: [] for side in sides}
    failures = []
    for i, seed in enumerate(seeds):
        for side in (sides if i % 2 == 0 else sides[::-1]):
            metrics, reason = run_side(trees[side], workload, seed,
                                       tmp / f"{workload}-{side}-{seed}.json")
            runs[side].append(metrics)
            if reason:
                failures.append(f"seed {seed} {side} {reason}")
            print(f"{workload} seed {seed} {side}: "
                  + (reason or json.dumps(metrics, sort_keys=True)),
                  flush=True)
    return runs, failures


def report_block(bench: dict, args, workload: str, runs: dict,
                 failures: list) -> list:
    """Print one workload's verdicts; its `judge` results."""
    failed = tuple(failed_share(runs[side]) for side in ("parent", "change"))
    print(f"\n{workload}: {args.parent} -> {args.change}, "
          f"seeds {' '.join(map(str, args.seeds))}")
    results = []
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r and r[name] for r in runs["parent"]]
        change = [r and r[name] for r in runs["change"]]
        result = judge(parent, change, metric, failed)
        results.append(result)
        if "parent" not in result:
            print(f"  {name}: no successful runs on one side")
            continue
        pm = result["parent"][1]
        print(f"  {name}: {figures(result)}  "
              f"parent IQR {result['parent_iqr']:.6g}  "
              f"gain holds: {'yes' if result['holds'] else 'no'}")
        spread = result["parent_iqr"] / abs(pm) if pm else math.nan
        why = (f" (parent IQR {100 * spread:.1f}% of its median > bound "
               f"{100 * metric['bound']:g}%)"
               if result["verdict"] == "unresolved" else "")
        print(f"    no regression (bound {100 * metric['bound']:g}%): "
              f"{result['verdict']}{why}")
        print(ratio_line(paired_ratios(parent, change)))
    for line in diagnostic_lines(runs):
        print(line)
    print(f"  failed operations: parent {failed[0]:.6g}  "
          f"change {failed[1]:.6g}")
    for line in failures:
        print(f"  FAILED {line}")
    return results


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="base commit")
    parser.add_argument("--change", required=True, help="changed commit")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    results = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        trees = {side: export(getattr(args, side), tmp / side)
                 for side in ("parent", "change")}
        for workload in args.workload:
            runs, failures = run_pairs(trees, workload, args.seeds, tmp)
            results += report_block(bench, args, workload, runs, failures)
    return exit_status(results)


if __name__ == "__main__":
    sys.exit(main())
