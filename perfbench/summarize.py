"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/summarize.py --workload report prep select \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--write perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles and the
quartile spread as a share of the median (`statistics.quantiles`, n=4),
next to the bound from BENCHMARK.json. The spread should stay below a
third of the bound; `setup_s` is compared between sets of runs by median
only. `--write` stores the summary with the provenance of each
workload's first run and every fingerprint seen.

    python3 perfbench/summarize.py --compare first.json second.json

checks that each end-to-end median of the second summary is no worse than
the first's by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = Path(".perfbench_work") / f"summary-{workload}-{seed}-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = stats.quartile_spread(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread if math.isfinite(spread) else None,
            "values": values}


def compare(first: Path, second: Path, bounds: dict, better: dict) -> int:
    """Is each end-to-end median of `second` within its bound of `first`?"""
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (first, second))
    worse = 0
    for workload in a:
        for name, bound in bounds.items():
            m1 = a[workload]["metrics"][name]["median"]
            m2 = b[workload]["metrics"][name]["median"]
            change = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            verdict = "worse beyond bound" if change > bound else "within bound"
            worse += change > bound
            print(f"{workload}: {name:<14} {m1:>12.6g} -> {m2:>12.6g} "
                  f"worse by {change:+.4f} (bound {bound}) {verdict}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY",
                        help="compare the medians of two written summaries")
    parser.add_argument("--workload", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write", help="write the summary as JSON here")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.compare:
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        return compare(*args.compare, bounds, better)
    if not (args.workload and args.seeds):
        parser.error("--workload and --seeds are required")
    summary = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}",
                  flush=True)
        summary.setdefault("fingerprints", set()).update(
            r["fingerprint"]["sha256"] for r in runs)
        series = {}
        for r in runs:
            for name, m in r["metrics"].items():
                series.setdefault(name, []).append(m["value"])
            for name, value in r["extra"].items():
                series.setdefault(name, []).append(value)
        rows = {name: summarize(v) for name, v in series.items()}
        summary["workloads"][workload] = {
            "provenance": runs[0]["provenance"],
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": rows}
        print(f"{workload}: {'metric':<34} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for name, row in rows.items():
            bound, spread = bounds.get(name), row["spread"]
            flag = ""
            if bound is not None and name != "setup_s" and spread is not None:
                flag = ("  over bound" if spread > bound else
                        "  over a third of bound" if spread > bound / 3 else "  ok")
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"{workload}: {name:<34} {row['median']:>12.6g} "
                  f"{row['q1']:>12.6g} {row['q3']:>12.6g} {shown:>8} "
                  f"{bound if bound else '':>6}{flag}", flush=True)
    summary["fingerprints"] = sorted(summary.get("fingerprints", ()))
    print(f"fingerprints seen: {summary['fingerprints']}")
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
