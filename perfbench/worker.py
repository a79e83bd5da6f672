"""Child process of the benchmark: `prepare`, `measure` or `fingerprint`.

run.py starts each step as a fresh process so that set-up time includes
start-up and the timed process's peak resident set is its own. Every step
writes its result as JSON to `--result`.

    python3 perfbench/worker.py measure --workload select --inputs DIR \
        --units DIR --seed 0 --seconds 15 --trace 0 --result FILE
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import time
from pathlib import Path

from workloads import WORKLOADS

# Criterion 10's configuration: 26 output files, byte-identical across runs.
FINGERPRINT_GENERATE = ["generate", "--coverage", "--seed", "13"]
FINGERPRINT_REPORT = ["--seed", "13", "--epochs", "3", "--trees", "3"]


def prepare(args) -> dict:
    return WORKLOADS[args.workload].prepare(Path(args.inputs), args.seed)


def measure(args) -> dict:
    """Time units of the workload for up to --seconds.

    One untimed warm-up unit comes first, so lazy imports and the page
    cache are settled before timing. Then a run makes the workload's
    minimum number of units, and more while another unit, as long as the
    last one, still ends within --seconds. A full garbage collection runs
    before each unit, outside its time, so that every unit starts from the
    same heap and collections triggered by earlier units do not land in it.
    While an untraced unit runs, reference.Sampler times a tiny fixed
    kernel every few milliseconds; `wall_s` of such a unit leaves the
    sampler's time out, and `ref` is that time in mean kernel times.
    With --trace 1 each timed unit runs twice in a row, untraced then
    traced, so the pair gives the tracing overhead and outputs to compare
    byte for byte.
    """
    from agroyield import cli

    import reference
    import tracing

    wl = WORKLOADS[args.workload]
    inputs, units_dir = Path(args.inputs), Path(args.units)
    tracer = tracing.Tracer() if args.trace else None
    sampler = reference.Sampler()
    units = []

    def run_unit(index, traced, warmup=False):
        out = units_dir / str(len(units))
        calls = []
        gc.collect()
        if traced:
            tracer.install()
        else:
            sampler.start()
        try:
            began = time.perf_counter()
            for argv in wl.unit(inputs, out, args.seed, index):
                t0 = time.perf_counter()
                code = cli.run(argv)
                calls.append({"argv": argv, "exit": code,
                              "wall_s": time.perf_counter() - t0})
            ended = time.perf_counter()
        finally:
            if traced:
                tracer.uninstall()
            else:
                sampler.stop()
        units.append({"index": index, "traced": traced, "warmup": warmup,
                      "dir": str(out), "calls": calls, "span": (began, ended),
                      "wall_s": sum(c["wall_s"] for c in calls)})

    run_unit(0, False, warmup=True)
    start = time.perf_counter()
    index, last = 1, 0.0
    while (index <= wl.min_units
           or time.perf_counter() - start + last <= args.seconds):
        began = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            run_unit(index, traced)
        index += 1
        last = time.perf_counter() - began

    # Untraced units: less the sampler's own time, and in reference units.
    for u in units:
        span = u.pop("span")
        if not u["traced"]:
            u["wall_s"] -= reference.inside(sampler.samples, *span)
            u["kernel_s"] = reference.kernel_around(sampler.samples, *span)
            u["ref"] = u["wall_s"] / u["kernel_s"]
    result = {"units": units}
    if tracer:
        walls = {flag: statistics.median(u["wall_s"] for u in units
                                         if u["traced"] is flag and not u["warmup"])
                 for flag in (False, True)}
        result["layers"] = tracing.aggregate(tracer.spans)
        result["traced_units"] = index - 1
        result["trace_overhead_s"] = walls[True] - walls[False]
        result["notes"] = tracer.notes
    return result


def fingerprint(args) -> dict:
    """sha256 of report.json and the 24 model files of a small fixed report."""
    from agroyield.cli import run

    # report.json names its data file, so the paths are the same on every run.
    os.chdir(args.inputs)
    data, out = Path("coverage.csv"), Path("report")
    if run(FINGERPRINT_GENERATE + ["--out", str(data)]) != 0 or run(
            ["report", "--data", str(data), *FINGERPRINT_REPORT,
             "--out", str(out)]) != 0:
        raise RuntimeError("fingerprint report failed")
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*.json"))}
    combined = hashlib.sha256(
        "".join(f"{k} {v}\n" for k, v in files.items()).encode()).hexdigest()
    return {"sha256": combined, "files": files}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=["prepare", "measure", "fingerprint"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--units")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    Path(args.inputs).mkdir(parents=True, exist_ok=True)
    step = {"prepare": prepare, "measure": measure,
            "fingerprint": fingerprint}[args.step]
    Path(args.result).write_text(json.dumps(step(args)), encoding="utf-8")


if __name__ == "__main__":
    main()
