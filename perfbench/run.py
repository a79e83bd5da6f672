"""agroyield benchmark: times the CLI end to end and, traced, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload report --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py              # all workloads, one after another

Each workload sets up three times in fresh processes (the median is
`setup_s`), then one fresh process calls `agroyield.cli.run` in a closed
loop with one client: an untimed warm-up unit, the workload's minimum
number of units, then more while another one still ends within
`--seconds`. While an untraced unit runs, a tiny fixed kernel is timed
every 20 ms from a signal handler (reference.py); `wall_ref` is the
median over timed units of the unit's time in mean kernel times, and
`wall_s` the median in seconds, the sampler's own time left out.
Outputs of every unit are checked afterwards.
With `--trace 1` every unit runs untraced and then traced, and the
per-layer metrics come from the traced half. The last line of standard
output is the result as JSON: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics untraced, per-layer metrics traced).
BLAS threads are pinned to 1 for every process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUPS = 3
DEADLINE_S = 170.0  # a run ends within 180 s
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
E2E_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ, **BLAS_THREADS, PYTHONPATH=str(root / "src"))
    env.pop("AGROYIELD_SEED", None)  # the program sees only generated inputs
    return env


def run_child(step: str, argv: list, env: dict, log: Path, deadline: float):
    """Run one worker step; return (seconds, resource usage, result)."""
    result = log.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "worker.py"), step, *argv,
           "--result", str(result)]
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=err, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"{step} exited {proc.returncode}: " + " | ".join(tail))
    return seconds, usage, json.loads(result.read_text())


def _tree_digest(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).digest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _git_commit(root: Path):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            digest.update(p.relative_to(root).as_posix().encode() + b"\0")
            digest.update(p.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, wl, seed: int, seconds: float, sizes: dict) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh
                       if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(root), "src_sha256": _src_sha256(root),
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "sizes": {**wl.sizes, **sizes},
    }


def check_units(wl, inputs: Path, units: list) -> list:
    """One problem string per failed call, failed unit check or fidelity break."""
    problems = []
    for u in units:
        bad = [c for c in u["calls"] if c["exit"] != 0]
        for c in bad:
            problems.append(f"unit {u['index']}: exit {c['exit']}: "
                            f"agroyield {' '.join(c['argv'][:1])}")
        if not bad:
            try:
                found = wl.check(inputs, Path(u["dir"]), u["index"])
            except Exception as exc:  # an output shape the check never saw
                found = [f"check raised {exc!r}"]
            if found:
                problems.append(f"unit {u['index']}: " + "; ".join(found[:3]))
    # With --trace 1 every timed unit also runs traced on the same input.
    plain = {u["index"]: Path(u["dir"]) for u in units if not u["traced"]}
    for u in units:
        if u["traced"] and (_tree_digest(plain[u["index"]])
                            != _tree_digest(Path(u["dir"]))):
            problems.append(f"unit {u['index']}: traced outputs differ")
    return problems


def timed(units: list, key: str = "wall_s") -> list:
    """`key` of each untraced unit after the warm-up."""
    return [u[key] for u in units if not (u["traced"] or u["warmup"])]


def _report_lines(wl, units: list, problems: list) -> dict:
    """Workload-specific figures printed beside the end-to-end metrics."""
    extra = {}
    if wl.name == "select":
        ms = [1000 * w for w in timed(units)]
        for q in (50, 95):
            if len(ms) >= stats.min_samples(q):
                extra[f"select_p{q}_ms"] = (stats.percentile(ms, q), "ms")
        extra["select_samples"] = (len(ms), "count")
    if wl.name == "report" and not problems:
        from agroyield.evaluation import METHOD_ORDER

        from workloads import report_mape
        mape = report_mape(Path(units[0]["dir"]))
        for key, label in METHOD_ORDER:
            extra[f"{key}_mape_pct"] = (mape[label], "%")
    return extra


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: int, out_file) -> dict:
    wl = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    env = _child_env(root)
    work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_walls = []
        for k in range(SETUPS):
            inputs = work / f"setup{k}"
            if k:
                shutil.rmtree(work / f"setup{k - 1}")
            wall, _, sizes = run_child(
                "prepare", ["--workload", name, "--inputs", str(inputs),
                            "--seed", str(seed)],
                env, work / f"prepare{k}.log", deadline)
            setup_walls.append(wall)
        _, usage, measured = run_child(
            "measure", ["--workload", name, "--inputs", str(inputs),
                        "--units", str(work / "units"), "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
            env, work / "measure.log", deadline)
        _, _, fingerprint = run_child(
            "fingerprint", ["--inputs", str(work / "fingerprint")],
            env, work / "fingerprint.log", deadline)

        units = measured["units"]
        problems = check_units(wl, inputs, units)
        plain = timed(units)
        e2e = {
            # In kernel times, not seconds: on a shared host a run's
            # seconds move with the host's speed by more than the bound.
            "wall_ref": statistics.median(timed(units, "ref")),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        extra = {"wall_s": (statistics.median(plain), "s"),
                 "kernel_ms": (1000 * statistics.median(timed(units, "kernel_s")),
                               "ms"),
                 **_report_lines(wl, units, problems)}
        if name == "prep":
            extra["records_per_s"] = (sizes["records"] / extra["wall_s"][0], "1/s")
        attempted = sum(len(u["calls"]) for u in units)
        extra["failed_ops_ratio"] = (len(problems) / attempted, "ratio")
        if trace:
            metrics = tracing.layer_metrics(
                measured["layers"], measured["traced_units"],
                measured["trace_overhead_s"])
        else:
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance(root, wl, seed, seconds, sizes)
    print(f"workload {name}  seed {seed}  trace {trace}  units {len(plain)}  "
          f"calls {attempted}")
    shown = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    for key, (value, unit) in {**shown, **extra}.items():
        print(f"  {key:<22} {value:.6g} {unit}")
    if trace:
        print(f"  {'span self time':<40} {'calls':>7} {'self_s':>10} {'total_s':>10}")
        layers = measured["layers"]
        for span, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {span:<40} {row['calls']:>7} {row['self_s']:>10.4f} "
                  f"{row['total_s']:>10.4f}")
        for note in measured["notes"]:
            print(f"  note: {note}")
    for p in problems[:10]:
        print(f"  FAILED {p}", file=sys.stderr)
    print(f"  fingerprint {fingerprint['sha256']}")
    print(f"  provenance {json.dumps(prov, sort_keys=True)}")

    result = {"correct": not problems, "attempted": attempted,
              "failed": len(problems), "metrics": metrics}
    if out_file:
        full = dict(result, end_to_end=e2e,
                    extra={k: v for k, (v, _) in extra.items()},
                    setup_walls_s=setup_walls, unit_walls_s=plain,
                    unit_refs=timed(units, "ref"),
                    fingerprint=fingerprint, provenance=prov,
                    layers=measured.get("layers"))
        Path(out_file).write_text(json.dumps(full, indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "agroyield" / "cli.py").is_file():
        print(f"no agroyield sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before the checks import numpy
    sys.path.insert(0, str(root / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_workload(root, name, args.seed, args.seconds, args.trace,
                         args.out if len(names) == 1 else None)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
