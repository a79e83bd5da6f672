"""The benchmark's workloads: what each prepares, times and checks.

Every workload drives `agroyield.cli.run`, the function behind the
`agroyield` command. `prepare` runs in a fresh process before timing and
writes the inputs; `unit` gives the CLI calls of one timed unit; `check`
looks at a unit's outputs afterwards and returns what is wrong with them.

- report: the paper's headline experiment, four model families per crop,
  on 1000 records so that a run holds several units and reports their
  median. Forest training is about 65% and DNN training about 22% of it.
- prep: generate, clean and plot-data on 10000 records; no model is
  trained, so a forest or DNN change predicts no change here.
- select: a closed loop of `select` calls on saved forests; about 90% of a
  call is loading the six model files, so the model-file format shows here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REPORT_RECORDS = 1000
REPORT_TREES = 30
PREP_RECORDS = 10000
SELECT_RECORDS = 2000
SELECT_TREES = 30
SELECT_REQUESTS = 50
# A run's wall_ref is the median of its timed units, so it makes several.
REPORT_MIN_UNITS = 5
PREP_MIN_UNITS = 5
# p95 is reported only with ten samples beyond it (stats.min_samples(95)).
SELECT_MIN_CALLS = 200
# Keeps the request records apart from the training records of the same seed.
REQUEST_SEED_OFFSET = 1_000_003

PLOT_HEADER = "kind,district,year,crop,value"
REPORT_FILES = 26  # report.md, report.json and 4 models x 6 crops


def _cli(*argv) -> None:
    """One setup call; setup that fails leaves nothing to measure."""
    from agroyield.cli import run
    argv = [str(a) for a in argv]
    code = run(argv)
    if code != 0:
        raise RuntimeError(f"setup call exited {code}: agroyield {' '.join(argv)}")


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _data_lines(csv_path: Path) -> int:
    return _lines(csv_path) - 1  # header


def _crop_names() -> list:
    from agroyield.schema import Crop
    return [c.name for c in Crop]


# ------------------------------------------------------------------ report

def _prepare_report(inp: Path, seed: int) -> dict:
    _cli("generate", "--n", REPORT_RECORDS, "--seed", seed, "--out", inp / "raw.csv")
    _cli("clean", "--data", inp / "raw.csv", "--out", inp)
    return {"records": _data_lines(inp / "cleaned.csv")}


def _unit_report(inp: Path, out: Path, seed: int, index: int) -> list:
    return [["report", "--data", str(inp / "cleaned.csv"),
             "--trees", str(REPORT_TREES), "--out", str(out)]]


def _check_report(inp: Path, out: Path, index: int) -> list:
    from agroyield.errors import AgroYieldError
    from agroyield.models import load_model
    problems = []
    files = sorted(p for p in out.rglob("*") if p.is_file())
    if len(files) != REPORT_FILES:
        problems.append(f"{len(files)} output files, expected {REPORT_FILES}")
    for path in out.glob("models/*.json"):
        try:
            load_model(path)
        except (AgroYieldError, OSError) as exc:
            problems.append(f"{path.name} does not load: {exc}")
    try:
        report = json.loads((out / "report.json").read_text())
        rows = [r for crop_rows in report["crops"].values() for r in crop_rows]
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        return problems + [f"report.json unreadable: {exc!r}"]
    for r in rows:
        if not math.isclose(r["accuracy_pct"] + r["error_pct"], 100.0,
                            rel_tol=0.0, abs_tol=1e-9):
            problems.append(f"{r['method']}: accuracy + error != 100")
    return problems


def report_mape(out: Path) -> dict:
    """Mean test error_pct of each method over the crops in report.json."""
    report = json.loads((out / "report.json").read_text())
    by_method = {}
    for crop_rows in report["crops"].values():
        for r in crop_rows:
            by_method.setdefault(r["method"], []).append(r["error_pct"])
    return {m: sum(v) / len(v) for m, v in by_method.items()}


# -------------------------------------------------------------------- prep

def _prepare_prep(inp: Path, seed: int) -> dict:
    # prep makes its own inputs inside the timed unit; its setup is the
    # start-up of a fresh CLI process, which every workload's setup includes.
    import agroyield.cli  # noqa: F401
    return {"records": PREP_RECORDS}


def _unit_prep(inp: Path, out: Path, seed: int, index: int) -> list:
    return [
        ["generate", "--n", str(PREP_RECORDS), "--seed", str(seed),
         "--out", str(out / "raw.csv")],
        ["clean", "--data", str(out / "raw.csv"), "--out", str(out / "clean")],
        ["plot-data", "--data", str(out / "clean" / "cleaned.csv"),
         "--out", str(out / "plots")],
    ]


def _check_prep(inp: Path, out: Path, index: int) -> list:
    from agroyield.evaluation import PLOT_KINDS
    problems = []
    try:
        generated = _data_lines(out / "raw.csv")
        kept = _data_lines(out / "clean" / "cleaned.csv")
        removed = _lines(out / "clean" / "cleaning_log.jsonl")
    except OSError as exc:
        return [f"missing output: {exc}"]
    if kept + removed != generated:
        problems.append(f"kept {kept} + removed {removed} != generated {generated}")
    for kind in PLOT_KINDS:
        try:
            with open(out / "plots" / f"{kind}.csv", encoding="utf-8") as fh:
                header = fh.readline().rstrip("\n")
        except OSError as exc:
            problems.append(f"plot {kind}: {exc}")
            continue
        if header != PLOT_HEADER:
            problems.append(f"plot {kind}: header {header!r}")
    return problems


# ------------------------------------------------------------------ select

def _models(inp: Path) -> list:
    return [str(inp / f"{name.lower()}_forest.json") for name in _crop_names()]


def _prepare_select(inp: Path, seed: int) -> dict:
    from agroyield import evaluation, ingest
    from agroyield.models import load_model

    _cli("generate", "--n", SELECT_RECORDS, "--seed", seed, "--out", inp / "raw.csv")
    _cli("clean", "--data", inp / "raw.csv", "--out", inp)
    models = _models(inp)
    for name, path in zip(_crop_names(), models):
        _cli("train", "--data", inp / "cleaned.csv", "--model", "forest",
             "--crop", name, "--trees", SELECT_TREES, "--out", path)

    req = inp / "requests"
    _cli("generate", "--n", 2 * SELECT_REQUESTS, "--seed", seed + REQUEST_SEED_OFFSET,
         "--out", req / "raw.csv")
    _cli("clean", "--data", req / "raw.csv", "--out", req)
    header, *rows = (req / "cleaned.csv").read_text(encoding="utf-8").splitlines()
    if len(rows) < SELECT_REQUESTS:
        raise RuntimeError(f"only {len(rows)} valid request records")

    per_crop = {m.crop: m for m in map(load_model, models)}
    expected = []
    for i, row in enumerate(rows[:SELECT_REQUESTS]):
        path = req / f"{i:02d}.csv"
        path.write_text(f"{header}\n{row}\n", encoding="utf-8")
        record = ingest.clean(ingest.load_csv(path)).records[0]
        rec = evaluation.select_crop(per_crop, record)
        expected.append({
            "district": record.district.name,
            "year": record.year,
            "predicted_yield_t_ha": {c.name: v for c, v in rec.predicted.items()},
            "selected": rec.selected.name,
        })
    (inp / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return {"records": 1, "train_records": _data_lines(inp / "cleaned.csv"),
            "requests": SELECT_REQUESTS}


def _unit_select(inp: Path, out: Path, seed: int, index: int) -> list:
    request = inp / "requests" / f"{index % SELECT_REQUESTS:02d}.csv"
    return [["select", "--data", str(request), "--out", str(out / "answer.json"),
             *_models(inp)]]


def _check_select(inp: Path, out: Path, index: int) -> list:
    try:
        answer = json.loads((out / "answer.json").read_text(encoding="utf-8"))
        predicted = answer["predicted_yield_t_ha"]
        best = max(_crop_names(), key=lambda c: predicted[c])  # first wins ties
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"answer unreadable: {exc!r}"]
    problems = []
    if answer.get("selected") != best:
        problems.append(f"selected {answer.get('selected')}, argmax is {best}")
    expected = json.loads((inp / "expected.json").read_text(encoding="utf-8"))
    if answer != expected[index % SELECT_REQUESTS]:
        problems.append(f"answer differs from setup's select_crop for request "
                        f"{index % SELECT_REQUESTS}")
    return problems


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable    # (inputs dir, seed) -> sizes; in a fresh process
    unit: Callable       # (inputs dir, unit dir, seed, unit index) -> argv lists
    check: Callable      # (inputs dir, unit dir, unit index) -> problems
    min_units: int       # timed units a run makes at least
    sizes: dict          # workload sizes for the provenance block


WORKLOADS = {
    w.name: w for w in (
        Workload("report", _prepare_report, _unit_report, _check_report,
                 REPORT_MIN_UNITS,
                 {"generate_n": REPORT_RECORDS, "trees": REPORT_TREES}),
        Workload("prep", _prepare_prep, _unit_prep, _check_prep,
                 PREP_MIN_UNITS,
                 {"generate_n": PREP_RECORDS}),
        Workload("select", _prepare_select, _unit_select, _check_select,
                 SELECT_MIN_CALLS,
                 {"generate_n": SELECT_RECORDS, "trees": SELECT_TREES,
                  "requests": SELECT_REQUESTS,
                  "request_seed_offset": REQUEST_SEED_OFFSET}),
    )
}
