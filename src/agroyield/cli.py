"""Command-line entry point.

Subcommands: generate, clean, train, evaluate, report, plot-data, select.
Each takes the flags of the config fields it reads (`_FIELDS`), and only
those. Precedence: command line > --config JSON file > AGROYIELD_SEED env
var (seed only) > built-in defaults. Exit codes: 0 success, 1 usage
error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

from . import baselines, evaluation, fork, ingest, nn, pipeline, synthgen
from .errors import AgroYieldError, DivergedLoss
from .models import VARIANTS, load_model, save_model
from .rng import derive_seed
from .schema import (VALUE_COLUMNS, VALUE_INDEX, Crop, District, parse_crop,
                     write_file)

log = logging.getLogger("agroyield")

_POSITIVE = (">= 1", lambda v: v >= 1)
# the most records whose (n, 47) float64 value matrix has at most
# sys.maxsize bytes, the largest array NumPy can describe
_MAX_RECORDS = sys.maxsize // (8 * len(VALUE_COLUMNS))
# `report`'s training work (`_training_work`, in row passes) from which it
# trains its crops on every CPU. On a 2-vCPU Xeon, forked reports beat one
# process from about 1,000 row passes on (12 alternating pairs each): 840
# (420 rows x 2) won 6 of 12, 2,000 (1,000 x 2) 10 of 12 by 6 ms, 2,520
# (420 x 6) 12 of 12 by 12 ms, 3,600 (600 x 6) 11 of 12 by 14 ms and
# 10,000 (5,000 x 2) 12 of 12 by 68 ms. Below 4,000 a fork saves at most
# about 14 ms, so the 420-row coverage report with 3 epochs and 3 trees
# (2,520), which perfbench traces in process, keeps every span in one.
_FORK_WORK = 4_000

# The one option table, field -> (type, default, range (text, test) or
# None, flag (None: config file only), help, the commands that read it,
# choices). A default is read from the class that uses the value, the
# train ratio's excepted; epochs and lr are None because each model family
# has its own.
_Field = namedtuple("_Field", "kind default rule flag help commands choices",
                    defaults=[None])
_TRAINING = ("train", "report")
_FIELDS = {
    "seed": _Field(int, 0, None, "--seed", "random seed",
                   ("generate", "train", "evaluate", "report")),
    "train_ratio": _Field(float, 0.8, ("in (0, 1)", lambda v: 0 < v < 1),
                          "--ratio", "train fraction",
                          ("train", "evaluate", "report")),
    "n": _Field(int, synthgen.GenConfig.n_records,
                (f"from 1 to {_MAX_RECORDS}",
                 lambda v: 1 <= v <= _MAX_RECORDS),
                "--n", "number of records", ("generate",)),
    "noise_sigma": _Field(float, synthgen.GenConfig.noise_sigma,
                          ("finite and >= 0", lambda v: 0 <= v < math.inf),
                          "--noise", "relative noise sigma", ("generate",)),
    "epochs": _Field(int, None, _POSITIVE, "--epochs", "training epochs",
                     _TRAINING),
    "lr": _Field(float, None, ("finite and > 0", lambda v: 0 < v < math.inf),
                 "--lr", "learning rate", _TRAINING),
    "trees": _Field(int, baselines.ForestConfig.n_trees, _POSITIVE,
                    "--trees", "forest size", _TRAINING),
    "batch_size": _Field(int, nn.TrainConfig.batch_size, _POSITIVE, None,
                         None, _TRAINING),
    "patience": _Field(int, nn.TrainConfig.patience,
                       (">= 0", lambda v: v >= 0), None, None, _TRAINING),
    "model": _Field(str, None, None, "--model", "model family", ("train",),
                    tuple(VARIANTS)),
    "crop": _Field(str, None, None, "--crop", "crop to train", ("train",)),
    "responses": _Field(str, None, None, "--responses",
                        "crop-response JSON file", ("generate",)),
}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _typed(key: str, value, where: str):
    """`value` if it has the field's type; a float field also takes an int.

    Nothing else is converted: a bool, 2.9 or 3.0 for an int field, or a
    string for a number raises AgroYieldError.
    """
    kind = _FIELDS[key].kind
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError as exc:
            raise AgroYieldError(f"{where}{key} is out of range") from exc
    if type(value) is not kind:
        raise AgroYieldError(
            f"{where}{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def load_config(path) -> dict:
    """Parse a JSON config file, validating field names and types. Ranges
    are checked where a command merges the fields it reads."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise AgroYieldError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad bytes, JSON or nesting
        raise AgroYieldError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise AgroYieldError(f"config {path} must be a JSON object")
    out = {}
    for key, value in raw.items():
        if key not in _FIELDS:
            raise AgroYieldError(f"config {path}: unknown field {key!r}")
        if value is not None:
            value = _typed(key, value, f"config {path}: ")
        out[key] = value
    return out


def _merge(effective: dict, values: dict, where: str) -> None:
    """Set each field of `effective` that `values` gives a value other
    than None, once it is checked against the field's range."""
    for key in effective:
        value, rule = values.get(key), _FIELDS[key].rule
        if value is None:
            continue
        if rule is not None and not rule[1](value):
            raise AgroYieldError(f"{where}{key} must be {rule[0]}, got {value}")
        effective[key] = value


def resolve_config(args: argparse.Namespace, command: str) -> dict:
    """Merge defaults < env seed < config file < explicit flags for the
    fields `command` reads; the config file's other fields are ignored."""
    effective = {key: field.default for key, field in _FIELDS.items()
                 if command in field.commands}
    env_seed = os.environ.get("AGROYIELD_SEED")
    if "seed" in effective and env_seed is not None:
        try:
            effective["seed"] = int(env_seed)
        except ValueError as exc:
            raise AgroYieldError("AGROYIELD_SEED is not an integer") from exc
    if getattr(args, "config", None):
        _merge(effective, load_config(args.config), f"config {args.config}: ")
    _merge(effective, vars(args), "")
    log.info("effective config: %s", json.dumps(effective, sort_keys=True))
    return effective


def _load_clean(path) -> ingest.Dataset:
    return ingest.clean(ingest.load_csv(path))


def _load_records(path) -> ingest.Dataset:
    """The valid rows of `path`; a data error when there is none."""
    dataset = _load_clean(path)
    if len(dataset) == 0:
        raise AgroYieldError(f"{path} has no valid records")
    return dataset


def _load_crop_model(path):
    model = load_model(path)
    if model.crop is None:
        raise AgroYieldError(f"model file {path} carries no crop tag")
    return model


def _write_text(path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_file(path, [text.encode()])


def _emit_json(doc, path) -> None:
    """Write indented, key-sorted JSON to `path`, or to stdout if it is None."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------- subcommands

def _cmd_generate(args, cfg):
    n = cfg["n"]
    if args.coverage:  # every (district, year, crop) once
        first, last = synthgen.GenConfig.years
        n = len(District) * (last - first + 1) * len(Crop)
    gen_cfg = synthgen.GenConfig(
        n_records=n,
        seed=derive_seed(cfg["seed"], "synthgen"),
        noise_sigma=cfg["noise_sigma"],
    )
    responses = synthgen.load_responses(cfg["responses"])
    try:
        dataset = synthgen.generate(gen_cfg, responses)
    except MemoryError as exc:
        raise AgroYieldError(f"cannot generate {n} records: {exc}") from exc
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    ingest.write_csv(dataset, args.out)
    log.info("wrote %d records to %s", len(dataset), args.out)
    return 0


def _cmd_clean(args, cfg):
    dataset = _load_clean(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ingest.write_csv(dataset, out / "cleaned.csv")
    _write_text(out / "cleaning_log.jsonl", ingest.cleaning_log_jsonl(dataset))
    log.info("kept %d records, logged %d removals",
             len(dataset), len(dataset.cleaning_log))
    return 0


def _cmd_train(args, cfg):
    if cfg["model"] is None or cfg["crop"] is None:
        raise AgroYieldError("train requires --model and --crop")
    try:
        crop = parse_crop(cfg["crop"])
    except ValueError as exc:
        raise AgroYieldError(str(exc)) from exc
    dataset = _load_clean(args.data)
    rows = pipeline.split_trainable(dataset, crop, cfg["train_ratio"],
                                    cfg["seed"])
    crop_split = pipeline.prepare_crop_split(dataset, crop, *rows)
    model = pipeline.train_variant(cfg["model"], crop_split, cfg["seed"], cfg)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_model(model, args.out)
    if model.history is not None:
        _write_text(str(args.out) + ".history.csv", model.history.to_csv())
    log.info("saved %s model for %s to %s", cfg["model"], crop.name, args.out)
    return 0


def _cmd_evaluate(args, cfg):
    dataset = _load_clean(args.data)
    results, tests = {}, {}  # crop -> its checked, encoded test rows
    for path in args.models:
        model = _load_crop_model(path)
        if model.crop not in tests:
            _, rows = pipeline.split_crop(
                dataset, model.crop, cfg["train_ratio"], cfg["seed"])
            tests[model.crop] = pipeline.encode_rows(dataset, rows)
            evaluation.check_scorable(model.crop, tests[model.crop][1])
        metrics = evaluation.evaluate(model, *tests[model.crop])
        results[str(path)] = {
            "variant": model.variant,
            "crop": model.crop.name,
            "accuracy_pct": metrics.accuracy_pct,
            "error_pct": metrics.error_pct,
            "n_test": metrics.n_test,
        }
    _emit_json(results, args.out)
    return 0


def _train_crops(dataset, cfg, splits):
    """For each (crop, train rows, test rows) of `splits`, in order,
    encoded where this runs: (crop, variant, model) of each of its four
    variants as it is trained, then (crop, None, metrics by variant) scored
    on its test rows."""
    for crop, train_rows, test_rows in splits:
        crop_split = pipeline.prepare_crop_split(dataset, crop, train_rows,
                                                 test_rows)
        trained = {}
        for variant, _ in evaluation.METHOD_ORDER:
            trained[variant] = pipeline.train_variant(
                variant, crop_split, cfg["seed"], cfg)
            yield crop, variant, trained[variant]
        yield crop, None, evaluation.compare(trained, crop_split.x_test,
                                             crop_split.y_test)
        del crop_split, trained  # before the next crop's split is made


def _training_work(rows: int, cfg: dict) -> int:
    """The training work of a report on `rows` cleaned rows, in row passes:
    each row is passed once per epoch and once per tree. Unset epochs count
    as the network's `max_epochs`."""
    return rows * ((cfg["epochs"] or nn.TrainConfig.max_epochs)
                   + cfg["trees"])


def _cmd_report(args, cfg):
    """Train and score each crop's four variants, then write the report.
    Every crop is split and checked once, first, before anything is made
    under `--out`: it must split with a train row and have test yields that
    can be scored. Each model file is saved as its model comes in, and each
    crop logged once scored, in crop order.

    From `_FORK_WORK` row passes of training on, the crops are trained in
    the `fork.each` of their ranges, one crop at least per range, with
    part files under `--out`, so the files, the log and any error raised
    are those of one process."""
    dataset = _load_records(args.data)
    splits = []  # (crop, train rows, test rows) of each crop present
    for crop in Crop:
        if (dataset.crop == crop.value).any():
            train, test = pipeline.split_trainable(
                dataset, crop, cfg["train_ratio"], cfg["seed"])
            evaluation.check_scorable(
                crop, dataset.values[test, VALUE_INDEX["yield"]])
            splits.append((crop, train, test))
    out = Path(args.out)
    (out / "models").mkdir(parents=True, exist_ok=True)
    most = (len(splits) if _training_work(len(dataset), cfg) >= _FORK_WORK
            else 1)
    metrics_by_crop = {}
    with fork.each(functools.partial(_train_crops, dataset, cfg),
                   [splits[start:stop]
                    for start, stop in fork.ranges(len(splits), most)],
                   out) as results:
        for crop, variant, result in results:
            if variant is None:
                metrics_by_crop[crop] = result
                log.info("evaluated %s", crop.name)
            else:
                save_model(result, out / "models"
                           / f"{crop.name.lower()}_{variant}.json")
    report = evaluation.EvalReport(
        metrics_by_crop=metrics_by_crop, source=dataset.source,
        seed=cfg["seed"], train_ratio=cfg["train_ratio"])
    _write_text(out / "report.md", evaluation.render_markdown(report))
    _emit_json(evaluation.report_to_dict(report), out / "report.json")
    return 0


def _cmd_plot_data(args, cfg):
    dataset = _load_records(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kinds = [args.kind] if args.kind else list(evaluation.PLOT_KINDS)
    for kind in kinds:
        series = evaluation.emit_plot_data(dataset, kind)
        _write_text(out / f"{kind}.csv", evaluation.plot_series_to_csv(series))
    return 0


def _cmd_select(args, cfg):
    per_crop, paths = {}, {}
    for path in args.models:
        model = _load_crop_model(path)
        if model.crop in per_crop:
            raise AgroYieldError(f"crop {model.crop.name} has two model "
                                 f"files: {paths[model.crop]} and {path}")
        per_crop[model.crop], paths[model.crop] = model, path
    dataset = _load_records(args.data)
    record = dataset.records[0]
    rec = evaluation.select_crop(per_crop, record)
    doc = {
        "district": record.district.name,
        "year": record.year,
        "predicted_yield_t_ha": {c.name: rec.predicted[c] for c in Crop},
        "selected": rec.selected.name,
    }
    _emit_json(doc, args.out)
    return 0


# ---------------------------------------------------------------- parser

@functools.cache  # built once per process: no action keeps state between parses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agroyield",
        description="Crop selection and yield prediction pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, out="output directory", required=True,
                data=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file")
        if data:
            p.add_argument("--data", required=True, help="input CSV")
        p.add_argument("--out", required=required, help=out)
        return p

    p = command("generate", _cmd_generate, "write a synthetic dataset CSV",
                "output CSV", data=False)
    count = p.add_mutually_exclusive_group()  # --n joins it below
    count.add_argument("--coverage", action="store_true",
                       help="one record per (district, year, crop)")
    command("clean", _cmd_clean, "deduplicate and drop invalid records")
    command("train", _cmd_train, "train one model for one crop",
            "model JSON path")
    p = command("evaluate", _cmd_evaluate, "evaluate saved models",
                "metrics JSON path (default stdout)", required=False)
    p.add_argument("models", nargs="+", help="model JSON files")
    command("report", _cmd_report, "full 4-model x per-crop comparison")
    p = command("plot-data", _cmd_plot_data, "emit plot-ready CSV series")
    p.add_argument("--kind", choices=list(evaluation.PLOT_KINDS))
    p = command("select", _cmd_select, "recommend the best crop for a record",
                "recommendation JSON path (default stdout)", required=False)
    p.add_argument("models", nargs="+", help="six per-crop model files")
    for name, p in sub.choices.items():  # each field's flag where it is read
        for key, field in _FIELDS.items():
            if field.flag and name in field.commands:
                into = count if (name, key) == ("generate", "n") else p
                into.add_argument(field.flag, dest=key, type=field.kind,
                                  choices=field.choices, help=field.help)
    return parser


def run(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s",
                        stream=sys.stderr, force=True)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = resolve_config(args, args.command)
        return args.func(args, cfg)
    except DivergedLoss as exc:
        log.error("training failure: %s", exc)
        return 3
    except (AgroYieldError, OSError) as exc:
        log.error("data error: %s", exc)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
