"""Command-line entry point.

Subcommands: generate, clean, train, evaluate, report, plot-data, select.
Flag precedence: command line > --config JSON file > AGROYIELD_SEED env
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

# field -> (type, default, (allowed range, test) or None). Ranges are
# checked on config-file values and again on the merged configuration.
# A default is read from the class that uses the value, the train ratio's
# excepted; epochs and lr are None because each model family has its own.
_FIELDS = {
    "seed": (int, 0, None),
    "train_ratio": (float, 0.8, ("in (0, 1)", lambda v: 0 < v < 1)),
    "n": (int, synthgen.GenConfig.n_records,
          (f"from 1 to {_MAX_RECORDS}", lambda v: 1 <= v <= _MAX_RECORDS)),
    "noise_sigma": (float, synthgen.GenConfig.noise_sigma,
                    ("finite and >= 0", lambda v: 0 <= v < math.inf)),
    "epochs": (int, None, _POSITIVE),
    "lr": (float, None, ("finite and > 0", lambda v: 0 < v < math.inf)),
    "trees": (int, baselines.ForestConfig.n_trees, _POSITIVE),
    "batch_size": (int, nn.TrainConfig.batch_size, _POSITIVE),
    "patience": (int, nn.TrainConfig.patience, (">= 0", lambda v: v >= 0)),
    "model": (str, None, None),
    "crop": (str, None, None),
    "responses": (str, None, None),
}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _check_ranges(values: dict, where: str) -> None:
    for key, (_, _, rule) in _FIELDS.items():
        value = values.get(key)
        if rule is not None and value is not None and not rule[1](value):
            raise AgroYieldError(f"{where}{key} must be {rule[0]}, got {value}")


def _typed(key: str, value, where: str):
    """`value` if it has the field's type; a float field also takes an int.

    Nothing else is converted: a bool, 2.9 or 3.0 for an int field, or a
    string for a number raises AgroYieldError.
    """
    kind = _FIELDS[key][0]
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
    """Parse a JSON config file, validating field names, types and ranges."""
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
    _check_ranges(out, f"config {path}: ")
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults < env seed < config file < explicit flags."""
    effective = {key: default for key, (_, default, _) in _FIELDS.items()}
    env_seed = os.environ.get("AGROYIELD_SEED")
    if env_seed is not None:
        try:
            effective["seed"] = int(env_seed)
        except ValueError as exc:
            raise AgroYieldError("AGROYIELD_SEED is not an integer") from exc
    if getattr(args, "config", None):
        file_values = load_config(args.config)
        for key, value in file_values.items():
            if value is not None:
                effective[key] = value
    flag_of = {"train_ratio": "ratio", "noise_sigma": "noise"}
    for key in _FIELDS:
        value = getattr(args, flag_of.get(key, key), None)
        if value is not None:
            effective[key] = value
    _check_ranges(effective, "")
    log.info("effective config: %s", json.dumps(effective, sort_keys=True))
    return effective


def _hyper(cfg: dict) -> pipeline.Hyperparams:
    return pipeline.Hyperparams(
        epochs=cfg["epochs"], learning_rate=cfg["lr"], trees=cfg["trees"],
        batch_size=cfg["batch_size"], patience=cfg["patience"],
    )


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
    crop_split = pipeline.prepare_crop_split(
        dataset, crop, cfg["train_ratio"], cfg["seed"])
    model = pipeline.train_variant(cfg["model"], crop_split, cfg["seed"],
                                   _hyper(cfg))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_model(model, args.out)
    if model.history is not None:
        _write_text(str(args.out) + ".history.csv", model.history.to_csv())
    log.info("saved %s model for %s to %s", cfg["model"], crop.name, args.out)
    return 0


def _cmd_evaluate(args, cfg):
    dataset = _load_clean(args.data)
    results, tests = {}, {}  # crop -> its encoded test rows, made once
    for path in args.models:
        model = _load_crop_model(path)
        if model.crop not in tests:
            _, rows = pipeline.split_crop(
                dataset, model.crop, cfg["train_ratio"], cfg["seed"])
            tests[model.crop] = pipeline.encode_rows(dataset, rows)
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


def _train_crops(dataset, cfg, crops):
    """For each crop of `crops`, in order, split where this runs: (crop,
    variant, model) of each of its four variants as it is trained, then
    (crop, None, metrics by variant) scored on its test rows."""
    for crop in crops:
        crop_split = pipeline.prepare_crop_split(
            dataset, crop, cfg["train_ratio"], cfg["seed"])
        trained = {}
        for variant, _ in evaluation.METHOD_ORDER:
            trained[variant] = pipeline.train_variant(
                variant, crop_split, cfg["seed"], _hyper(cfg))
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
    Every crop is checked first, before anything is made under `--out`: it
    must split with a train row and have test yields that can be scored.
    Each model file is saved as its model comes in, and each crop logged
    once scored, in crop order.

    From `_FORK_WORK` row passes of training on, the crops are trained in
    the `fork.each` of their ranges, one crop at least per range, with
    part files under `--out`, so the files, the log and any error raised
    are those of one process."""
    dataset = _load_records(args.data)
    crops = [crop for crop in Crop if (dataset.crop == crop.value).any()]
    for crop in crops:
        _, test = pipeline.split_trainable(dataset, crop, cfg["train_ratio"],
                                           cfg["seed"])
        evaluation.check_scorable(
            crop, dataset.values[test, VALUE_INDEX["yield"]])
    out = Path(args.out)
    (out / "models").mkdir(parents=True, exist_ok=True)
    most = (len(crops) if _training_work(len(dataset), cfg) >= _FORK_WORK
            else 1)
    metrics_by_crop = {}
    with fork.each(functools.partial(_train_crops, dataset, cfg),
                   [crops[start:stop]
                    for start, stop in fork.ranges(len(crops), most)],
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

    def common(p, data=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--ratio", type=float, help="train fraction")
        if data:
            p.add_argument("--data", required=True, help="input CSV")

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    common(p, data=False)
    p.add_argument("--n", type=int)
    p.add_argument("--noise", type=float, help="relative noise sigma")
    p.add_argument("--coverage", action="store_true",
                   help="one record per (district, year, crop)")
    p.add_argument("--responses", help="crop-response JSON file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("clean", help="deduplicate and drop invalid records")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("train", help="train one model for one crop")
    common(p)
    p.add_argument("--model", choices=list(VARIANTS))
    p.add_argument("--crop")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--trees", type=int)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate saved models")
    common(p)
    p.add_argument("models", nargs="+", help="model JSON files")
    p.add_argument("--out", help="metrics JSON path (default stdout)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="full 4-model x per-crop comparison")
    common(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--trees", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("plot-data", help="emit plot-ready CSV series")
    common(p)
    p.add_argument("--kind", choices=list(evaluation.PLOT_KINDS))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_plot_data)

    p = sub.add_parser("select", help="recommend the best crop for a record")
    common(p)
    p.add_argument("models", nargs="+", help="six per-crop model files")
    p.add_argument("--out", help="recommendation JSON path (default stdout)")
    p.set_defaults(func=_cmd_select)

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
        cfg = resolve_config(args)
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
