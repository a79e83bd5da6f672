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

from . import evaluation, ingest, pipeline, synthgen
from .errors import AgroYieldError, DivergedLoss, MalformedConfig
from .models import VARIANTS, load_model, save_model
from .rng import derive_seed
from .schema import Crop, District, parse_crop

log = logging.getLogger("agroyield")

_POSITIVE = (">= 1", lambda v: v >= 1)

# field -> (type, default, (allowed range, test) or None). Ranges are
# checked on config-file values and again on the merged configuration.
_FIELDS = {
    "seed": (int, 0, None),
    "train_ratio": (float, 0.8, ("in (0, 1)", lambda v: 0 < v < 1)),
    "n": (int, 10000, _POSITIVE),
    "noise_sigma": (float, 0.05,
                    ("finite and >= 0", lambda v: 0 <= v < math.inf)),
    "epochs": (int, None, _POSITIVE),
    "lr": (float, None, ("finite and > 0", lambda v: 0 < v < math.inf)),
    "trees": (int, 100, _POSITIVE),
    "batch_size": (int, 32, _POSITIVE),
    "patience": (int, 20, (">= 0", lambda v: v >= 0)),
    "model": (str, None, None),
    "crop": (str, None, None),
    "responses": (str, None, None),
}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _check_ranges(values: dict, where: str) -> None:
    for key, (_, _, rule) in _FIELDS.items():
        value = values.get(key)
        if rule is not None and value is not None and not rule[1](value):
            raise MalformedConfig(f"{where}{key} must be {rule[0]}, got {value}")


def _typed(key: str, value, where: str):
    """`value` if it has the field's type; a float field also takes an int.

    Nothing else is converted: a bool, 2.9 or 3.0 for an int field, or a
    string for a number raises MalformedConfig.
    """
    kind = _FIELDS[key][0]
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError as exc:
            raise MalformedConfig(f"{where}{key} is out of range") from exc
    if type(value) is not kind:
        raise MalformedConfig(
            f"{where}{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def load_config(path) -> dict:
    """Parse a JSON config file, validating field names, types and ranges."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise MalformedConfig(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad bytes, JSON or nesting
        raise MalformedConfig(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedConfig(f"config {path} must be a JSON object")
    out = {}
    for key, value in raw.items():
        if key not in _FIELDS:
            raise MalformedConfig(f"config {path}: unknown field {key!r}")
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
            raise MalformedConfig(f"AGROYIELD_SEED is not an integer") from exc
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


def _load_crop_model(path):
    model = load_model(path)
    if model.crop is None:
        raise MalformedConfig(f"model file {path} carries no crop tag")
    return model


def _write_text(path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
    if args.coverage:
        n = len(District) * 10 * len(Crop)  # every (district, year, crop)
    gen_cfg = synthgen.GenConfig(
        n_records=n,
        seed=derive_seed(cfg["seed"], "synthgen"),
        noise_sigma=cfg["noise_sigma"],
    )
    responses = synthgen.load_responses(cfg["responses"])
    dataset = synthgen.generate(gen_cfg, responses)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    ingest.write_csv(dataset, args.out)
    log.info("wrote %d records to %s", len(dataset), args.out)
    return 0


def _cmd_clean(args, cfg):
    dataset = ingest.clean(ingest.load_csv(args.data))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ingest.write_csv(dataset, out / "cleaned.csv")
    _write_text(out / "cleaning_log.jsonl", ingest.cleaning_log_jsonl(dataset))
    log.info("kept %d records, logged %d removals",
             len(dataset), len(dataset.cleaning_log))
    return 0


def _cmd_train(args, cfg):
    if cfg["model"] is None or cfg["crop"] is None:
        raise MalformedConfig("train requires --model and --crop")
    try:
        crop = parse_crop(cfg["crop"])
    except ValueError as exc:
        raise MalformedConfig(str(exc)) from exc
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
    results = {}
    for path in args.models:
        model = _load_crop_model(path)
        _, test = pipeline.split_crop(
            dataset, model.crop, cfg["train_ratio"], cfg["seed"])
        metrics = evaluation.evaluate(model, test)
        results[str(path)] = {
            "variant": model.variant,
            "crop": model.crop.name,
            "accuracy_pct": metrics.accuracy_pct,
            "error_pct": metrics.error_pct,
            "n_test": metrics.n_test,
        }
    _emit_json(results, args.out)
    return 0


def _cmd_report(args, cfg):
    dataset = _load_clean(args.data)
    out = Path(args.out)
    (out / "models").mkdir(parents=True, exist_ok=True)
    rows_by_crop = {}
    for crop in Crop:
        if not (dataset.crop == crop.value).any():
            continue
        crop_split = pipeline.prepare_crop_split(
            dataset, crop, cfg["train_ratio"], cfg["seed"])
        trained = {}
        for variant, _ in evaluation.METHOD_ORDER:
            model = pipeline.train_variant(variant, crop_split, cfg["seed"],
                                           _hyper(cfg))
            trained[variant] = model
            save_model(model, out / "models" / f"{crop.name.lower()}_{variant}.json")
        rows_by_crop[crop] = evaluation.compare(
            trained, crop_split.test, cfg["train_ratio"])
        log.info("evaluated %s", crop.name)
    report = evaluation.EvalReport(
        rows_by_crop=rows_by_crop, source=dataset.source,
        seed=cfg["seed"], train_ratio=cfg["train_ratio"])
    _write_text(out / "report.md", evaluation.render_markdown(report))
    _emit_json(evaluation.report_to_dict(report), out / "report.json")
    return 0


def _cmd_plot_data(args, cfg):
    dataset = _load_clean(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kinds = [args.kind] if args.kind else list(evaluation.PLOT_KINDS)
    for kind in kinds:
        series = evaluation.emit_plot_data(dataset, kind)
        _write_text(out / f"{kind}.csv", evaluation.plot_series_to_csv(series))
    return 0


def _cmd_select(args, cfg):
    per_crop = {m.crop: m for m in map(_load_crop_model, args.models)}
    dataset = _load_clean(args.data)
    if len(dataset) == 0:
        raise MalformedConfig(f"{args.data} has no valid records")
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
