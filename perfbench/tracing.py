"""Spans around calls into agroyield's public functions, and the per-layer metrics.

The tracer lives in the benchmark, not in the program: `Tracer.install`
replaces each function listed in `TRACED` with a timing wrapper in every
loaded `agroyield` module that bound it (so `from .models import
load_model` in `cli` is wrapped too), and `uninstall` puts the originals
back. Each span is named `<module>.<function>`, keeps its parent, and may
carry counts taken at the boundary after the span has ended.
"""

from __future__ import annotations

import math
import os
import sys
import time


def _tree_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _nn_counts(args, kwargs, result):
    x, cfg = args[1], args[3]
    _, history = result
    epochs = len(history.train_mse)
    n_fit = len(x) - int(len(x) * cfg.validation_fraction)
    return {"epochs": epochs,
            "steps": epochs * math.ceil(n_fit / cfg.batch_size)}


# (module, function, counts(args, kwargs, result) -> dict or None)
TRACED = (
    ("cli", "run", None),
    ("synthgen", "generate",
     lambda a, k, r: {"records": len(r.records)}),
    ("ingest", "write_csv", None),
    ("ingest", "load_csv",
     lambda a, k, r: {"rows": len(r.records) + len(r.cleaning_log)}),
    ("ingest", "clean",
     lambda a, k, r: {"rows_removed": len(a[0].records) - len(r.records)}),
    ("ingest", "feature_matrix", lambda a, k, r: {"rows": len(r)}),
    ("pipeline", "prepare_crop_split", None),
    ("baselines", "train_forest",
     lambda a, k, r: {"nodes": sum(_tree_nodes(t) for t in r.trees)}),
    ("baselines", "predict_forest_batch", lambda a, k, r: {"rows": len(r)}),
    ("baselines", "train_logistic", None),
    ("baselines", "train_svm", None),
    ("nn", "train", _nn_counts),
    ("models", "save_model",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("models", "load_model",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("models", "predict_model", None),
    ("evaluation", "compare", None),
    ("evaluation", "render_markdown", None),
    ("evaluation", "select_crop", None),
    ("evaluation", "emit_plot_data", None),
)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, counts]
        self.notes = []      # functions or counts that could not be traced
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if counts is not None:
                try:
                    spans[index][4] = counts(args, kwargs, result)
                except Exception as exc:  # a layer changed shape; keep timing
                    self._note(f"{name} counts unavailable: {exc!r}")
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if (n == "agroyield" or n.startswith("agroyield."))
                   and m is not None]
        for mod_name, fn_name, counts in TRACED:
            owner = sys.modules.get(f"agroyield.{mod_name}")
            original = getattr(owner, fn_name, None)
            if original is None:
                self._note(f"agroyield.{mod_name}.{fn_name} not found")
                continue
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _note(self, text):
        if text not in self.notes:
            self.notes.append(text)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict:
    """Per span name: number of calls, total and self seconds, summed counts."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, counts = span
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        for key, value in (counts or {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table


def _total(table, span):
    return table.get(span, {}).get("total_s", 0.0)


def _count(table, span, key):
    return table.get(span, {}).get("counts", {}).get(key, 0)


def _rate(table, span, key):
    seconds = _total(table, span)
    return _count(table, span, key) / seconds if seconds > 0 else 0.0


def _us_per_step(table):
    steps = _count(table, "nn.train", "steps")
    return 1e6 * _total(table, "nn.train") / steps if steps else 0.0


# name -> (unit, better, value(table) summed over the traced units).
# A layer that the workload never calls reads 0.
PER_LAYER = {
    "baselines.forest_train_s": ("s", "lower", lambda t: _total(t, "baselines.train_forest")),
    "baselines.forest_nodes": ("count", "lower", lambda t: _count(t, "baselines.train_forest", "nodes")),
    "baselines.forest_predict_s": ("s", "lower", lambda t: _total(t, "baselines.predict_forest_batch")),
    "baselines.forest_predict_rows_per_s": ("1/s", "higher", lambda t: _rate(t, "baselines.predict_forest_batch", "rows")),
    "baselines.logistic_train_s": ("s", "lower", lambda t: _total(t, "baselines.train_logistic")),
    "baselines.svm_train_s": ("s", "lower", lambda t: _total(t, "baselines.train_svm")),
    "nn.train_s": ("s", "lower", lambda t: _total(t, "nn.train")),
    "nn.epochs_run": ("count", "lower", lambda t: _count(t, "nn.train", "epochs")),
    "nn.sgd_steps": ("count", "lower", lambda t: _count(t, "nn.train", "steps")),
    "nn.us_per_step": ("us", "lower", _us_per_step),
    "models.save_s": ("s", "lower", lambda t: _total(t, "models.save_model")),
    "models.bytes_written": ("bytes", "lower", lambda t: _count(t, "models.save_model", "bytes")),
    "models.load_s": ("s", "lower", lambda t: _total(t, "models.load_model")),
    "models.bytes_read": ("bytes", "lower", lambda t: _count(t, "models.load_model", "bytes")),
    "models.predict_s": ("s", "lower", lambda t: _total(t, "models.predict_model")),
    "synthgen.generate_s": ("s", "lower", lambda t: _total(t, "synthgen.generate")),
    "synthgen.records_per_s": ("1/s", "higher", lambda t: _rate(t, "synthgen.generate", "records")),
    "ingest.write_csv_s": ("s", "lower", lambda t: _total(t, "ingest.write_csv")),
    "ingest.load_csv_s": ("s", "lower", lambda t: _total(t, "ingest.load_csv")),
    "ingest.parse_rows_per_s": ("1/s", "higher", lambda t: _rate(t, "ingest.load_csv", "rows")),
    "ingest.clean_s": ("s", "lower", lambda t: _total(t, "ingest.clean")),
    "ingest.rows_removed": ("count", "lower", lambda t: _count(t, "ingest.clean", "rows_removed")),
    "ingest.feature_matrix_s": ("s", "lower", lambda t: _total(t, "ingest.feature_matrix")),
    "ingest.rows_encoded": ("count", "lower", lambda t: _count(t, "ingest.feature_matrix", "rows")),
    "pipeline.prepare_crop_split_s": ("s", "lower", lambda t: _total(t, "pipeline.prepare_crop_split")),
    "evaluation.compare_s": ("s", "lower", lambda t: _total(t, "evaluation.compare")),
    "evaluation.render_s": ("s", "lower", lambda t: _total(t, "evaluation.render_markdown")),
    "evaluation.select_crop_s": ("s", "lower", lambda t: _total(t, "evaluation.select_crop")),
    "evaluation.emit_plot_data_s": ("s", "lower", lambda t: _total(t, "evaluation.emit_plot_data")),
    "cli.self_s": ("s", "lower", lambda t: t.get("cli.run", {}).get("self_s", 0.0)),
}
TRACE_OVERHEAD = "trace_overhead_s"


def layer_metrics(table: dict, units: int, overhead_s: float) -> dict:
    """Per-layer metrics per timed unit (rates are not divided)."""
    out = {}
    for name, (unit, _, value) in PER_LAYER.items():
        v = value(table)
        out[name] = {"value": v if unit in ("1/s", "us") else v / units,
                     "unit": unit}
    out[TRACE_OVERHEAD] = {"value": overhead_s, "unit": "s"}
    return out
