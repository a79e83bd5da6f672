"""Property test of the CLI contract: whatever the inputs, every subcommand
returns 0, 1, 2 or 3, raises nothing and prints no traceback; a data error
(2) or training failure (3) ends stderr with a line that names its kind."""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from agroyield.cli import run
from agroyield.schema import Crop
from helpers import time_limit

# every training call is kept to seconds: two epochs, two trees
_CHEAP = ["--epochs", "2", "--trees", "2"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small valid CSV, a responses file, one jute model per variant and
    one logistic model per crop, all as bytes."""
    work = tmp_path_factory.mktemp("inputs")
    data = work / "d.csv"
    assert run(["generate", "--n", "120", "--seed", "11",
                "--out", str(data)]) == 0
    models = {}
    for variant in ("dnn", "svm", "forest", "logistic"):
        path = work / f"{variant}.json"
        assert run(["train", "--data", str(data), "--model", variant,
                    "--crop", "jute", "--seed", "3", "--out", str(path)]
                   + _CHEAP) == 0
        models[variant] = path.read_bytes()
    per_crop = []
    for crop in Crop:
        path = work / f"{crop.name}.json"
        assert run(["train", "--data", str(data), "--model", "logistic",
                    "--crop", crop.name, "--seed", "3", "--out", str(path)]
                   + _CHEAP) == 0
        per_crop.append(path.read_bytes())
    responses = resources.files("agroyield").joinpath(
        "responses.json").read_bytes()
    return {"data": data.read_bytes(), "models": models,
            "per_crop": per_crop, "responses": responses,
            "scratch": tmp_path_factory.mktemp("calls")}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=True) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _mutated_json(data, doc, label):
    """`doc` with one value, reached by a random walk, replaced."""
    if not isinstance(doc, (dict, list)) or not doc or data.draw(
            st.integers(0, 3), label=f"{label} stop") == 0:
        return data.draw(_JSON, label=f"{label} value")
    key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict)
                                    else range(len(doc))), label=label)
    doc = doc.copy()
    doc[key] = _mutated_json(data, doc[key], label)
    return doc


def _mutated_bytes(data, raw, label):
    """`raw` truncated, with bytes overwritten, with one JSON value
    replaced, or replaced by arbitrary bytes."""
    how = data.draw(st.sampled_from(
        ["truncated", "garbled", "json", "binary"]), label=f"{label} how")
    if how == "truncated":
        return raw[:data.draw(st.integers(0, len(raw)), label=label)]
    if how == "garbled":
        out = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 4), label=f"{label} flips")):
            out[data.draw(st.integers(0, len(out) - 1), label=label)] = (
                data.draw(st.integers(0, 255), label=label))
        return bytes(out)
    if how == "json":
        try:
            doc = json.loads(raw)
        except ValueError:  # a CSV: a JSON document in its place
            doc = None
        return json.dumps(_mutated_json(data, doc, label)).encode()
    return data.draw(st.binary(max_size=64), label=label)


# flag -> values that are valid, out of range or ill-typed; all cheap
_FLAG_VALUES = {
    "--seed": ["4", "x", "-1"],
    "--ratio": ["0.5", "0.9", "1.5", "nan"],
    "--trees": ["1", "0"],
    "--epochs": ["1", "-1"],
    "--lr": ["0.01", "1e300", "inf"],
    "--model": ["forest", "svm", "nope"],
    "--crop": ["jute", "aus_rice", "banana"],
    "--kind": ["yield", "max_temp", "bogus"],
    "--n": ["7", "0", "1000000000000000000", "100000000000000000000"],
    "--noise": ["0.1", "-1"],
}

# the flags each subcommand takes besides --config, --data and --out
_COMMAND_FLAGS = {
    "generate": ["--seed", "--n", "--noise"],
    "clean": [],
    "train": ["--seed", "--ratio", "--model", "--crop", "--epochs", "--lr",
              "--trees"],
    "evaluate": ["--seed", "--ratio"],
    "report": ["--seed", "--ratio", "--epochs", "--lr", "--trees"],
    "plot-data": ["--kind"],
    "select": [],
}

_CONFIG_FIELDS = st.sampled_from([
    "seed", "train_ratio", "n", "noise_sigma", "epochs", "lr", "trees",
    "batch_size", "patience", "model", "crop", "responses", "bogus"])


# what one call gets wrong, if anything; "swap" puts another input file,
# such as another crop's or variant's model, in place of one
_FAULTS = ["none", "file", "swap", "missing", "config", "flag", "drop",
           "foreign"]


def _argv(data, inputs, work):
    """A valid call of a random subcommand with at most one fault."""
    fault = data.draw(st.sampled_from(_FAULTS), label="fault")
    files = []

    def file(name, raw):
        files.append((work / name, raw))
        return str(work / name)

    command = data.draw(st.sampled_from(sorted(_COMMAND_FLAGS)),
                        label="command")
    argv = [command]
    if command == "generate":
        argv += ["--n", "30"]
        if data.draw(st.booleans(), label="responses"):
            argv += ["--responses", file("r.json", inputs["responses"])]
    else:
        argv += ["--data", file("d.csv", inputs["data"])]
    if command in ("train", "report"):
        argv += _CHEAP
    if command == "train":
        argv += ["--model", data.draw(st.sampled_from(sorted(
            inputs["models"])), label="model"), "--crop", "jute"]
    if command == "evaluate":
        variants = data.draw(st.lists(st.sampled_from(sorted(
            inputs["models"])), min_size=1, max_size=2), label="models")
        argv += [file(f"m{i}.json", inputs["models"][v])
                 for i, v in enumerate(variants)]
    if command == "select":
        argv += [file(f"c{i}.json", raw)
                 for i, raw in enumerate(inputs["per_crop"])]
    argv += ["--out", str(work / "out")]
    if fault == "config" or data.draw(st.booleans(), label="config"):
        doc = {"seed": data.draw(st.integers(0, 9), label="config seed")}
        if fault == "config":
            doc = data.draw(st.dictionaries(_CONFIG_FIELDS, _JSON,
                                            max_size=3), label="config doc")
            for key in ("n", "epochs", "trees"):  # keep every call cheap
                if isinstance(doc.get(key), int) and doc[key] > 3:
                    doc[key] = 3
        argv += ["--config", file("c.json", json.dumps(doc).encode())]
    flags = _COMMAND_FLAGS[command]
    for flag in data.draw(st.lists(st.sampled_from(flags), max_size=2)
                          if flags else st.just([]), label="flags"):
        values = _FLAG_VALUES[flag]
        value = values[0] if fault != "flag" else data.draw(
            st.sampled_from(values), label=flag)
        argv += [flag, value]
    if fault == "foreign":  # an unknown flag, or another command's
        flag = data.draw(st.sampled_from(["--bogus", "--coverage"] + sorted(
            set(_FLAG_VALUES) - set(_COMMAND_FLAGS[command]))),
            label="foreign")
        argv += [flag, _FLAG_VALUES.get(flag, ["x"])[0]]
    if fault == "drop":
        del argv[data.draw(st.integers(1, len(argv) - 1), label="drop at")]
    if fault in ("file", "swap", "missing") and files:
        i = data.draw(st.integers(0, len(files) - 1), label="file")
        path, raw = files[i]
        if fault == "file":
            raw = _mutated_bytes(data, raw, path.name)
        elif fault == "swap":
            raw = data.draw(st.sampled_from(
                [inputs["data"], inputs["responses"],
                 *inputs["models"].values(), *inputs["per_crop"]]),
                label="other file")
        files[i] = (path, None if fault == "missing" else raw)
    for path, raw in files:
        if raw is not None:
            path.write_bytes(raw)
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_call_exits_with_a_documented_code(data, inputs):
    work = Path(tempfile.mkdtemp(dir=inputs["scratch"]))
    argv = _argv(data, inputs, work)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with time_limit(60):
            code = run(argv)
    event(f"{argv[0]} exits {code}")
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    prefix = {2: "data error: ", 3: "training failure: "}.get(code)
    if prefix is not None:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(prefix), (argv, err.getvalue())
