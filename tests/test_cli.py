import copy
import json
import math
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agroyield import cli, ingest
from agroyield.cli import load_config, resolve_config, run
from agroyield.errors import MalformedConfig
from helpers import time_limit


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    assert run(["generate", "--coverage", "--seed", "7",
                "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_coverage_row_count(self, data_csv):
        lines = data_csv.read_text().strip().splitlines()
        assert len(lines) == 421  # header + 7 districts * 10 years * 6 crops

    def test_deterministic_output(self, data_csv, tmp_path):
        other = tmp_path / "again.csv"
        assert run(["generate", "--coverage", "--seed", "7",
                    "--out", str(other)]) == 0
        assert other.read_bytes() == data_csv.read_bytes()

    def test_explicit_n(self, tmp_path):
        out = tmp_path / "n.csv"
        assert run(["generate", "--n", "33", "--seed", "1",
                    "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 34


class TestClean:
    def test_duplicate_removed_and_logged(self, data_csv, tmp_path):
        lines = data_csv.read_text().splitlines(keepends=True)
        dup = tmp_path / "dup.csv"
        dup.write_text("".join(lines) + lines[1])  # re-insert first data row
        out = tmp_path / "cleaned"
        assert run(["clean", "--data", str(dup), "--out", str(out)]) == 0
        cleaned = (out / "cleaned.csv").read_text().splitlines()
        assert len(cleaned) == 421
        log = [json.loads(l)
               for l in (out / "cleaning_log.jsonl").read_text().splitlines()]
        assert log == [{"row": 420, "reason": "duplicate"}]

    def test_year_beyond_float_range_is_logged(self, data_csv, tmp_path):
        lines = data_csv.read_text().splitlines(keepends=True)
        district, _, rest = lines[1].split(",", 2)
        lines[1] = ",".join([district, "9" * 400, rest])
        huge = tmp_path / "huge.csv"
        huge.write_text("".join(lines))
        out = tmp_path / "cleaned"
        assert run(["clean", "--data", str(huge), "--out", str(out)]) == 0
        kept = len((out / "cleaned.csv").read_text().splitlines()) - 1
        log = [json.loads(l)
               for l in (out / "cleaning_log.jsonl").read_text().splitlines()]
        assert log == [{"row": 0, "reason": "year not finite"}]
        assert kept + len(log) == len(lines) - 1


    def test_log_names_the_source_row_of_every_removal(self, data_csv,
                                                        tmp_path):
        lines = data_csv.read_text().splitlines(keepends=True)
        valid = lines[1]
        unknown = "atlantis," + valid.split(",", 1)[1]
        fields = valid.split(",")
        fields[ingest.CSV_HEADER.index("humidity")] = "150"
        humid = ",".join(fields)
        path = tmp_path / "four.csv"
        path.write_text(lines[0] + unknown + valid + valid + humid)
        out = tmp_path / "cleaned"
        assert run(["clean", "--data", str(path), "--out", str(out)]) == 0
        log = [json.loads(l)
               for l in (out / "cleaning_log.jsonl").read_text().splitlines()]
        assert log == [{"row": 0, "reason": "parse failure"},
                       {"row": 2, "reason": "duplicate"},
                       {"row": 3, "reason": "humidity out of [0,100]"}]
        assert len((out / "cleaned.csv").read_text().splitlines()) == 2


class TestTrainEvaluateSelect:
    def test_train_then_evaluate(self, data_csv, tmp_path):
        model_path = tmp_path / "jute_forest.json"
        assert run(["train", "--data", str(data_csv), "--model", "forest",
                    "--crop", "jute", "--trees", "3", "--seed", "5",
                    "--out", str(model_path)]) == 0
        metrics_path = tmp_path / "metrics.json"
        assert run(["evaluate", "--data", str(data_csv), "--seed", "5",
                    str(model_path), "--out", str(metrics_path)]) == 0
        doc = json.loads(metrics_path.read_text())
        entry = doc[str(model_path)]
        assert entry["variant"] == "forest"
        assert entry["crop"] == "Jute"
        assert entry["accuracy_pct"] + entry["error_pct"] == pytest.approx(100.0)

    def test_dnn_train_writes_history(self, data_csv, tmp_path):
        model_path = tmp_path / "dnn.json"
        assert run(["train", "--data", str(data_csv), "--model", "dnn",
                    "--crop", "wheat", "--epochs", "3", "--seed", "5",
                    "--out", str(model_path)]) == 0
        history = (tmp_path / "dnn.json.history.csv").read_text()
        assert history.splitlines()[0] == "epoch,train_mse,val_mse"

    def test_select(self, data_csv, tmp_path):
        model_files = []
        for crop in ("ausrice", "amanrice", "bororice", "wheat", "potato",
                     "jute"):
            path = tmp_path / f"{crop}.json"
            assert run(["train", "--data", str(data_csv), "--model",
                        "logistic", "--crop", crop, "--epochs", "5",
                        "--seed", "5", "--out", str(path)]) == 0
            model_files.append(str(path))
        out = tmp_path / "rec.json"
        assert run(["select", "--data", str(data_csv), "--out", str(out)]
                   + model_files) == 0
        doc = json.loads(out.read_text())
        assert doc["selected"] in {"AusRice", "AmanRice", "BoroRice", "Wheat",
                                   "Potato", "Jute"}
        assert len(doc["predicted_yield_t_ha"]) == 6


class TestReport:
    def test_report_structure(self, data_csv, tmp_path):
        out = tmp_path / "report"
        assert run(["report", "--data", str(data_csv), "--seed", "3",
                    "--epochs", "2", "--trees", "2", "--out", str(out)]) == 0
        text = (out / "report.md").read_text()
        assert text.count(
            "| Method | Training (%) | Testing (%) | Accuracy (%) | MSE (%) |"
        ) == 6
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["crops"]) == 6
        assert len(doc["crops"]["Jute"]) == 4
        assert len(list((out / "models").glob("*.json"))) == 24

    def test_each_record_is_encoded_once(self, tmp_path, monkeypatch):
        data = tmp_path / "coverage.csv"
        assert run(["generate", "--coverage", "--seed", "13",
                    "--out", str(data)]) == 0
        cleaned = list(ingest.clean(ingest.load_csv(data)).records)
        encoded = []
        feature_matrix = ingest.feature_matrix

        def counting(dataset):
            encoded.extend(dataset.records)
            return feature_matrix(dataset)

        monkeypatch.setattr(ingest, "feature_matrix", counting)
        assert run(["report", "--data", str(data), "--seed", "13",
                    "--epochs", "3", "--trees", "3",
                    "--out", str(tmp_path / "report")]) == 0
        assert len(encoded) == len(cleaned)
        assert set(encoded) == set(cleaned)

        # evaluate encodes only the test rows; the model file has the ranges
        encoded.clear()
        model = tmp_path / "report" / "models" / "jute_forest.json"
        metrics = tmp_path / "metrics.json"
        assert run(["evaluate", "--data", str(data), "--seed", "13",
                    str(model), "--out", str(metrics)]) == 0
        n_test = json.loads(metrics.read_text())[str(model)]["n_test"]
        assert len(encoded) == n_test


class TestPlotData:
    def test_all_kinds_written(self, data_csv, tmp_path):
        out = tmp_path / "plots"
        assert run(["plot-data", "--data", str(data_csv),
                    "--out", str(out)]) == 0
        for kind in ("max_temp", "min_temp", "avg_rainfall", "production",
                     "yield"):
            lines = (out / f"{kind}.csv").read_text().splitlines()
            assert lines[0] == "kind,district,year,crop,value"
            assert len(lines) > 1

    def test_single_kind(self, data_csv, tmp_path):
        out = tmp_path / "one"
        assert run(["plot-data", "--data", str(data_csv), "--kind",
                    "yield", "--out", str(out)]) == 0
        assert (out / "yield.csv").exists()
        assert not (out / "max_temp.csv").exists()


class TestConfig:
    def test_empty_config_gives_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        assert load_config(path) == {}
        import argparse
        args = argparse.Namespace(config=str(path))
        cfg = resolve_config(args)
        assert cfg["train_ratio"] == 0.8
        assert cfg["trees"] == 100
        assert cfg["seed"] == 0

    def test_flag_overrides_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seed": 42}')
        import argparse
        args = argparse.Namespace(config=str(path), seed=7)
        assert resolve_config(args)["seed"] == 7

    def test_config_file_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AGROYIELD_SEED", "99")
        path = tmp_path / "c.json"
        path.write_text('{"seed": 42}')
        import argparse
        args = argparse.Namespace(config=str(path))
        assert resolve_config(args)["seed"] == 42

    def test_env_seed_is_lowest_precedence_source(self, monkeypatch):
        monkeypatch.setenv("AGROYIELD_SEED", "99")
        import argparse
        assert resolve_config(argparse.Namespace())["seed"] == 99

    def test_out_of_range_ratio_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"train_ratio": 1.5}')
        with pytest.raises(MalformedConfig):
            load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"blastoff": 3}')
        with pytest.raises(MalformedConfig):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(MalformedConfig):
            load_config(path)

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000,
    ], ids=["not-utf8", "too-deep"])
    def test_undecodable_json_rejected(self, content, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        with pytest.raises(MalformedConfig):
            load_config(path)

    @pytest.mark.parametrize("doc", [
        '{"epochs": 2.9}', '{"epochs": 3.0}', '{"seed": true}',
        '{"trees": false}', '{"n": "10"}', '{"batch_size": [32]}',
        '{"lr": true}', '{"noise_sigma": "0.1"}', '{"train_ratio": {}}',
        '{"model": 5}', '{"crop": ["jute"]}', '{"lr": 1%s}' % ("0" * 400),
    ], ids=lambda doc: doc[:24])
    def test_ill_typed_value_rejected(self, doc, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(doc)
        with pytest.raises(MalformedConfig):
            load_config(path)

    def test_values_keep_their_json_type(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"epochs": 3, "seed": 0, "lr": 1, "noise_sigma": 0,'
                        ' "train_ratio": 0.5, "model": "svm", "crop": null}')
        cfg = load_config(path)
        assert cfg == {"epochs": 3, "seed": 0, "lr": 1.0, "noise_sigma": 0.0,
                       "train_ratio": 0.5, "model": "svm", "crop": None}
        assert type(cfg["lr"]) is float and type(cfg["epochs"]) is int


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert run(["launch-rockets"]) == 1

    def test_missing_flags_is_usage_error(self):
        assert run(["generate"]) == 1

    def test_unreadable_data_is_data_error(self, tmp_path):
        assert run(["clean", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path)]) == 2

    def test_bad_header_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert run(["clean", "--data", str(bad), "--out", str(tmp_path)]) == 2

    def test_diverged_training_exit_code(self, data_csv, tmp_path):
        assert run(["train", "--data", str(data_csv), "--model", "dnn",
                    "--crop", "jute", "--epochs", "30", "--lr", "1e18",
                    "--seed", "1", "--out", str(tmp_path / "m.json")]) == 3


def test_diverged_svm_exits_3_with_one_error_line(tmp_path, capsys):
    data, out = tmp_path / "d.csv", tmp_path / "m.json"
    assert run(["generate", "--n", "600", "--seed", "1",
                "--out", str(data)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy RuntimeWarning fails
        assert run(["train", "--data", str(data), "--model", "svm",
                    "--crop", "jute", "--lr", "1e300",
                    "--out", str(out)]) == 3
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("effective config:")]
    assert len(err) == 1 and err[0].startswith("training failure: ")
    assert not out.exists()


def test_diverged_dnn_exits_3_with_one_error_line(tmp_path, capsys):
    data, out = tmp_path / "d.csv", tmp_path / "m.json"
    assert run(["generate", "--n", "1000", "--seed", "1",
                "--out", str(data)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy RuntimeWarning fails
        assert run(["train", "--data", str(data), "--model", "dnn",
                    "--crop", "Jute", "--lr", "1e10",
                    "--out", str(out)]) == 3
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith("effective config:")]
    assert len(err) == 1 and err[0].startswith("training failure: ")
    assert not out.exists()


_PARSER_CALLS = (
    ["generate", "--n", "400", "--seed", "4", "--out", "d.csv"],
    ["train", "--data", "d.csv", "--model", "nope", "--out", "m.json"],
    ["train", "--data", "d.csv", "--model", "logistic", "--crop", "jute",
     "--epochs", "20", "--out", "m.json"],
    ["evaluate", "--data", "d.csv", "missing.json"],
    ["evaluate", "--data", "d.csv", "--seed", "1", "m.json"],
)


def _run_calls(work, monkeypatch, capsys, fresh_parser):
    """Exit codes, stdout, stderr and files of `_PARSER_CALLS` in `work`."""
    work.mkdir()
    monkeypatch.chdir(work)
    seen = []
    for argv in _PARSER_CALLS:
        if fresh_parser:
            cli._build_parser.cache_clear()
        code = run(argv)
        out = capsys.readouterr()
        seen.append((code, out.out, out.err))
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return seen, files


def test_one_parser_per_process_parses_like_fresh_parsers(
        tmp_path, monkeypatch, capsys):
    shared = _run_calls(tmp_path / "shared", monkeypatch, capsys, False)
    fresh = _run_calls(tmp_path / "fresh", monkeypatch, capsys, True)
    assert [code for code, _, _ in shared[0]] == [0, 1, 0, 2, 0]
    assert shared == fresh


def _shipped_responses(**jute):
    """The shipped responses with Jute's keys replaced (None deletes one)."""
    src = resources.files("agroyield").joinpath("responses.json")
    doc = json.loads(src.read_text())
    for key, value in jute.items():
        if value is None:
            del doc["Jute"][key]
        else:
            doc["Jute"][key] = value
    return doc


_HEADER = ",".join(ingest.CSV_HEADER).encode() + b"\n"

# id -> (variant, path to a value in its model file, new value from old)
_MODEL_MUTATIONS = {
    "normalizer-truncated": ("logistic", ("normalizer", "column_mins"),
                             lambda v: v[:10]),
    "normalizer-infinite": ("svm", ("normalizer", "column_maxs", 0),
                            lambda v: math.inf),
    "dnn-weight-row-truncated": ("dnn", ("payload", "weights", 1, 0),
                                 lambda v: v[:-1]),
    "dnn-input-size": ("dnn", ("payload", "layer_sizes", 0), lambda v: 45),
    "dnn-bias-truncated": ("dnn", ("payload", "biases", 0), lambda v: v[:-1]),
    "svm-weights-truncated": ("svm", ("payload", "weights"), lambda v: v[:45]),
    "svm-epsilon-string": ("svm", ("payload", "epsilon"), str),
    "logistic-bias-infinite": ("logistic", ("payload", "bias"),
                               lambda v: math.inf),
    "svm-bias-beyond-float": ("svm", ("payload", "bias"),
                              lambda v: 10 ** 400),
    "logistic-weight-beyond-float": ("logistic", ("payload", "weights", 0),
                                     lambda v: 10 ** 400),
    "forest-right-self": ("forest", ("payload", "trees", 0, "right", 0),
                          lambda v: 0),
    "forest-leaf-right": ("forest", ("payload", "trees", 0, "right", -1),
                          lambda v: 0),
    "forest-feature-99": ("forest", ("payload", "trees", 0, "feature", 0),
                          lambda v: 99),
    "forest-feature-bool": ("forest", ("payload", "trees", 0, "feature", 0),
                            lambda v: True),
    "forest-feature-beyond-int64": ("forest",
                                    ("payload", "trees", 0, "feature", 0),
                                    lambda v: 2 ** 70),
    "forest-min-leaf-0": ("forest", ("payload", "min_leaf"), lambda v: 0),
    "forest-max-depth-negative": ("forest", ("payload", "max_depth"),
                                  lambda v: -3),
    "forest-max-depth-float": ("forest", ("payload", "max_depth"),
                               lambda v: 2.5),
    "forest-bootstrap-string": ("forest", ("payload", "bootstrap"),
                                lambda v: "no"),
    "forest-n-trees-float": ("forest", ("payload", "n_trees"),
                             lambda v: float(v)),
    "forest-features-per-split-float": ("forest",
                                        ("payload", "features_per_split"),
                                        lambda v: 1.5),
    "forest-seed-float": ("forest", ("payload", "seed"), lambda v: 1e300),
    "forest-features-per-split-0": ("forest",
                                    ("payload", "features_per_split"),
                                    lambda v: 0),
    "forest-n-trees-0": ("forest", ("payload", "n_trees"), lambda v: 0),
    "schema-version-3": ("forest", ("schema_version",), lambda v: 3),
}


@pytest.fixture(scope="module")
def model_docs(data_csv, tmp_path_factory):
    """One small trained model file per variant, as parsed JSON."""
    work = tmp_path_factory.mktemp("models")
    docs = {}
    for variant in ("dnn", "svm", "forest", "logistic"):
        path = work / f"{variant}.json"
        assert run(["train", "--data", str(data_csv), "--model", variant,
                    "--crop", "jute", "--epochs", "2", "--trees", "2",
                    "--seed", "5", "--out", str(path)]) == 0
        docs[variant] = json.loads(path.read_text())
    return docs


class TestOutOfRangeValues:
    @pytest.mark.parametrize("argv", [
        ["train", "--model", "forest", "--crop", "banana"],
        ["train", "--model", "dnn", "--crop", "jute", "--epochs", "0"],
        ["train", "--model", "svm", "--crop", "jute", "--lr", "-0.1"],
        ["report", "--trees", "0"],
    ])
    def test_bad_training_flag_exits_2(self, argv, data_csv, tmp_path,
                                       capsys):
        out = tmp_path / "out"
        argv = argv + ["--data", str(data_csv), "--out", str(out)]
        assert run(argv) == 2
        assert not out.exists()
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["generate", "--n", "0"],
        ["generate", "--noise", "-1"],
    ])
    def test_bad_generate_flag_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        self.assert_one_line_error(capsys)

    # sizes that fail at the first allocation on any address space
    @pytest.mark.parametrize("n", [10 ** 18, 10 ** 20])
    @pytest.mark.parametrize("in_config", [False, True],
                             ids=["flag", "config"])
    def test_unallocatable_n_exits_2(self, n, in_config, tmp_path, capsys):
        out = tmp_path / "out.csv"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n": n}))
        argv = (["--config", str(config)] if in_config else ["--n", str(n)])
        assert run(["generate", "--out", str(out)] + argv) == 2
        assert not out.exists()
        self.assert_one_line_error(capsys)

    def test_unknown_model_in_config_exits_2(self, data_csv, tmp_path,
                                             capsys):
        config = tmp_path / "c.json"
        config.write_text('{"model": "quantum"}')
        out = tmp_path / "m.json"
        assert run(["train", "--data", str(data_csv), "--crop", "jute",
                    "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("doc", [
        {}, [], _shipped_responses(base_yield=None),
        _shipped_responses(soil_weights="sandy"),
        _shipped_responses(base_yield=10 ** 400),
        _shipped_responses(land_weights=[10 ** 400] + [0.2] * 5),
        _shipped_responses(rainfall={"opt": 1800, "width": 0}),
        b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000,
    ], ids=["empty-object", "array", "no-base_yield", "ill-typed-soil",
            "base_yield-beyond-float", "land-weight-beyond-float",
            "zero-width", "not-utf8", "too-deep"])
    def test_malformed_responses_file_exits_2(self, doc, tmp_path, capsys):
        responses = tmp_path / "r.json"
        responses.write_bytes(
            doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        out = tmp_path / "out.csv"
        assert run(["generate", "--n", "5", "--responses", str(responses),
                    "--out", str(out)]) == 2
        assert not out.exists()
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("content", [
        b"[" * 100000, b"\xff\xfe{}",
    ], ids=["too-deep", "not-utf8"])
    def test_malformed_model_file_exits_2(self, content, data_csv, tmp_path,
                                          capsys):
        model = tmp_path / "m.json"
        model.write_bytes(content)
        out = tmp_path / "rec.json"
        assert run(["select", "--data", str(data_csv), "--out", str(out)]
                   + [str(model)] * 6) == 2
        assert not out.exists()
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("mutation", list(_MODEL_MUTATIONS))
    def test_mutated_model_file_exits_2(self, mutation, model_docs, data_csv,
                                        tmp_path, capsys):
        variant, path, change = _MODEL_MUTATIONS[mutation]
        doc = copy.deepcopy(model_docs[variant])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = change(parent[path[-1]])
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "metrics.json"
        with time_limit(30):
            assert run(["evaluate", "--data", str(data_csv), "--seed", "5",
                        str(model), "--out", str(out)]) == 2
        assert not out.exists()
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("content", [
        b"\xff\xfe" + _HEADER,
        _HEADER + b"\xff" + b"0," * (len(ingest.CSV_HEADER) - 1) + b"0\n",
        _HEADER + b"x" * 200000 + b"\n",
    ], ids=["not-utf8-start", "not-utf8-row-1", "oversized-field"])
    def test_unreadable_csv_exits_2(self, content, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        out = tmp_path / "cleaned"
        assert run(["clean", "--data", str(data), "--out", str(out)]) == 2
        assert not out.exists()
        self.assert_one_line_error(capsys)

    @staticmethod
    def assert_one_line_error(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith("data error: ")


def test_forest_seed_beyond_int64_round_trips(data_csv, tmp_path):
    # a forest's seed is derived as an unsigned 64-bit integer, so about
    # half of all forest files hold one above int64's range
    path = tmp_path / "forest.json"
    assert run(["train", "--data", str(data_csv), "--model", "forest",
                "--crop", "jute", "--trees", "2", "--seed", "0",
                "--out", str(path)]) == 0
    assert json.loads(path.read_text())["payload"]["seed"] >= 2 ** 63
    assert run(["evaluate", "--data", str(data_csv), "--seed", "0",
                str(path), "--out", str(tmp_path / "metrics.json")]) == 0


# field -> (flag or None, values outside the field's documented range)
_OUT_OF_RANGE = {
    "n": ("--n", st.integers(max_value=0)),
    "epochs": ("--epochs", st.integers(max_value=0)),
    "trees": ("--trees", st.integers(max_value=0)),
    "batch_size": (None, st.integers(max_value=0)),
    "patience": (None, st.integers(max_value=-1)),
    "lr": ("--lr", st.floats().filter(lambda v: not 0 < v < math.inf)),
    "noise_sigma": ("--noise",
                    st.floats().filter(lambda v: not 0 <= v < math.inf)),
    "train_ratio": ("--ratio", st.floats().filter(lambda v: not 0 < v < 1)),
}


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ranges")


@pytest.mark.parametrize("field", sorted(_OUT_OF_RANGE))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_out_of_range_value_exits_2(field, data, data_csv, scratch_dir):
    flag, values = _OUT_OF_RANGE[field]
    value = data.draw(values, label="value")
    in_config = flag is None or data.draw(st.booleans(), label="in_config")
    work = Path(tempfile.mkdtemp(dir=scratch_dir))
    out = work / "out"
    if in_config:
        config = work / "c.json"
        config.write_text(json.dumps({field: value}))
        argv = ["report", "--data", str(data_csv), "--config", str(config)]
    elif field in ("n", "noise_sigma", "train_ratio"):
        argv = ["generate", f"{flag}={value!r}"]
    else:
        argv = ["report", "--data", str(data_csv), f"{flag}={value!r}"]
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
