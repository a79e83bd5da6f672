"""Fixed-seed behaviour fingerprints of a small `report` run.

Both cover criterion 10's configuration. `FINGERPRINT` is the sha256 of
report.json and the 24 model files: a change that alters any model's
bytes or any reported metric changes it, and a refactor that keeps
behaviour keeps it. `REPORT_OUTPUT_SHA256` covers report.json and
report.md alone, so it pins every reported figure across a change of the
model-file format. `PREP_OUTPUTS_SHA256` pins the data-preparation
outputs: a generated CSV and what `clean` and `plot-data` make of a
mutated copy of it.
"""

import hashlib
from pathlib import Path

import pytest

from agroyield.cli import run

FINGERPRINT = "fd35a89fbe29722de7cbeedb8b27e11c91002dbbf4acd47e8b492a7f36174663"
REPORT_OUTPUT_SHA256 = (
    "17f3a42f2320241a1e66a82911ba79b2d2e61e89d47a99d06f20805fc94ff107")


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    # report.json names its data file, so run from a fixed relative path
    work = tmp_path_factory.mktemp("fingerprint")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        assert run(["generate", "--coverage", "--seed", "13",
                    "--out", "coverage.csv"]) == 0
        assert run(["report", "--data", "coverage.csv", "--seed", "13",
                    "--epochs", "3", "--trees", "3", "--out", "report"]) == 0
    return work / "report"


def _digest(out: Path, paths) -> str:
    lines = "".join(
        f"{p.relative_to(out).as_posix()} "
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in paths)
    return hashlib.sha256(lines.encode()).hexdigest()


def test_report_fingerprint_unchanged(report_dir):
    assert _digest(report_dir, sorted(report_dir.rglob("*.json"))) \
        == FINGERPRINT


def test_report_outputs_unchanged(report_dir):
    assert _digest(report_dir, [report_dir / "report.json",
                                report_dir / "report.md"]) \
        == REPORT_OUTPUT_SHA256


PREP_OUTPUTS_SHA256 = (
    "03e147e5b5a56398e270693690eeccf858f29e3933d4b4ab846e49b4ff260858")


def _mutated(lines):
    """`lines` (header first) with every kind of row `clean` must handle."""
    head, rows = lines[0], [line.split(",") for line in lines[1:]]

    def row(i, **cols):
        fields = list(rows[i])
        for col, value in cols.items():
            fields[int(col[1:])] = value
        return fields

    def fractions_times(i, factor):
        fields = list(rows[i])
        for j in range(11, 17):
            fields[j] = repr(float(fields[j]) * factor)
        return fields

    zero = list(rows[41])
    zero[11] = repr(float(zero[11]) + float(zero[16]))
    zero[16] = "0"
    negative_zero = zero[:16] + ["-0.0"] + zero[17:]
    contradicting = row(31, **{f"c{j}": "1" for j in range(43, 48)})
    rows[3] = row(3, c0="atlantis")
    rows[7] = rows[7] + ["999"]
    rows[11] = row(11, c1="2010.0")
    rows[13] = row(13, c1="9" * 400)
    rows[17] = row(17, c6="150")
    rows[19] = fractions_times(19, 0.9)
    rows[23] = row(23, c36=" 3.50")
    rows[29] = row(29, c3="1e3")
    rows[31] = contradicting
    rows[37] = row(37, **{f"c{j}": "0.5" for j in range(43, 48)})
    rows[41] = zero
    rows[43] = row(43, c6="nan")
    extra = [rows[1], rows[2], negative_zero, rows[43], rows[1]]
    return "\n".join([head] + [",".join(r) for r in rows + extra]) + "\n"


def test_prep_outputs_unchanged(tmp_path):
    """Pins generate's CSV and what clean and plot-data make of a file
    holding duplicates, unparsable rows and invalid values."""
    raw = tmp_path / "raw.csv"
    assert run(["generate", "--n", "2000", "--seed", "3",
                "--out", str(raw)]) == 0
    mutated = tmp_path / "mutated.csv"
    mutated.write_text(_mutated(raw.read_text().splitlines()))
    out = tmp_path / "out"
    assert run(["clean", "--data", str(mutated), "--out", str(out)]) == 0
    assert run(["plot-data", "--data", str(out / "cleaned.csv"),
                "--out", str(out / "plots")]) == 0
    paths = [raw, out / "cleaned.csv", out / "cleaning_log.jsonl"] + sorted(
        (out / "plots").glob("*.csv"))
    assert len(paths) == 8
    assert _digest(tmp_path, paths) == PREP_OUTPUTS_SHA256



# sha256 of the model file `train` writes for each variant with every
# training default
DEFAULT_TRAIN_SHA256 = {
    "dnn": "a0c821ad3b81d9c858547fb7326b936bca03febb8ade3c68354c3b64eea3b699",
    "svm": "0af810183defa9e1bc6a73f71cedea879d54b25dab550e9f3233fa618227869a",
    "forest":
        "5f9166fc73e9d17f06dbd5b975d57042768928ec8f89e30ad07d5d9eddce2355",
    "logistic":
        "0b6670810889aa7d36e8aa0987c40b86b87374af7917b999bb21f858868c282b",
}


def test_default_training_unchanged(tmp_path):
    """Pins `train` with no --epochs, --lr or --trees: each family's
    epochs, learning rate and tree count, and the batch size, patience,
    layer sizes, activation and SVM epsilon and C, which no flag sets."""
    raw = tmp_path / "raw.csv"
    assert run(["generate", "--n", "1000", "--seed", "3",
                "--out", str(raw)]) == 0
    digests = {}
    for variant in DEFAULT_TRAIN_SHA256:
        out = tmp_path / f"{variant}.json"
        assert run(["train", "--data", str(raw), "--model", variant,
                    "--crop", "jute", "--seed", "3", "--out", str(out)]) == 0
        digests[variant] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == DEFAULT_TRAIN_SHA256
