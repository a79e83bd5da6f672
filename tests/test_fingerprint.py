"""Fixed-seed behaviour fingerprints of a small `report` run.

Both cover criterion 10's configuration. `FINGERPRINT` is the sha256 of
report.json and the 24 model files: a change that alters any model's
bytes or any reported metric changes it, and a refactor that keeps
behaviour keeps it. `REPORT_OUTPUT_SHA256` covers report.json and
report.md alone, so it pins every reported figure across a change of the
model-file format.
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
