"""Fixed-seed behaviour fingerprint of a small `report` run.

The sha256 covers report.json and the 24 model files of criterion 10's
configuration. A change that alters any model's bytes or any reported
metric changes it; a refactor that keeps behaviour keeps it.
"""

import hashlib
from pathlib import Path

from agroyield.cli import run

FINGERPRINT = "918c1d812e9df4f5b9f36049a0444574bc95e681d8742ea4bb44accb545ddc3d"


def test_report_fingerprint_unchanged(tmp_path, monkeypatch):
    # report.json names its data file, so run from a fixed relative path
    monkeypatch.chdir(tmp_path)
    assert run(["generate", "--coverage", "--seed", "13",
                "--out", "coverage.csv"]) == 0
    assert run(["report", "--data", "coverage.csv", "--seed", "13",
                "--epochs", "3", "--trees", "3", "--out", "report"]) == 0
    out = Path("report")
    lines = "".join(
        f"{p.relative_to(out).as_posix()} "
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted(out.rglob("*.json")))
    assert hashlib.sha256(lines.encode()).hexdigest() == FINGERPRINT
