import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"


def _run(cwd):
    """{path: bytes} of every file the README's experiment command writes,
    run from `cwd`."""
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), "--n", "300", "--epochs", "2",
         "--trees", "2", "--out", "out"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = cwd / "out"
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_reruns_write_the_same_bytes(tmp_path_factory):
    first = _run(tmp_path_factory.mktemp("first"))
    # raw and cleaned CSV, cleaning log, 4 models x 6 crops, report.md and
    # report.json, 5 plot series, recommendation.json
    assert len(first) == 35
    assert _run(tmp_path_factory.mktemp("second")) == first
