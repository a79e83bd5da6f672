#!/usr/bin/env python3
"""End-to-end experiment: synthesize data, train all models, emit reports.

Runs the same subcommands a user would type, in order:

1. generate a synthetic dataset (full district x year x crop coverage
   plus extra sampled records),
2. clean it (deduplicate, drop invalid rows),
3. train the four-model comparison for every crop and write the
   Markdown/JSON report,
4. emit plot-ready CSV series,
5. recommend a crop for the first record using the trained models.

Everything is seeded; rerunning with the same arguments reproduces every
output byte for byte.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from agroyield.cli import run  # noqa: E402
from agroyield.schema import Crop  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="experiment_out",
                        help="output directory (default: experiment_out)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=5000,
                        help="synthetic records to generate (default: 5000)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="cap training epochs (default: per-model)")
    parser.add_argument("--trees", type=int, default=None,
                        help="trees per forest (default: the trainer's)")
    args = parser.parse_args()

    out = Path(args.out)
    seed = str(args.seed)
    raw = out / "raw.csv"

    steps = [
        ["generate", "--n", str(args.n), "--seed", seed, "--out", str(raw)],
        ["clean", "--data", str(raw), "--out", str(out)],
    ]
    report_cmd = ["report", "--data", str(out / "cleaned.csv"),
                  "--seed", seed, "--out", str(out)]
    for flag in ("epochs", "trees"):
        if getattr(args, flag) is not None:
            report_cmd += [f"--{flag}", str(getattr(args, flag))]
    steps.append(report_cmd)
    steps.append(["plot-data", "--data", str(out / "cleaned.csv"),
                  "--out", str(out / "plots")])

    for step in steps:
        print(f"$ agroyield {' '.join(step)}")
        code = run(step)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code

    models = [str(out / "models" / f"{crop.name.lower()}_dnn.json")
              for crop in Crop]
    select = ["select", "--data", str(out / "cleaned.csv"),
              "--out", str(out / "recommendation.json")] + models
    print(f"$ agroyield select ... ({len(models)} DNN models)")
    code = run(select)
    if code != 0:
        return code

    print(f"\nDone. See {out}/report.md, {out}/report.json, "
          f"{out}/plots/, {out}/recommendation.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
