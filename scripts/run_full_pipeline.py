#!/usr/bin/env python3
"""Run the whole pipeline on a synthetic cohort and print the reports.

Generates a seeded dataset, extracts features, runs the statistics gates,
and evaluates both tasks with nested cross-validation. Everything lands
under --out; re-running with the same seed reproduces every file byte for
byte.
"""

import argparse
import sys
from pathlib import Path

from loadsense.cli import run_cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("pipeline_out"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--participants", type=int, default=45)
    args = parser.parse_args()

    out = args.out
    seed = str(args.seed)
    # no validate step: features reports every skipped segment and warning on stderr
    steps: list[list[str]] = [
        ["synth", "--out", str(out / "synth"), "--participants", str(args.participants),
         "--seed", seed],
        ["features", "--dataset", str(out / "synth" / "dataset"),
         "--out", str(out / "features"), "--seed", seed],
        ["stats", "--dataset", str(out / "synth" / "dataset"),
         "--out", str(out / "stats"), "--seed", seed],
    ]
    for task, scheme in (("nback", "multi"), ("nback", "binary"), ("visual_search", "multi")):
        steps.append(
            ["evaluate", "--dataset", str(out / "synth" / "dataset"),
             "--out", str(out / "reports"), "--seed", seed,
             "--task", task, "--scheme", scheme]
        )

    for step in steps:
        print(f"==> loadsense {' '.join(step)}", flush=True)
        code = run_cli(step)
        if code != 0:
            print(f"step failed with exit code {code}", file=sys.stderr)
            return code
    print(f"done; outputs under {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
