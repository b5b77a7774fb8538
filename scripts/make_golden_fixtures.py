#!/usr/bin/env python3
"""Regenerate tests/fixtures/golden/, the frozen end-to-end outputs.

For seed 7 and a 10-participant synthetic cohort (generate_dataset ->
featurize_dataset, all in memory) it writes:

- the three report CSVs run_full_pipeline.py writes (run_nested_cv, then
  render_report), under the same file names;
- model_sha256.txt: the sha256 of model_to_json(train(..., "all", 7)) for
  each of those three task/scheme pairs;
- features.csv (features_csv) and the stats command's four files
  (stats_files): descriptives.csv, reliability.csv, correlations.txt and
  paired_tests.csv;
- tree_sha256.txt: one `sha256sum` line per file of the tree that
  write_dataset writes for the cohort, sorted by relative path, so
  `sha256sum -c tree_sha256.txt` run inside a written tree checks its bytes;
- generator_config.txt: the cohort's config as config_text writes it (and
  `loadsense synth` next to its tree), so adding or removing a generator
  setting shows up as a fixture diff.

tests/test_golden.py recomputes the same outputs through `golden_outputs`
and compares them byte for byte, so a change that moves any fitted model
or report, feature or statistic shows up across commits, not only between
two runs of one commit.  The CLI writes the same files from a tree on disk,
so comparing its outputs with these checks the write/read round trip too.
Regenerate only for a declared output change.

Run from the repository root:

    python3 scripts/make_golden_fixtures.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from loadsense.core import Dataset, TaskKind, features_csv, write_dataset
from loadsense.evaluate import featurize_dataset, make_split_plan, render_report, run_nested_cv, train
from loadsense.learn import model_to_json
from loadsense.stats import stats_files
from loadsense.synth import GeneratorConfig, config_text, generate_dataset

SEED = 7
PARTICIPANTS = 10
EVALUATIONS = ((TaskKind.NBACK, "multi"), (TaskKind.NBACK, "binary"), (TaskKind.VISUAL_SEARCH, "multi"))
OUT_DIR = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "golden"


def tree_digests(dataset: Dataset) -> str:
    """`sha256sum` lines for every file write_dataset writes, sorted by relative path."""
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(dataset, tmp)
        files = sorted((p.relative_to(tmp).as_posix(), p) for p in Path(tmp).rglob("*") if p.is_file())
        return "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {name}\n" for name, p in files)


def golden_outputs() -> dict[str, bytes]:
    """File name -> bytes of every golden output."""
    config = GeneratorConfig(n_participants=PARTICIPANTS, seed=SEED)
    dataset = generate_dataset(config)
    rows = featurize_dataset(dataset)
    plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=SEED)
    outputs = {"features.csv": features_csv(rows, SEED).encode()}
    files, _, _ = stats_files(rows, SEED)
    outputs.update((name, text.encode()) for name, text in files.items())
    digests = []
    for task, scheme in EVALUATIONS:
        report = run_nested_cv(rows, task, scheme, plan)
        outputs[f"report_{task.value}_{scheme}.csv"] = render_report(report, "csv").encode()
        model = train(rows, task, scheme, "all", SEED)
        digest = hashlib.sha256(model_to_json(model, seed=SEED).encode()).hexdigest()
        digests.append(f"{task.value} {scheme} {digest}\n")
    outputs["model_sha256.txt"] = "".join(digests).encode()
    outputs["tree_sha256.txt"] = tree_digests(dataset).encode()
    outputs["generator_config.txt"] = config_text(config).encode()
    return outputs


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, data in golden_outputs().items():
        (OUT_DIR / name).write_bytes(data)
        print(f"wrote {OUT_DIR / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
