"""The three benchmark workloads: set-up, one round of timed work, checks.

Every call into loadsense goes through the module attribute (``core.load_dataset``
rather than an imported name) so that the tracer's patches are seen.

A workload is built from the directory its set-up wrote.  The runner calls
`reset()` (untimed) before each `round()` (timed); `round()` returns the
number of operations it attempted and how many of them failed; `check()`
returns failure messages for the outputs of the last round.
"""

from __future__ import annotations

import hashlib
import pickle
import shutil
import sys
from io import StringIO
from contextlib import redirect_stdout
from pathlib import Path

from loadsense import cli, core, evaluate, synth
from loadsense.core import TaskKind

import checks

# Cohort sizes, in participants of the generator's default protocol
# (6 segments of 125-160 s each).  crossval needs at least 10: below that
# the binary scheme's KNN grid fails (k exceeds the training set size).
INGEST_PARTICIPANTS = 3
CROSSVAL_PARTICIPANTS = 10
PIPELINE_PARTICIPANTS = 3

# The three reports run_full_pipeline.py produces.
EVALUATIONS = ((TaskKind.NBACK, "multi"), (TaskKind.NBACK, "binary"), (TaskKind.VISUAL_SEARCH, "multi"))


def _config(seed: int, participants: int):
    return synth.GeneratorConfig(n_participants=participants, seed=seed)


def prepare(workload: str, seed: int, dest: Path) -> None:
    """Set-up work, run in a child process so that it does not set the
    measuring process's peak memory."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "ingest":
        dataset = synth.generate_dataset(_config(seed, INGEST_PARTICIPANTS))
        core.write_dataset(dataset, dest / "dataset")
    elif workload == "crossval":
        dataset = synth.generate_dataset(_config(seed, CROSSVAL_PARTICIPANTS))
        rows = evaluate.featurize_dataset(dataset)
        with open(dest / "rows.pickle", "wb") as fh:
            pickle.dump(rows, fh, protocol=pickle.HIGHEST_PROTOCOL)
    elif workload == "pipeline":
        code = cli.run_cli(["synth", "--out", str(dest / "synth"), "--participants", str(PIPELINE_PARTICIPANTS),
                            "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"loadsense synth exited {code}")
    else:
        raise ValueError(f"unknown workload {workload!r}")


class Ingest:
    """load_dataset + featurize_dataset over a tree written during set-up.
    One operation is one segment loaded."""

    def __init__(self, seed: int, dest: Path):
        self.seed = seed
        self.tree = dest / "dataset"
        self.n_segments = len(list(self.tree.glob("*/*/manifest.json")))
        self.last = None

    def reset(self) -> None:
        self.last = None  # frees the previous round's dataset before the next load

    def round(self) -> tuple[int, int]:
        skipped: list[str] = []
        dataset = core.load_dataset(self.tree, report=skipped.append)
        rows = evaluate.featurize_dataset(dataset)
        self.last = (dataset, rows, skipped)
        return self.n_segments, self.n_segments - len(dataset.segments)

    def check(self) -> list[str]:
        loaded, rows, skipped = self.last
        generated = synth.generate_dataset(_config(self.seed, INGEST_PARTICIPANTS))
        return (
            checks.check_roundtrip(generated, loaded, skipped)
            + checks.check_cardiac(loaded, rows)
            + checks.check_lhipa(loaded, rows, self.seed)
        )


class Crossval:
    """run_nested_cv at threads=1 for the three reports, plus render_report,
    over feature rows built during set-up.  One operation is one
    task/scheme evaluation."""

    def __init__(self, seed: int, dest: Path):
        with open(dest / "rows.pickle", "rb") as fh:
            self.rows = pickle.load(fh)
        participants = sorted({r.participant for r in self.rows})
        self.plan = evaluate.make_split_plan(participants, k=5, seed=seed)
        self.last = None

    def reset(self) -> None:
        self.last = None

    def round(self) -> tuple[int, int]:
        reports = {}
        failed = 0
        for task, scheme in EVALUATIONS:
            try:
                report = evaluate.run_nested_cv(self.rows, task, scheme, self.plan, threads=1)
            except ValueError as exc:
                print(f"crossval {task.value}/{scheme} failed: {exc}", file=sys.stderr)
                failed += 1
                continue
            reports[(task, scheme)] = (report, evaluate.render_report(report, "csv"),
                                       evaluate.render_report(report, "txt"))
        self.last = reports
        return len(EVALUATIONS), failed

    def check(self) -> list[str]:
        errors = []
        for (task, scheme), (_, csv_text, _) in self.last.items():
            errors += [f"{task.value}/{scheme}: {e}" for e in checks.check_report_csv(csv_text, scheme)]
        if EVALUATIONS[0] not in self.last:
            return errors
        # the threaded path must reproduce the threads=1 report; one subset
        # keeps the check cheap
        report_t1 = self.last[EVALUATIONS[0]][0]
        report_t2 = evaluate.run_nested_cv(self.rows, *EVALUATIONS[0], self.plan, subsets=["heart"], threads=2)
        return errors + checks.check_threads_identical(report_t1, report_t2)


class Pipeline:
    """The loadsense commands scripts/run_full_pipeline.py runs between its
    synth step (done in set-up) and its evaluate steps -- validate, features,
    stats -- in one process through cli.run_cli, as the script does.  One
    operation is one command."""

    def __init__(self, seed: int, dest: Path):
        self.out = dest / "pipeline_out"
        dataset = str(dest / "synth" / "dataset")
        s = str(seed)
        self.steps = [
            ["validate", "--dataset", dataset],
            ["features", "--dataset", dataset, "--out", str(self.out / "features"), "--seed", s],
            ["stats", "--dataset", dataset, "--out", str(self.out / "stats"), "--seed", s],
        ]
        self.digests: list[str] = []
        self.messages = StringIO()

    def _digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(p for p in self.out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(self.out)).encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def reset(self) -> None:
        if self.out.exists():
            self.digests.append(self._digest())
            shutil.rmtree(self.out)

    def round(self) -> tuple[int, int]:
        failed = 0
        with redirect_stdout(self.messages):
            for step in self.steps:
                if cli.run_cli(step) != 0:
                    print(f"pipeline step {step[0]} failed", file=sys.stderr)
                    failed += 1
        return len(self.steps), failed

    def check(self) -> list[str]:
        self.digests.append(self._digest())
        errors = []
        if len(set(self.digests)) != 1:
            errors.append(f"pipeline outputs differ between rounds of the same seed: {self.digests}")
        return errors + checks.check_stats(self.out / "features" / "features.csv", self.out / "stats")


WORKLOADS = {"ingest": Ingest, "crossval": Crossval, "pipeline": Pipeline}

# How many times a run repeats its set-up; setup_s is their median.
SETUPS = {"ingest": 3, "crossval": 3, "pipeline": 3}
