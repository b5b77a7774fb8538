"""Command-line entry point.

Subcommands: synth | validate | features | stats | train | evaluate | report.
Exit codes: 0 success, 1 data error, 2 usage error.  Every command but validate
and report writes a run.json provenance record (command, seed, config hash)
into --out.  Skipped segments and segment warnings go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

from . import DEFAULT_SEED, FORMAT_VERSION
from .core import TASKS, DatasetError, FeatureRow, features_csv, iter_segments, validate_dataset, write_dataset
from .evaluate import FEATURE_SUBSETS, featurize_segments, make_split_plan, render_report, run_nested_cv, train
from .learn import model_to_json
from .stats import stats_files
from .synth import GeneratorConfig, generate_dataset, load_config, null_config, save_config


def _write_run_record(out_dir: Path, argv: list[str], seed: int, config: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    config_blob = json.dumps(config, sort_keys=True)
    record = {
        "command": argv,
        "seed": seed,
        "format_version": FORMAT_VERSION,
        "config": config,
        "config_hash": hashlib.sha256(config_blob.encode()).hexdigest(),
    }
    (out_dir / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _report(msg: str) -> None:
    print(msg, file=sys.stderr)


def _feature_rows(args) -> list[FeatureRow]:
    """The --dataset tree's feature rows.  Each segment is read, validated and
    featurized in turn and only its row is kept, so peak memory is about one
    segment's, whatever the cohort size."""
    return featurize_segments(iter_segments(args.dataset, strict=args.strict, report=_report))


def cmd_synth(args, argv) -> int:
    config = load_config(args.config) if args.config else GeneratorConfig()
    if args.participants is not None:
        config = dataclasses.replace(config, n_participants=args.participants)
    config = dataclasses.replace(config, seed=args.seed)
    if args.null:
        config = null_config(config)
    dataset = generate_dataset(config)
    out = Path(args.out)
    write_dataset(dataset, out / "dataset")
    save_config(config, out / "generator_config.txt")
    _write_run_record(out, argv, args.seed, {"subcommand": "synth", "null": args.null,
                                             "n_participants": config.n_participants})
    print(f"wrote {len(dataset.segments)} segments to {out / 'dataset'}")
    return 0


def cmd_validate(args, argv) -> int:
    reported: list[str] = []

    def report(msg: str) -> None:
        _report(msg)
        reported.append(msg)

    # keys only: each segment's arrays are dropped as soon as it is validated
    keys = [(seg.participant_id, seg.task, seg.level)
            for seg in iter_segments(args.dataset, strict=args.strict, report=report)]
    issues = validate_dataset(keys)
    for issue in issues:
        print(f"dataset: {issue.severity}: {issue.message}")
    print(f"{len(keys)} segments, {len(reported) + len(issues)} issues")
    return 0


def cmd_features(args, argv) -> int:
    rows = _feature_rows(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "features.csv").write_text(features_csv(rows, args.seed), encoding="utf-8")
    _write_run_record(out, argv, args.seed, {"subcommand": "features", "dataset": str(args.dataset)})
    print(f"wrote {len(rows)} feature rows to {out / 'features.csv'}")
    return 0


def cmd_stats(args, argv) -> int:
    files, retained, excluded = stats_files(_feature_rows(args), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    _write_run_record(out, argv, args.seed, {"subcommand": "stats", "dataset": str(args.dataset)})
    print(f"retained: {sorted(retained)}; excluded: {sorted(excluded)}")
    return 0


def cmd_train(args, argv) -> int:
    if args.subset and len(args.subset) > 1:
        print("usage: loadsense train takes one --subset (a trained model uses one feature subset)",
              file=sys.stderr)
        return 2
    rows = _feature_rows(args)
    subset = args.subset[0] if args.subset else "all"
    ensemble = train(rows, TASKS[args.task], args.scheme, subset, args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.json").write_text(model_to_json(ensemble, seed=args.seed), encoding="utf-8")
    _write_run_record(out, argv, args.seed, {"subcommand": "train", "task": args.task,
                                             "scheme": args.scheme})
    print(f"wrote ensemble model to {out / 'model.json'}")
    return 0


def cmd_evaluate(args, argv) -> int:
    rows = _feature_rows(args)
    task = TASKS[args.task]
    participants = sorted({r.participant for r in rows})
    plan = make_split_plan(participants, k=5, seed=args.seed)
    subsets = args.subset if args.subset else None
    report = run_nested_cv(rows, task, args.scheme, plan, subsets=subsets, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"report_{args.task}_{args.scheme}"
    (out / f"{stem}.csv").write_text(render_report(report, "csv"), encoding="utf-8")
    text = render_report(report, "txt")
    (out / f"{stem}.txt").write_text(text, encoding="utf-8")
    _write_run_record(out, argv, args.seed, {"subcommand": "evaluate", "task": args.task,
                                             "scheme": args.scheme, "threads": args.threads,
                                             "subsets": list(subsets) if subsets else "all"})
    print(text, end="")
    return 0


def cmd_report(args, argv) -> int:
    text = Path(args.report_csv).read_text(encoding="utf-8")
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loadsense")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, dataset=True, out=True):
        if dataset:
            p.add_argument("--dataset", required=True)
            p.add_argument("--strict", action="store_true", help="exit 1 on a segment that would be skipped")
        if out:
            p.add_argument("--out", default="out")
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("synth", help="generate a synthetic dataset tree")
    common(p, dataset=False)
    p.add_argument("--participants", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--null", action="store_true", help="zero all level effects")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="count segment and dataset issues")
    common(p, out=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("features", help="extract the 8-feature table")
    common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("stats", help="descriptives, correlations, reliability, paired t-tests")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="fit and save an ensemble model")
    common(p)
    p.add_argument("--task", required=True, choices=sorted(TASKS))
    p.add_argument("--scheme", choices=["multi", "binary"], default="multi")
    p.add_argument("--subset", action="append", choices=sorted(FEATURE_SUBSETS))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="nested cross-validation report")
    common(p)
    p.add_argument("--task", required=True, choices=sorted(TASKS))
    p.add_argument("--scheme", choices=["multi", "binary"], default="multi")
    p.add_argument("--subset", action="append", choices=sorted(FEATURE_SUBSETS))
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="print a saved report file")
    p.add_argument("report_csv")
    p.set_defaults(func=cmd_report)

    return parser


def run_cli(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "seed", DEFAULT_SEED) is None:  # a seed-taking command without --seed
        env = os.environ.get("LOADSENSE_SEED", str(DEFAULT_SEED))
        try:
            args.seed = int(env)
        except ValueError:
            print(f"usage: LOADSENSE_SEED must be an integer, got {env!r}", file=sys.stderr)
            return 2
    try:
        return args.func(args, argv)
    except (DatasetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
