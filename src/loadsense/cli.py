"""Command-line entry point.

Subcommands: synth | validate | features | stats | train | evaluate.
Exit codes: 0 success, 1 data error, 2 usage error.  Every command but validate
writes its files into --out through `_write_outputs`, then a run.json
provenance record: the command line, the seed, and as `config` every parsed
option but --out and --seed, with that config's hash.  Skipped segments and
segment warnings go to stderr.
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
from .evaluate import (FEATURE_SUBSETS, SCHEMES, featurize_segments, make_split_plan, render_report, run_nested_cv,
                       train)
from .learn import model_to_json
from .stats import stats_files
from .synth import GeneratorConfig, config_text, generate_dataset, load_config, null_config


def _write_outputs(args, argv: list[str], files: dict[str, str]) -> None:
    """Write each {name: text} under --out, then run.json.  Its config is every
    parsed option but out, seed (a field of its own) and the handler, so no
    command can leave one out."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    config = {name: value for name, value in vars(args).items() if name not in ("out", "seed", "func")}
    record = {
        "command": argv,
        "seed": args.seed,
        "format_version": FORMAT_VERSION,
        "config": config,
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
    }
    (out / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    _write_outputs(args, argv, {"generator_config.txt": config_text(config)})
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
    _write_outputs(args, argv, {"features.csv": features_csv(rows, args.seed)})
    print(f"wrote {len(rows)} feature rows to {Path(args.out) / 'features.csv'}")
    return 0


def cmd_stats(args, argv) -> int:
    files, retained, excluded = stats_files(_feature_rows(args), args.seed)
    _write_outputs(args, argv, files)
    print(f"retained: {sorted(retained)}; excluded: {sorted(excluded)}")
    return 0


def cmd_train(args, argv) -> int:
    if args.subset and len(args.subset) > 1:
        print("usage: loadsense train takes one --subset (a trained model uses one feature subset)",
              file=sys.stderr)
        return 2
    subset = args.subset[0] if args.subset else "all"
    ensemble = train(_feature_rows(args), TASKS[args.task], args.scheme, subset, args.seed)
    _write_outputs(args, argv, {"model.json": model_to_json(ensemble, seed=args.seed)})
    print(f"wrote ensemble model to {Path(args.out) / 'model.json'}")
    return 0


def cmd_evaluate(args, argv) -> int:
    rows = _feature_rows(args)
    plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=args.seed)
    report = run_nested_cv(rows, TASKS[args.task], args.scheme, plan, subsets=args.subset, threads=args.threads)
    stem = f"report_{args.task}_{args.scheme}"
    text = render_report(report, "txt")
    _write_outputs(args, argv, {f"{stem}.csv": render_report(report, "csv"), f"{stem}.txt": text})
    print(text, end="")
    return 0


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loadsense")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # option groups shared by several commands
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--dataset", required=True)
    reads.add_argument("--strict", action="store_true", help="exit 1 on a segment that would be skipped")
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", default="out")
    writes.add_argument("--seed", type=int, default=None)
    learns = argparse.ArgumentParser(add_help=False)
    learns.add_argument("--task", required=True, choices=sorted(TASKS))
    learns.add_argument("--scheme", choices=SCHEMES, default="multi")
    learns.add_argument("--subset", action="append", choices=sorted(FEATURE_SUBSETS))

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "generate a synthetic dataset tree", writes)
    p.add_argument("--participants", type=_count, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--null", action="store_true", help="zero all level effects")
    command("validate", cmd_validate, "count segment and dataset issues", reads)
    command("features", cmd_features, "extract the 8-feature table", reads, writes)
    command("stats", cmd_stats, "descriptives, correlations, reliability, paired t-tests", reads, writes)
    command("train", cmd_train, "fit and save an ensemble model", reads, writes, learns)
    p = command("evaluate", cmd_evaluate, "nested cross-validation report", reads, writes, learns)
    p.add_argument("--threads", type=_count, default=1)
    return parser


def run_cli(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    source = "--seed"
    if getattr(args, "seed", DEFAULT_SEED) is None:  # a seed-taking command without --seed
        source, env = "LOADSENSE_SEED", os.environ.get("LOADSENSE_SEED", str(DEFAULT_SEED))
        try:
            args.seed = int(env)
        except ValueError:
            print(f"usage: LOADSENSE_SEED must be an integer, got {env!r}", file=sys.stderr)
            return 2
    if getattr(args, "seed", DEFAULT_SEED) < 0:
        print(f"usage: {source} must be a non-negative integer, got {args.seed}", file=sys.stderr)
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
