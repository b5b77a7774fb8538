"""Command-line interface tests: happy paths, exit codes, provenance, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_segment
from loadsense import FORMAT_VERSION, core
from loadsense.cli import build_parser, run_cli
from loadsense.core import Dataset, DatasetError, LoadLevel, TaskKind, feature_matrix, load_dataset, write_dataset
from loadsense.evaluate import (FEATURE_SUBSETS, _labels, _rows_for_task, featurize_dataset, make_split_plan,
                                run_nested_cv)
from loadsense.learn import ADABOOST_MAX_STUMPS, fit_adaboost, fit_scaler, greedy_ensemble, grid_search, model_to_json


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("synth")
    assert run_cli(["synth", "--out", str(out), "--participants", "12", "--seed", "5"]) == 0
    return out / "dataset"


@pytest.fixture(scope="module")
def small_dataset_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("synth_small")
    assert run_cli(["synth", "--out", str(out), "--participants", "5", "--seed", "5"]) == 0
    return out / "dataset"


@pytest.fixture(scope="module")
def small_rows(small_dataset_dir):
    return featurize_dataset(load_dataset(small_dataset_dir))


class TestSynth:
    def test_writes_tree_config_and_run_record(self, tmp_path):
        assert run_cli(["synth", "--out", str(tmp_path), "--participants", "2", "--seed", "3"]) == 0
        assert (tmp_path / "dataset").is_dir()
        assert (tmp_path / "generator_config.txt").exists()
        record = json.loads((tmp_path / "run.json").read_text())
        assert record["seed"] == 3
        assert "config_hash" in record and "command" in record
        assert "time" not in json.dumps(record).lower()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["synth", "--out", str(tmp_path / "x"), "--participants", "2", "--seed", "3"]
        assert run_cli(args) == 0
        first = read_tree(tmp_path / "x")
        assert run_cli(args) == 0
        assert read_tree(tmp_path / "x") == first

    def test_null_flag(self, tmp_path):
        assert run_cli(["synth", "--out", str(tmp_path), "--participants", "1", "--seed", "0", "--null"]) == 0

    @pytest.mark.parametrize("flags", [[], ["--null"]], ids=["effect", "null"])
    def test_recorded_config_reproduces_tree(self, tmp_path, flags):
        first = tmp_path / "first"
        assert run_cli(["synth", "--out", str(first), "--participants", "1", "--seed", "3", *flags]) == 0
        again = tmp_path / "again"
        assert run_cli(["synth", "--out", str(again), "--config", str(first / "generator_config.txt"),
                        "--seed", "3"]) == 0
        assert read_tree(again / "dataset") == read_tree(first / "dataset")
        assert (again / "generator_config.txt").read_bytes() == (first / "generator_config.txt").read_bytes()

    @pytest.mark.parametrize("line", [
        "nback.easy.bogus=1", "nback.extreme.hr_sd=1", "bogus.easy.hr_sd=1", "seed=abc",
        "n_participants=2.5", "pupil_rate_hz=60.0", "n_stimuli=20",
        "nback.extreme.hr_mean_bpm=1", "bogus.easy.hr_mean_bpm=1", "nback.easy.hr_sd=1",
    ])
    def test_bad_config_line_is_data_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"seed=3\n{line}\n")
        assert run_cli(["synth", "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: ")
        assert not (tmp_path / "out").exists()

    def test_deleted_pupil_settings_are_unknown_keys(self, tmp_path, capsys):
        """The 12 per-condition LHIPA targets and pupil_noise_mm moved no feature and are gone."""
        cfg = tmp_path / "cfg.txt"
        keys = ["pupil_noise_mm"] + [f"{task}.{level}.lhipa_{eye}" for task in ("nback", "visual_search")
                                     for level in ("easy", "medium", "hard") for eye in ("left", "right")]
        for key in keys:
            cfg.write_text(f"seed=3\n{key}=2.38\n")
            assert run_cli(["synth", "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == f"error: {cfg}:2: unknown key {key!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "drive_session_sd=inf", "nback.easy.drive_dev_m=nan", "hr_baseline_sd=nan", "duration_max_s=-5",
        "hr_rmssd_baseline_corr=2", "drive_session_sd=-1", "hr_baseline_sd=-1", "duration_min_s=-5",
    ])
    def test_non_finite_or_inverted_config_value_is_data_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"seed=3\n{line}\n")
        assert run_cli(["synth", "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 1
        key = line.split("=")[0]
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: key {key!r}: ")
        assert not (tmp_path / "out").exists()

    def test_stale_segment_is_data_error(self, tmp_path, capsys):
        assert run_cli(["synth", "--out", str(tmp_path), "--participants", "2", "--seed", "7"]) == 0
        capsys.readouterr()
        before = read_tree(tmp_path)
        assert run_cli(["synth", "--out", str(tmp_path), "--participants", "1", "--seed", "11"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'dataset' / 'p001'}")
        assert read_tree(tmp_path) == before


class TestUsageErrors:
    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_evaluate_without_task_is_usage_error(self, dataset_dir, tmp_path, capsys):
        code = run_cli(["evaluate", "--dataset", str(dataset_dir), "--out", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_bad_dataset_is_data_error(self, tmp_path, capsys):
        code = run_cli(["validate", "--dataset", str(tmp_path / "nowhere")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_numeric_cell_is_data_error(self, tmp_path, capsys):
        write_dataset(Dataset(segments=(make_segment(),)), tmp_path)
        rr = tmp_path / "p000" / "nback_easy" / "rr.csv"
        lines = rr.read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ","
        rr.write_text("\n".join(lines) + "\n")
        assert run_cli(["validate", "--dataset", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "rr.csv:3: could not convert string to float: ''" in err
        assert err.splitlines()[-1].startswith("error: ")


class TestFeaturesAndStats:
    def test_features_writes_header_and_rows(self, dataset_dir, tmp_path):
        assert run_cli(["features", "--dataset", str(dataset_dir), "--out", str(tmp_path), "--seed", "5"]) == 0
        lines = (tmp_path / "features.csv").read_text().splitlines()
        assert lines[0] == f"# format_version={FORMAT_VERSION}"
        assert lines[1] == "# seed=5"
        assert lines[2].startswith("participant,task,level,hr_mean")
        assert len(lines) == 3 + 12 * 6

    def test_participant_id_holding_a_comma_skips_its_segments(self, tiny_dataset, tmp_path, capsys):
        write_dataset(tiny_dataset, tmp_path / "ds")
        manifests = sorted((tmp_path / "ds" / "p001").glob("*/manifest.json"))
        for manifest in manifests:
            manifest.write_text(manifest.read_text().replace('"p001"', '"p,0"'))
        assert run_cli(["features", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "features.csv").read_text().splitlines()[2:]
        assert len(lines) == 1 + 6 and {len(line.split(",")) for line in lines} == {11}
        err = capsys.readouterr().err.splitlines()
        assert err == [f"skipping segment: {m}: field 'participant' 'p,0' is empty or not one CSV cell"
                       for m in manifests]
        assert run_cli(["features", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "strict"),
                        "--strict"]) == 1
        assert not (tmp_path / "strict").exists()

    def test_stats_writes_all_outputs(self, dataset_dir, tmp_path):
        assert run_cli(["stats", "--dataset", str(dataset_dir), "--out", str(tmp_path), "--seed", "5"]) == 0
        for name in ("descriptives.csv", "reliability.csv", "correlations.txt", "paired_tests.csv", "run.json"):
            assert (tmp_path / name).exists()

    def test_stats_that_fails_writes_nothing(self, tmp_path, capsys):
        """One participant gives Cronbach's alpha too few rows: exit 1 and no
        output directory, not the tables computed before the failure."""
        assert run_cli(["synth", "--out", str(tmp_path), "--participants", "1", "--seed", "7"]) == 0
        capsys.readouterr()
        out = tmp_path / "stats"
        assert run_cli(["stats", "--dataset", str(tmp_path / "dataset"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cronbach_alpha: need at least 2 complete rows\n"
        assert not out.exists()

    def test_validate_counts_issues(self, dataset_dir, capsys):
        assert run_cli(["validate", "--dataset", str(dataset_dir)]) == 0
        out = capsys.readouterr().out
        assert "72 segments" in out

    def test_validate_counts_skipped_segments(self, tmp_path, capsys):
        assert run_cli(["synth", "--out", str(tmp_path), "--participants", "3", "--seed", "7"]) == 0
        rr = tmp_path / "dataset" / "p000" / "nback_easy" / "rr.csv"
        lines = rr.read_text().splitlines()
        lines[2] = "5.0,-1"
        rr.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["validate", "--dataset", str(tmp_path / "dataset")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ("dataset: warning: participant p000 lacks a complete n-back level set\n"
                                "17 segments, 2 issues\n")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"skipping segment: {rr.parent}: ")
        # the one skip line names both faults of the edited row
        assert "rr: timestamps not strictly increasing at t=" in captured.err
        assert "; non-positive RR interval -1.0" in captured.err

    def test_validate_checks_each_segment_once(self, tiny_dataset, tmp_path, capsys):
        write_dataset(tiny_dataset, tmp_path)
        code = core.validate_segment.__code__
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            assert run_cli(["validate", "--dataset", str(tmp_path)]) == 0
        finally:
            sys.setprofile(previous)
        assert len(calls) == len(list(tmp_path.glob("*/*/manifest.json"))) == 12
        assert capsys.readouterr().out == "12 segments, 0 issues\n"

    def test_validate_takes_no_out_or_seed(self, tmp_path):
        for flag, value in (("--out", str(tmp_path / "out")), ("--seed", "9")):
            assert run_cli(["validate", "--dataset", str(tmp_path), flag, value]) == 2
        assert not (tmp_path / "out").exists()

    def test_features_names_a_kept_segments_warning(self, tmp_path, capsys):
        pupil = np.array(make_segment().pupil_left)
        pupil[np.arange(len(pupil)) % 10 < 4, 2] = 0.0
        write_dataset(Dataset(segments=(make_segment(pupil_left=pupil),)), tmp_path / "ds")
        assert run_cli(["features", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (f"warning: {tmp_path / 'ds' / 'p000' / 'nback_easy'}: "
                                           "pupil_left: pupil gap fraction 0.40 > 0.25\n")
        lines = (tmp_path / "out" / "features.csv").read_text().splitlines()
        header, row = lines[2].split(","), lines[3].split(",")
        assert row[header.index("lhipa_left")] == ""
        assert row[header.index("lhipa_right")] != ""


class TestStreaming:
    """Every --dataset command reads the tree one segment at a time."""

    @pytest.fixture(scope="class")
    def channel_nbytes(self, dataset_dir) -> int:
        return sum(getattr(seg, name).nbytes for seg in load_dataset(dataset_dir).segments
                   for name in core.CHANNEL_FILES)

    @pytest.mark.parametrize("command", ["validate", "features", "stats"])
    def test_peak_memory_is_under_a_quarter_of_the_tree(self, dataset_dir, channel_nbytes, tmp_path, capsys,
                                                         command):
        argv = [command, "--dataset", str(dataset_dir)]
        if command != "validate":
            argv += ["--out", str(tmp_path), "--seed", "5"]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < channel_nbytes / 4, (peak, channel_nbytes)

    @pytest.mark.parametrize("command", ["features", "stats"])
    def test_strict_failure_on_the_last_segment_writes_nothing(self, tiny_dataset, tmp_path, capsys, command):
        write_dataset(tiny_dataset, tmp_path / "ds")
        last = sorted((tmp_path / "ds").glob("*/*/manifest.json"))[-1].parent
        rr = last / "rr.csv"
        lines = rr.read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ",-1"
        rr.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as raised:
            load_dataset(tmp_path / "ds", strict=True)
        out = tmp_path / "out"
        assert run_cli([command, "--dataset", str(tmp_path / "ds"), "--out", str(out), "--strict"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {raised.value}\n"
        assert captured.out == ""
        assert not out.exists()


def _reference_train_json(rows, task, scheme, subset_name, seed):
    """`cmd_train`'s split and fit before `evaluate.train`: the oracle for the
    shared fit-and-select path."""
    task_rows = _rows_for_task(rows, task, scheme)
    participants = sorted({r.participant for r in task_rows})
    rng = np.random.default_rng(seed)
    shuffled = [participants[i] for i in rng.permutation(len(participants))]
    n_val = max(1, math.ceil(len(shuffled) / 3))
    val_ids, train_ids = set(shuffled[:n_val]), set(shuffled[n_val:])
    train_rows = [r for r in task_rows if r.participant in train_ids]
    val_rows = [r for r in task_rows if r.participant in val_ids]
    subset = FEATURE_SUBSETS[subset_name]
    scaler = fit_scaler(feature_matrix(train_rows, subset))
    X_train = scaler.transform(feature_matrix(train_rows, subset))
    X_val = scaler.transform(feature_matrix(val_rows, subset))
    y_train = _labels(train_rows)
    candidates = grid_search(X_train, y_train, X_val, _labels(val_rows),
                             lambda: fit_adaboost(X_train, y_train, ADABOOST_MAX_STUMPS))
    ensemble = greedy_ensemble(candidates, _labels(val_rows))
    return model_to_json(dataclasses.replace(ensemble, scaler=scaler), seed=seed)


class TestTrainEvaluate:
    def test_train_writes_model(self, dataset_dir, tmp_path):
        code = run_cli(
            ["train", "--dataset", str(dataset_dir), "--out", str(tmp_path),
             "--seed", "5", "--task", "nback", "--scheme", "multi", "--subset", "heart"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["model"]["kind"] == "Ensemble"
        assert doc["seed"] == 5

    def test_train_rejects_a_second_subset(self, dataset_dir, tmp_path, capsys):
        code = run_cli(
            ["train", "--dataset", str(dataset_dir), "--out", str(tmp_path),
             "--seed", "5", "--task", "nback", "--subset", "heart", "--subset", "all"]
        )
        assert code == 2
        assert "one --subset" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("subset", ["all", "heart"])
    def test_train_model_matches_the_old_fit_path(self, small_dataset_dir, small_rows, tmp_path, subset):
        code = run_cli(
            ["train", "--dataset", str(small_dataset_dir), "--out", str(tmp_path),
             "--seed", "5", "--task", "nback", "--scheme", "multi", "--subset", subset]
        )
        assert code == 0
        expected = _reference_train_json(small_rows, TaskKind.NBACK, "multi", subset, seed=5)
        assert (tmp_path / "model.json").read_text() == expected

    def test_train_subsets_record_different_config_hashes(self, small_dataset_dir, tmp_path):
        hashes = []
        for subset in ("heart", "all"):
            out = tmp_path / subset
            assert run_cli(["train", "--dataset", str(small_dataset_dir), "--out", str(out),
                            "--seed", "5", "--task", "nback", "--subset", subset]) == 0
            hashes.append(json.loads((out / "run.json").read_text())["config_hash"])
        assert hashes[0] != hashes[1]

    def test_evaluate_writes_reports_exit_0(self, dataset_dir, tmp_path, capsys):
        code = run_cli(
            ["evaluate", "--dataset", str(dataset_dir), "--out", str(tmp_path),
             "--seed", "5", "--task", "nback", "--scheme", "binary", "--subset", "heart"]
        )
        assert code == 0
        assert (tmp_path / "report_nback_binary.csv").exists()
        assert (tmp_path / "report_nback_binary.txt").exists()
        assert "50%" in capsys.readouterr().out

    def test_evaluate_rerun_and_thread_count_are_byte_identical(self, dataset_dir, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "8"), ("c", "1")):
            out = tmp_path / name
            code = run_cli(
                ["evaluate", "--dataset", str(dataset_dir), "--out", str(out),
                 "--seed", "5", "--task", "nback", "--scheme", "multi",
                 "--subset", "heart", "--threads", threads]
            )
            assert code == 0
            outs.append(out)
        a, b, c = outs
        for name in ("report_nback_multi.csv", "report_nback_multi.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes() == (c / name).read_bytes()

    def test_all_missing_feature_column_prints_only_named_messages(self, tmp_path):
        """Every pupil_left confidence 0 leaves lhipa_left missing in every row,
        so the scaler sees an all-missing column.  The command runs in its own
        process, where a Python warning would reach stderr."""
        assert run_cli(["synth", "--out", str(tmp_path / "synth"), "--participants", "5", "--seed", "7"]) == 0
        for path in (tmp_path / "synth" / "dataset").rglob("pupil_left.csv"):
            header, *lines = path.read_text().splitlines()
            rows = [line.rsplit(",", 1)[0] + ",0" for line in lines]
            path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        src = str(Path(core.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run([sys.executable, "-m", "loadsense.cli", "evaluate", "--dataset",
                               str(tmp_path / "synth" / "dataset"), "--out", str(tmp_path / "eval"),
                               "--task", "nback", "--subset", "heart_eye"], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert any("lhipa" in line or "pupil" in line for line in lines)
        assert [line for line in lines if not line.startswith(("warning: ", "skipping segment: "))] == []

    def test_report_prints_saved_file(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        run_cli(["evaluate", "--dataset", str(dataset_dir), "--out", str(out),
                 "--seed", "5", "--task", "nback", "--scheme", "multi", "--subset", "heart"])
        capsys.readouterr()
        assert run_cli(["report", str(out / "report_nback_multi.csv")]) == 0
        assert "33.33" in capsys.readouterr().out


# each writing command's options besides --out and --seed, given the dataset directory
RECORDED_OPTIONS = {
    "synth": lambda dataset: ["--participants", "2", "--null"],
    "features": lambda dataset: ["--dataset", dataset],
    "stats": lambda dataset: ["--dataset", dataset, "--strict"],
    "train": lambda dataset: ["--dataset", dataset, "--task", "nback", "--scheme", "binary", "--subset", "heart"],
    "evaluate": lambda dataset: ["--dataset", dataset, "--task", "nback", "--subset", "heart",
                                 "--subset", "eye_drive", "--threads", "2"],
}


class TestOneClassTraining:
    """Training rows of one class fail on LDA's message, the first fit in
    grid order, never AdaBoost's: boosting every selection up front must
    leave the error where the selection reaches it."""

    def test_nested_cv_and_train_name_the_lda_error(self, small_dataset_dir, tmp_path, capsys):
        dataset = load_dataset(small_dataset_dir)
        easy = Dataset(segments=tuple(s for s in dataset.segments if s.level is LoadLevel.EASY))
        rows = featurize_dataset(easy)
        plan = make_split_plan(sorted({r.participant for r in rows}), k=5, seed=5)
        with pytest.raises(ValueError, match="^fit_lda: need at least 2 classes$"):
            run_nested_cv(rows, TaskKind.NBACK, "multi", plan)
        write_dataset(easy, tmp_path / "ds")
        for command in ("train", "evaluate"):
            out = tmp_path / command
            assert run_cli([command, "--dataset", str(tmp_path / "ds"), "--out", str(out), "--task", "nback"]) == 1
            assert capsys.readouterr().err == "error: fit_lda: need at least 2 classes\n"
            assert not out.exists()


class TestRunRecord:
    @pytest.mark.parametrize("command", sorted(RECORDED_OPTIONS))
    def test_config_is_the_parsed_options_but_out_and_seed(self, command, small_dataset_dir, tmp_path):
        argv = [command, "--out", str(tmp_path), "--seed", "5", *RECORDED_OPTIONS[command](str(small_dataset_dir))]
        assert run_cli(argv) == 0
        record = json.loads((tmp_path / "run.json").read_text())
        parsed = vars(build_parser().parse_args(argv))
        expected = {name: value for name, value in parsed.items() if name not in ("out", "seed", "func")}
        assert record["config"] == expected
        # every option given on the command line but --out and --seed is recorded
        given = {arg[2:] for arg in argv if arg.startswith("--")} - {"out", "seed"}
        assert given <= set(record["config"])
        assert record["config"]["subcommand"] == command
        assert (record["command"], record["seed"], record["format_version"]) == (argv, 5, FORMAT_VERSION)
        blob = json.dumps(record["config"], sort_keys=True).encode()
        assert record["config_hash"] == hashlib.sha256(blob).hexdigest()


class TestSeedEnvOverride:
    def test_env_variable_sets_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOADSENSE_SEED", "21")
        assert run_cli(["synth", "--out", str(tmp_path), "--participants", "1"]) == 0
        assert json.loads((tmp_path / "run.json").read_text())["seed"] == 21

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOADSENSE_SEED", "21")
        assert run_cli(["synth", "--out", str(tmp_path), "--participants", "1", "--seed", "4"]) == 0
        assert json.loads((tmp_path / "run.json").read_text())["seed"] == 4

    def test_non_integer_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LOADSENSE_SEED", "abc")
        assert run_cli(["features", "--dataset", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "usage: LOADSENSE_SEED must be an integer, got 'abc'\n"

    def test_non_integer_env_is_not_read_by_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LOADSENSE_SEED", "abc")
        (tmp_path / "r.csv").write_text("a,b\n")
        assert run_cli(["report", str(tmp_path / "r.csv")]) == 0
        assert capsys.readouterr() == ("a,b\n", "")

    def test_non_integer_env_is_not_read_with_explicit_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LOADSENSE_SEED", "abc")
        write_dataset(Dataset(segments=(make_segment(),)), tmp_path / "ds")
        assert run_cli(["features", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "out"),
                        "--seed", "4"]) == 0
        assert json.loads((tmp_path / "out" / "run.json").read_text())["seed"] == 4
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", sorted(RECORDED_OPTIONS))
    def test_negative_seed_is_usage_error(self, command, tmp_path, monkeypatch, capsys):
        argv = [command, "--out", str(tmp_path / "out"), *RECORDED_OPTIONS[command](str(tmp_path / "ds"))]
        assert run_cli([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "usage: --seed must be a non-negative integer, got -1\n"
        monkeypatch.setenv("LOADSENSE_SEED", "-3")
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == "usage: LOADSENSE_SEED must be a non-negative integer, got -3\n"
        assert not (tmp_path / "out").exists()


class TestInputImmutability:
    def test_evaluate_does_not_mutate_the_dataset_tree(self, dataset_dir, tmp_path):
        before = read_tree(dataset_dir)
        run_cli(["evaluate", "--dataset", str(dataset_dir), "--out", str(tmp_path),
                 "--seed", "5", "--task", "nback", "--scheme", "multi", "--subset", "heart"])
        assert read_tree(dataset_dir) == before
