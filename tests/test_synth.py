"""Synthetic generator tests: structure, determinism, statistical fidelity,
effect directions, null mode, and config round trips."""

import dataclasses
import math
import re
import tempfile
import time
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loadsense.core import LoadLevel, TaskKind, load_dataset, validate_dataset, validate_segment, write_dataset
from loadsense.cardiac import compute_cardiac_features
from loadsense.driving import compute_drive_avg_dev, nback_rate, visual_search_perf
from loadsense.evaluate import featurize_dataset
from loadsense.synth import (
    DEFAULT_TARGETS,
    DIAMETER_DECIMALS,
    LATERAL_DECIMALS,
    RR_DECIMALS,
    TIME_DECIMALS,
    GeneratorConfig,
    LevelTargets,
    config_text,
    generate_dataset,
    load_config,
    null_config,
)


PROTOCOL_CONSTANTS = [
    "first_onset_s", "n_stimuli", "stimulus_interval_s", "nback_target_fraction", "visual_search_target_fraction",
    "pupil_rate_hz", "pupil_base_mm", "lhipa_reference", "driving_rate_hz", "rt_sd_s", "pupil_noise_mm",
]
# [low, high] of every bounded scalar setting (None: unbounded); a segment holds
# the 121-s protocol and stays within validate_segment's 300 s, and
# duration_min_s <= duration_max_s besides
ACCEPTED_RANGES = {
    "n_participants": (1, None),
    "hr_baseline_sd": (0.0, None),
    "rmssd_baseline_sd": (0.0, None),
    "drive_baseline_sd": (0.0, None),
    "drive_session_sd": (0.0, None),
    "hr_rmssd_baseline_corr": (-1.0, 1.0),
    "duration_min_s": (121.0, 300.0),
    "duration_max_s": (121.0, 300.0),
}
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
LEVEL_TARGETS = st.builds(LevelTargets, *[FLOATS] * len(dataclasses.fields(LevelTargets)))


def _accepted(name, kind):
    low, high = ACCEPTED_RANGES.get(name, (None, None))
    if kind is int:
        return st.integers(min_value=low, max_value=high)
    return st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)


# any value load_config accepts in every GeneratorConfig field, targets included:
# finite floats inside ACCEPTED_RANGES, and the duration bounds in order
CONFIGS = st.builds(GeneratorConfig, **{
    name: st.fixed_dictionaries(dict.fromkeys(DEFAULT_TARGETS, LEVEL_TARGETS)) if name == "targets"
    else _accepted(name, kind)
    for name, kind in get_type_hints(GeneratorConfig).items()
}).map(lambda c: dataclasses.replace(c, duration_min_s=min(c.duration_min_s, c.duration_max_s),
                                     duration_max_s=max(c.duration_min_s, c.duration_max_s)))


def level_means(rows, task, dimension):
    out = {}
    for level in LoadLevel:
        vals = [
            r.features.value(dimension)
            for r in rows
            if r.task is task and r.level is level and r.features.value(dimension) is not None
        ]
        out[level] = float(np.mean(vals))
    return out


class TestStructure:
    def test_full_config_produces_valid_segments(self):
        ds = generate_dataset(GeneratorConfig(seed=0, n_participants=45))
        assert len({seg.participant_id for seg in ds.segments}) == 45
        assert len(ds.segments) == 45 * 6
        for seg in ds.segments[:12]:  # validating all 270 is slow; spot-check 2 participants
            assert not any(i.is_error for i in validate_segment(seg))
        assert not any(i.is_error for i in validate_dataset((s.participant_id, s.task, s.level) for s in ds.segments))

    def test_smoke_config_is_fast(self):
        start = time.monotonic()
        ds = generate_dataset(GeneratorConfig(seed=0, n_participants=5))
        assert len(ds.segments) == 30
        assert time.monotonic() - start < 5.0

    def test_nonpositive_participants_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(GeneratorConfig(n_participants=0))


class TestDeterminism:
    def test_same_seed_gives_equal_datasets(self):
        config = GeneratorConfig(seed=11, n_participants=3)
        assert generate_dataset(config) == generate_dataset(config)

    def test_same_seed_gives_byte_identical_trees(self, tmp_path):
        config = GeneratorConfig(seed=11, n_participants=3)
        write_dataset(generate_dataset(config), tmp_path / "a")
        write_dataset(generate_dataset(config), tmp_path / "b")
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_different_seeds_differ(self):
        a = generate_dataset(GeneratorConfig(seed=1, n_participants=2))
        b = generate_dataset(GeneratorConfig(seed=2, n_participants=2))
        assert a != b

    def test_participant_streams_are_independent_of_count(self):
        small = generate_dataset(GeneratorConfig(seed=5, n_participants=2))
        large = generate_dataset(GeneratorConfig(seed=5, n_participants=4))
        assert small.segments == large.segments[: len(small.segments)]


# decimals of each generated channel column: onsets are whole ms, and
# confidence (0 or 1) and lanes are integral
COLUMN_DECIMALS = {
    "rr_intervals": (3, RR_DECIMALS),
    "pupil_left": (TIME_DECIMALS, DIAMETER_DECIMALS, 0),
    "pupil_right": (TIME_DECIMALS, DIAMETER_DECIMALS, 0),
    "driving": (TIME_DECIMALS, LATERAL_DECIMALS, 0),
}


class TestResolution:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_every_sample_sits_on_its_declared_grid(self, seed):
        for seg in generate_dataset(GeneratorConfig(seed=seed, n_participants=3)).segments:
            for name, decimals in COLUMN_DECIMALS.items():
                samples = getattr(seg, name)
                assert len(samples)
                for column, d in zip(samples.T, decimals):
                    assert np.array_equal(np.round(column, d), column), (seed, name, d)
            onsets, rr_ms = seg.rr_intervals.T
            assert np.array_equal(onsets, np.cumsum(rr_ms) / 1000.0)
            for pupil in (seg.pupil_left, seg.pupil_right):
                assert set(np.unique(pupil[:, 2])) <= {0.0, 1.0}

    def test_seed7_tree_reloads_equal(self, tmp_path):
        dataset = generate_dataset(GeneratorConfig(seed=7, n_participants=3))
        write_dataset(dataset, tmp_path)
        loaded = {(s.participant_id, s.task, s.level): s for s in load_dataset(tmp_path).segments}
        assert loaded == {(s.participant_id, s.task, s.level): s for s in dataset.segments}


@pytest.fixture(scope="module")
def seed7_rows():
    ds = generate_dataset(GeneratorConfig(seed=7, n_participants=45))
    return featurize_dataset(ds)


class TestStatisticalFidelity:
    def test_nback_hr_means_near_targets(self, seed7_rows):
        # central-limit bound from the descriptive-table spread: 1.5 * 12.60 / sqrt(45)
        bound = 1.5 * 12.60 / math.sqrt(45)
        means = level_means(seed7_rows, TaskKind.NBACK, "hr_mean")
        for level in LoadLevel:
            target = DEFAULT_TARGETS[(TaskKind.NBACK, level)].hr_mean_bpm
            assert abs(means[level] - target) < bound

    def test_nback_rmssd_means_near_targets(self, seed7_rows):
        config = GeneratorConfig()
        bound = 3.0 * config.rmssd_baseline_sd / math.sqrt(45) + 0.5  # + artifact-cleaning slack
        means = level_means(seed7_rows, TaskKind.NBACK, "hrv_rmssd")
        for level in LoadLevel:
            target = DEFAULT_TARGETS[(TaskKind.NBACK, level)].rmssd_ms
            assert abs(means[level] - target) < bound

    def test_drive_means_near_targets(self, seed7_rows):
        config = GeneratorConfig()
        sd = math.hypot(config.drive_baseline_sd, config.drive_session_sd)
        bound = 3.0 * sd / math.sqrt(45)
        for task in TaskKind:
            means = level_means(seed7_rows, task, "drive_avg_dev")
            for level in LoadLevel:
                target = DEFAULT_TARGETS[(task, level)].drive_dev_m
                assert abs(means[level] - target) < bound

    def test_lhipa_lands_in_the_expected_band(self, seed7_rows):
        for dim in ("lhipa_left", "lhipa_right"):
            means = level_means(seed7_rows, TaskKind.NBACK, dim)
            for level in LoadLevel:
                assert 2.2 <= means[level] <= 2.6

    def test_effect_directions_for_nback(self, seed7_rows):
        hr = level_means(seed7_rows, TaskKind.NBACK, "hr_mean")
        rmssd = level_means(seed7_rows, TaskKind.NBACK, "hrv_rmssd")
        drive = level_means(seed7_rows, TaskKind.NBACK, "drive_avg_dev")
        assert hr[LoadLevel.EASY] < hr[LoadLevel.MEDIUM] < hr[LoadLevel.HARD]
        assert rmssd[LoadLevel.EASY] > rmssd[LoadLevel.MEDIUM] > rmssd[LoadLevel.HARD]
        assert drive[LoadLevel.EASY] < drive[LoadLevel.HARD]


@pytest.fixture(scope="module")
def seed7_dataset():
    return generate_dataset(GeneratorConfig(seed=7, n_participants=45))


class TestBehavior:
    def test_nback_rates_fall_with_difficulty(self, seed7_dataset):
        rates = {}
        for level in LoadLevel:
            segs = [s for s in seed7_dataset.segments if s.task is TaskKind.NBACK and s.level is level]
            rates[level] = float(np.mean([nback_rate(s.events) for s in segs]))
        assert rates[LoadLevel.EASY] > rates[LoadLevel.MEDIUM] > rates[LoadLevel.HARD]
        assert rates[LoadLevel.EASY] == pytest.approx(0.96, abs=0.05)
        assert rates[LoadLevel.HARD] == pytest.approx(0.36, abs=0.10)

    def test_visual_search_rt_rises_with_difficulty(self, seed7_dataset):
        rts = {}
        for level in LoadLevel:
            segs = [
                s for s in seed7_dataset.segments if s.task is TaskKind.VISUAL_SEARCH and s.level is level
            ]
            rts[level] = float(np.mean([visual_search_perf(s.events)[0] for s in segs]))
        assert rts[LoadLevel.EASY] < rts[LoadLevel.MEDIUM] < rts[LoadLevel.HARD]
        assert rts[LoadLevel.EASY] == pytest.approx(1.29, abs=0.08)
        assert rts[LoadLevel.HARD] == pytest.approx(1.75, abs=0.08)


# target field -> (its measure on one segment, the task whose segments carry
# it (None: every task), the shift applied to the field in every condition, and
# the change of the measure's cohort mean that shift should bring)
TARGET_MEASURES = {
    "hr_mean_bpm": (lambda seg: compute_cardiac_features(seg.rr_intervals)["hr_mean"], None, 5.0, 5.0),
    "rmssd_ms": (lambda seg: compute_cardiac_features(seg.rr_intervals)["hrv_rmssd"], None, 5.0, 5.0),
    "drive_dev_m": (lambda seg: compute_drive_avg_dev(seg.driving), None, 0.1, 0.1),
    # (hits - false positives) / 10 targets, with 30 non-targets per segment
    "hit_prob": (lambda seg: nback_rate(seg.events), TaskKind.NBACK, -0.3, -0.3),
    "false_positive_prob": (lambda seg: nback_rate(seg.events), TaskKind.NBACK, 0.1, -0.3),
    "rt_mean_s": (lambda seg: visual_search_perf(seg.events)[0], TaskKind.VISUAL_SEARCH, 0.3, 0.3),
}


# a behaviour target's measure on the segments of the task TARGET_MEASURES
# does not measure it on: (measure, shift, expected change) as above.  A
# visual-search segment has 20 targets and 20 non-targets in 40 stimuli.
OTHER_TASK_MEASURES = {
    ("hit_prob", TaskKind.VISUAL_SEARCH): (lambda seg: visual_search_perf(seg.events)[1], -0.3, -0.15),
    ("false_positive_prob", TaskKind.VISUAL_SEARCH): (lambda seg: visual_search_perf(seg.events)[1], 0.1, -0.05),
    ("rt_mean_s", TaskKind.NBACK): (lambda seg: visual_search_perf(seg.events)[0], 0.3, 0.3),
}

# (field, task) keys that move nothing in that task's segments yet (ROADMAP
# item 6): an n-back response time is drawn from uniform(0.4, 1.8), whatever
# rt_mean_s holds.  Once item 6 makes a key live, its case fails until the key
# is removed from this set.
DEAD_TARGET_KEYS = {("rt_mean_s", TaskKind.NBACK)}


TARGET_BASE = GeneratorConfig(n_participants=4, seed=3)


def _shifted(name, shift, tasks):
    """TARGET_BASE with target field `name` shifted in the conditions of `tasks`."""
    return dataclasses.replace(TARGET_BASE, targets={
        cond: dataclasses.replace(t, **{name: getattr(t, name) + shift}) if cond[0] in tasks else t
        for cond, t in TARGET_BASE.targets.items()})


def _cohort_change(name, shift, measure, tasks):
    """The change of `measure`'s mean over the segments of `tasks` when `name`
    is shifted in those tasks' conditions."""
    def cohort_mean(config):
        return float(np.mean([measure(s) for s in generate_dataset(config).segments if s.task in tasks]))

    return cohort_mean(_shifted(name, shift, tasks)) - cohort_mean(TARGET_BASE)


class TestTargetEffects:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(LevelTargets)])
    def test_every_target_field_moves_what_it_targets(self, name):
        """Shifting a target moves its measure by at least half the expected
        change, in its direction: a target that moves nothing is no setting."""
        assert name in TARGET_MEASURES, f"target field {name!r} has no measure it moves"
        measure, task, shift, expected = TARGET_MEASURES[name]
        change = _cohort_change(name, shift, measure, set(TaskKind) if task is None else {task})
        assert change / expected >= 0.5, f"{name} {shift:+} moved its measure by {change:.4f}, expected {expected}"

    @pytest.mark.parametrize("task", list(TaskKind), ids=lambda task: task.value)
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(LevelTargets)])
    def test_every_target_key_moves_its_own_task(self, name, task):
        """Shifting a target in one task's three conditions alone moves its
        measure on that task's segments, as above."""
        if (name, task) in OTHER_TASK_MEASURES:
            measure, shift, expected = OTHER_TASK_MEASURES[(name, task)]
        else:
            measure, measured_task, shift, expected = TARGET_MEASURES[name]
            assert measured_task in (None, task)
        if (name, task) in DEAD_TARGET_KEYS:
            assert generate_dataset(_shifted(name, shift, {task})) == generate_dataset(TARGET_BASE), \
                f"{task.value}.*.{name} now moves the tree: remove it from DEAD_TARGET_KEYS"
            return
        change = _cohort_change(name, shift, measure, {task})
        assert change / expected >= 0.5, \
            f"{task.value}.*.{name} {shift:+} moved its measure by {change:.4f}, expected {expected}"


class TestNullMode:
    def test_null_config_equalizes_levels(self):
        cfg = null_config(GeneratorConfig())
        for task in TaskKind:
            targets = [cfg.targets[(task, level)] for level in LoadLevel]
            assert targets[0] == targets[1] == targets[2]

    def test_null_level_means_differ_only_by_sampling_noise(self):
        ds = generate_dataset(null_config(GeneratorConfig(seed=4, n_participants=45)))
        rows = featurize_dataset(ds)
        config = GeneratorConfig()
        ses = {
            "hr_mean": config.hr_baseline_sd / math.sqrt(45),
            "drive_avg_dev": math.hypot(config.drive_baseline_sd, config.drive_session_sd) / math.sqrt(45),
        }
        for dim, se in ses.items():
            means = level_means(rows, TaskKind.NBACK, dim)
            values = list(means.values())
            # baselines are shared across levels, so level differences only
            # carry the per-segment noise: allow 3 * sqrt(2) * se
            assert max(values) - min(values) < 3.0 * math.sqrt(2.0) * se


class TestInfeasibleTargets:
    def test_rmssd_exceeding_mean_rr_rejected(self):
        bad = dataclasses.replace(
            DEFAULT_TARGETS[(TaskKind.NBACK, LoadLevel.EASY)], rmssd_ms=900.0, hr_mean_bpm=75.0
        )
        targets = dict(DEFAULT_TARGETS)
        targets[(TaskKind.NBACK, LoadLevel.EASY)] = bad
        config = dataclasses.replace(GeneratorConfig(n_participants=1), targets=targets)
        with pytest.raises(ValueError, match="infeasible"):
            generate_dataset(config)

    def test_jitter_reaching_artifact_floor_rejected(self):
        bad = dataclasses.replace(
            DEFAULT_TARGETS[(TaskKind.NBACK, LoadLevel.EASY)], rmssd_ms=220.0, hr_mean_bpm=75.0
        )
        targets = dict(DEFAULT_TARGETS)
        targets[(TaskKind.NBACK, LoadLevel.EASY)] = bad
        config = dataclasses.replace(GeneratorConfig(n_participants=1), targets=targets)
        with pytest.raises(ValueError, match="artifact-rejection floor"):
            generate_dataset(config)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        config = dataclasses.replace(GeneratorConfig(), seed=13, n_participants=9, hr_baseline_sd=4.5)
        (tmp_path / "cfg.txt").write_text(config_text(config), encoding="utf-8")
        loaded = load_config(tmp_path / "cfg.txt")
        assert loaded.seed == 13
        assert loaded.n_participants == 9
        assert loaded.hr_baseline_sd == 4.5
        assert loaded.targets == config.targets

    def test_target_override(self, tmp_path):
        (tmp_path / "cfg.txt").write_text("nback.easy.hr_mean_bpm=70.0\n")
        loaded = load_config(tmp_path / "cfg.txt")
        assert loaded.targets[(TaskKind.NBACK, LoadLevel.EASY)].hr_mean_bpm == 70.0
        # everything else untouched
        assert loaded.targets[(TaskKind.NBACK, LoadLevel.MEDIUM)] == DEFAULT_TARGETS[
            (TaskKind.NBACK, LoadLevel.MEDIUM)
        ]

    def test_bad_line_rejected(self, tmp_path):
        (tmp_path / "cfg.txt").write_text("this is not a key value pair\n")
        with pytest.raises(ValueError, match="expected key=value"):
            load_config(tmp_path / "cfg.txt")

    # the rest are fixed protocol and sensor constants (or were), not settings
    @pytest.mark.parametrize("key", ["speed_mps", "targets", "n_participant", *PROTOCOL_CONSTANTS])
    def test_unknown_scalar_key_names_file_line_and_key(self, tmp_path, key):
        (tmp_path / "cfg.txt").write_text(f"seed=3\n{key}=25.0\n")
        with pytest.raises(ValueError, match=rf"cfg.txt:2: unknown key '{key}'"):
            load_config(tmp_path / "cfg.txt")

    @pytest.mark.parametrize(
        "key", ["nback.easy.bogus", "nback.extreme.hr_sd", "bogus.easy.hr_sd", "nback.easy", "nback.easy.hr_sd.x",
                "nback.extreme.hr_mean_bpm", "bogus.easy.hr_mean_bpm", "nback.easy.hr_mean_bpm.x",
                # the pooled per-condition sds were never read, and are no longer keys
                "nback.easy.hr_sd", "nback.medium.rmssd_sd", "visual_search.hard.lhipa_left_sd",
                "visual_search.easy.lhipa_right_sd", "nback.hard.drive_sd",
                # the LHIPA targets moved no feature, and are no longer keys
                "nback.easy.lhipa_left", "visual_search.hard.lhipa_right"]
    )
    def test_unknown_target_key_names_file_line_and_key(self, tmp_path, key):
        (tmp_path / "cfg.txt").write_text(f"seed=3\n{key}=1\n")
        with pytest.raises(ValueError, match=rf"cfg.txt:2: unknown key '{key}'"):
            load_config(tmp_path / "cfg.txt")

    @pytest.mark.parametrize(
        "line",
        ["seed=abc", "seed=7.0", "n_participants=2.5", "hr_baseline_sd=", "nback.easy.hr_mean_bpm=1,5"],
    )
    def test_unparsable_value_names_file_line_and_key(self, tmp_path, line):
        key = line.split("=")[0]
        (tmp_path / "cfg.txt").write_text(f"seed=3\n{line}\n")
        with pytest.raises(ValueError, match=rf"cfg.txt:2: key '{key}': not (int|float): "):
            load_config(tmp_path / "cfg.txt")

    @pytest.mark.parametrize("key", ["drive_session_sd", "duration_min_s", "nback.hard.rt_mean_s"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_names_file_line_and_key(self, tmp_path, key, value):
        (tmp_path / "cfg.txt").write_text(f"seed=3\n{key}={value}\n")
        with pytest.raises(ValueError, match=rf"cfg.txt:2: key '{key}': not finite: '{value}'"):
            load_config(tmp_path / "cfg.txt")

    @pytest.mark.parametrize("text, line, key", [
        ("duration_max_s=-5\n", 2, "duration_max_s"),
        ("duration_min_s=170\n", 2, "duration_min_s"),
        ("duration_max_s=140\nduration_min_s=150\n", 3, "duration_min_s"),
        ("duration_min_s=150\nduration_max_s=140\n", 3, "duration_max_s"),
    ])
    def test_inverted_duration_bounds_name_the_later_line(self, tmp_path, text, line, key):
        (tmp_path / "cfg.txt").write_text(f"seed=3\n{text}")
        with pytest.raises(ValueError, match=rf"cfg.txt:{line}: key '{key}': duration_max_s .* is below duration_min_s"):
            load_config(tmp_path / "cfg.txt")

    @pytest.mark.parametrize("line, bound", [
        ("n_participants=0", "0 is below 1"),
        ("hr_baseline_sd=-1", "-1.0 is below 0.0"),
        ("rmssd_baseline_sd=-0.5", "-0.5 is below 0.0"),
        ("drive_baseline_sd=-1e-9", "-1e-09 is below 0.0"),
        ("drive_session_sd=-1", "-1.0 is below 0.0"),
        ("hr_rmssd_baseline_corr=2", "2.0 is above 1.0"),
        ("hr_rmssd_baseline_corr=-1.5", "-1.5 is below -1.0"),
        ("duration_min_s=-5", "-5.0 is below 121.0"),
        ("duration_min_s=59.5", "59.5 is below 121.0"),
        ("duration_min_s=120.5", "120.5 is below 121.0"),
        ("duration_max_s=300.5", "300.5 is above 300.0"),
    ])
    def test_out_of_range_value_names_file_line_and_key(self, tmp_path, line, bound):
        key = line.split("=")[0]
        (tmp_path / "cfg.txt").write_text(f"seed=3\n{line}\n")
        with pytest.raises(ValueError, match=rf"cfg.txt:2: key '{key}': {re.escape(bound)}$"):
            load_config(tmp_path / "cfg.txt")

    @pytest.mark.parametrize("line", [
        "n_participants=1", "hr_baseline_sd=0", "rmssd_baseline_sd=0", "drive_baseline_sd=0",
        "drive_session_sd=0", "hr_rmssd_baseline_corr=-1", "hr_rmssd_baseline_corr=1",
        "duration_min_s=121", "duration_max_s=300",
    ])
    def test_value_on_its_bound_is_accepted(self, tmp_path, line):
        key, value = line.split("=")
        (tmp_path / "cfg.txt").write_text(f"{line}\n")
        assert getattr(load_config(tmp_path / "cfg.txt"), key) == float(value)

    def test_config_on_its_bounds_generates_valid_segments(self, tmp_path):
        for duration in ("121", "300"):
            lines = ["n_participants=1", "hr_baseline_sd=0", "rmssd_baseline_sd=0", "drive_baseline_sd=0",
                     "drive_session_sd=0", "hr_rmssd_baseline_corr=1",
                     f"duration_min_s={duration}", f"duration_max_s={duration}"]
            (tmp_path / "cfg.txt").write_text("\n".join(lines) + "\n")
            dataset = generate_dataset(load_config(tmp_path / "cfg.txt"))
            assert len(dataset.segments) == 6
            assert not [i for seg in dataset.segments for i in validate_segment(seg) if i.is_error]

    def test_equal_duration_bounds_are_accepted(self, tmp_path):
        (tmp_path / "cfg.txt").write_text("duration_min_s=150\nduration_max_s=150\n")
        config = load_config(tmp_path / "cfg.txt")
        assert config.duration_min_s == config.duration_max_s == 150.0

    def test_keys_are_the_dataclass_fields(self):
        keys = [line.split("=")[0] for line in config_text(GeneratorConfig()).splitlines()]
        scalars = [f.name for f in dataclasses.fields(GeneratorConfig) if f.name != "targets"]
        assert keys[: len(scalars)] == scalars
        assert len(scalars) == 9
        assert len(keys) == 9 + 6 * 6
        assert len(keys) == len(scalars) + len(DEFAULT_TARGETS) * len(dataclasses.fields(LevelTargets))

    @settings(max_examples=100, deadline=None)
    @given(config=CONFIGS)
    def test_every_field_round_trips(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "cfg.txt").write_text(config_text(config), encoding="utf-8")
            assert load_config(Path(tmp) / "cfg.txt") == config

    def test_targets_cover_all_conditions(self):
        assert set(DEFAULT_TARGETS) == {(t, l) for t in TaskKind for l in LoadLevel}
        for targets in DEFAULT_TARGETS.values():
            assert isinstance(targets, LevelTargets)
