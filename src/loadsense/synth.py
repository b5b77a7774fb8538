"""Deterministic synthetic-session generator.

Per-condition feature targets default to the study's descriptive table;
within-participant level effects are additive shifts on a per-participant
baseline.  Baseline spreads are a modeling assumption (they are NOT the
pooled per-condition standard deviations, which mix between-participant
spread, level effects, and measurement noise); they are part of the config
so the decomposition is explicit.

generator_config.txt records every GeneratorConfig field, so that file and
the seed reproduce a tree.  The protocol and sensors are fixed constants:
FIRST_ONSET_S, N_STIMULI, NBACK_TARGET_FRACTION, VISUAL_SEARCH_TARGET_FRACTION,
PUPIL_RATE_HZ, PUPIL_BASE_MM, PUPIL_NOISE_MM, DRIVING_RATE_HZ, RT_SD_S,
driving.DEFAULT_SPEED_MPS and driving.STIMULUS_WINDOW_S.

There are no pupil targets: LHIPA, a ratio of two wavelet detail bands of
one signal, does not move with the noise scale, so PUPIL_NOISE_MM is fixed.

Every sampled channel is rounded here to the resolution a real sensor
records, so the in-memory dataset equals the tree `write_dataset` writes:

- RR_DECIMALS = 0: RR intervals in whole milliseconds; an onset is the
  cumulative sum of whole-ms intervals, so onsets are exact ms too;
- TIME_DECIMALS = 4: pupil and driving sample times on a 0.1 ms clock;
- DIAMETER_DECIMALS = 3: pupil diameter in micrometres (after the 0.5 mm
  floor);
- LATERAL_DECIMALS = 3: lateral position in millimetres.

Confidence (0 or 1), target lanes, event times and duration_s are not
rounded.

Per-participant RNG streams are derived from (seed, participant index), so
output is independent of generation order and byte-identical per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .cardiac import MIN_RR_MS
from .core import (
    LEVELS,
    SEGMENT_MAX_DURATION_S,
    TASKS,
    Dataset,
    EventKind,
    LoadLevel,
    SessionSegment,
    TaskEvent,
    TaskKind,
)
from .driving import DEFAULT_SPEED_MPS, STIMULUS_WINDOW_S, build_ideal_path


@dataclass(frozen=True)
class LevelTargets:
    """Per (task, level) population means the generator aims for."""

    hr_mean_bpm: float
    rmssd_ms: float
    drive_dev_m: float
    # secondary-task behavior
    hit_prob: float
    false_positive_prob: float
    rt_mean_s: float


# Defaults follow the study's per-condition descriptive means; behavior
# probabilities are set so n-back performance rates land near 0.96/0.85/0.36
# and visual-search accuracy near 0.99/0.99/0.95.
DEFAULT_TARGETS: dict[tuple[TaskKind, LoadLevel], LevelTargets] = {
    (TaskKind.NBACK, LoadLevel.EASY): LevelTargets(77.49, 37.79, 0.15, 0.97, 0.003, 0.9),
    (TaskKind.NBACK, LoadLevel.MEDIUM): LevelTargets(82.54, 31.86, 0.21, 0.88, 0.010, 1.1),
    (TaskKind.NBACK, LoadLevel.HARD): LevelTargets(82.97, 30.34, 0.23, 0.48, 0.040, 1.3),
    (TaskKind.VISUAL_SEARCH, LoadLevel.EASY): LevelTargets(77.29, 38.37, 0.24, 0.99, 0.010, 1.29),
    (TaskKind.VISUAL_SEARCH, LoadLevel.MEDIUM): LevelTargets(78.58, 36.52, 0.24, 0.99, 0.010, 1.44),
    (TaskKind.VISUAL_SEARCH, LoadLevel.HARD): LevelTargets(78.63, 37.70, 0.27, 0.95, 0.010, 1.75),
}


# Fixed session protocol and sensor constants.
FIRST_ONSET_S = 1.0
N_STIMULI = 40
# the last stimulus window ends here, after every response (<= 2.9 s after onset)
PROTOCOL_SPAN_S = FIRST_ONSET_S + N_STIMULI * STIMULUS_WINDOW_S
NBACK_TARGET_FRACTION = 0.25
VISUAL_SEARCH_TARGET_FRACTION = 0.5
PUPIL_RATE_HZ = 120.0
PUPIL_BASE_MM = 4.0
PUPIL_NOISE_MM = 0.02  # white-noise sd of every pupil sample
DRIVING_RATE_HZ = 33.0
RT_SD_S = 0.18
# decimals each sampled channel is rounded to (see the module docstring)
RR_DECIMALS = 0
TIME_DECIMALS = 4
DIAMETER_DECIMALS = 3
LATERAL_DECIMALS = 3


@dataclass(frozen=True)
class GeneratorConfig:
    n_participants: int = 45
    seed: int = 7
    targets: dict[tuple[TaskKind, LoadLevel], LevelTargets] = field(
        default_factory=lambda: dict(DEFAULT_TARGETS)
    )
    # between-participant baseline spreads (additive offsets on the targets)
    hr_baseline_sd: float = 5.0
    rmssd_baseline_sd: float = 6.0
    drive_baseline_sd: float = 0.015
    # driving deviation varies session to session much more than its stable
    # per-driver component, which keeps its cross-condition consistency low
    drive_session_sd: float = 0.09
    # baseline HR and HRV are anticorrelated across participants
    hr_rmssd_baseline_corr: float = -0.5
    # segment timing
    duration_min_s: float = 125.0
    duration_max_s: float = 160.0


def null_config(config: GeneratorConfig) -> GeneratorConfig:
    """Zero all level effects: every level of a task gets that task's mean targets."""
    targets = {}
    for task in TaskKind:
        per_level = [config.targets[(task, level)] for level in LoadLevel]
        mean_t = LevelTargets(
            *[float(np.mean([getattr(t, f) for t in per_level])) for f in LevelTargets.__dataclass_fields__]
        )
        for level in LoadLevel:
            targets[(task, level)] = mean_t
    return replace(config, targets=targets)


def _rng_for(config: GeneratorConfig, participant_index: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, participant_index])


def _synth_rr(rng, duration_s: float, hr_bpm: float, rmssd_ms: float):
    mean_rr = 60000.0 / hr_bpm
    if rmssd_ms >= mean_rr:
        raise ValueError(f"infeasible targets: RMSSD {rmssd_ms} >= mean RR {mean_rr:.0f}")
    jitter_sd = rmssd_ms / math.sqrt(2.0)
    if mean_rr - 3.2 * jitter_sd <= MIN_RR_MS:
        raise ValueError("infeasible targets: RR jitter reaches the artifact-rejection floor")
    n_max = int(duration_s * 1000.0 / (mean_rr - 3.2 * jitter_sd)) + 2
    # truncate jitter at 3.2 sd so successive jumps stay inside cleaning bounds
    jitter = np.clip(rng.normal(0.0, jitter_sd, size=n_max), -3.2 * jitter_sd, 3.2 * jitter_sd)
    rr = np.round(mean_rr + jitter, RR_DECIMALS)
    onsets = np.cumsum(rr) / 1000.0
    keep = onsets <= duration_s
    return np.column_stack((onsets[keep], rr[keep]))


def _synth_pupil(rng, duration_s: float, base_mm: float):
    n = int(duration_s * PUPIL_RATE_HZ)
    t = np.round(np.arange(n) / PUPIL_RATE_HZ, TIME_DECIMALS)
    signal = np.full(n, base_mm)
    for _ in range(3):
        freq = rng.uniform(0.1, 0.5)
        amp = rng.uniform(0.05, 0.15)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        signal += amp * np.sin(2.0 * math.pi * freq * t + phase)
    signal += rng.normal(0.0, PUPIL_NOISE_MM, size=n)
    signal = np.round(np.maximum(signal, 0.5), DIAMETER_DECIMALS)
    confidence = np.ones(n)
    # a few sub-500 ms tracking dropouts
    for _ in range(rng.poisson(3.0)):
        start = rng.integers(0, max(1, n - 60))
        width = int(rng.uniform(0.1, 0.4) * PUPIL_RATE_HZ)
        confidence[start : start + width] = 0.0
    return np.column_stack((t, signal, confidence))


def _synth_driving(rng, duration_s: float, dev_target_m: float):
    route_m = DEFAULT_SPEED_MPS * duration_s
    change_points = []
    lane = 1
    s = 80.0 + rng.uniform(0.0, 40.0)
    while s < route_m - 50.0:
        options = [l for l in (lane - 1, lane + 1) if 0 <= l <= 2]
        to_lane = int(rng.choice(options))
        change_points.append((s, lane, to_lane))
        lane = to_lane
        s += rng.uniform(120.0, 200.0)
    path = build_ideal_path(change_points)
    n = int(duration_s * DRIVING_RATE_HZ)
    t = np.round(np.arange(n) / DRIVING_RATE_HZ, TIME_DECIMALS)
    s_grid = DEFAULT_SPEED_MPS * t
    noise_sd = dev_target_m * math.sqrt(math.pi / 2.0)
    lateral = np.round(path.offset(s_grid) + rng.normal(0.0, noise_sd, size=n), LATERAL_DECIMALS)
    lanes = np.zeros(n, dtype=int)
    lanes[:] = change_points[0][1] if change_points else 1
    for cp_s, _, to_lane in change_points:
        lanes[s_grid >= cp_s] = to_lane
    return np.column_stack((t, lateral, lanes))


def _synth_events(rng, task: TaskKind, targets: LevelTargets):
    frac = NBACK_TARGET_FRACTION if task is TaskKind.NBACK else VISUAL_SEARCH_TARGET_FRACTION
    n_targets = round(N_STIMULI * frac)
    is_target = np.zeros(N_STIMULI, dtype=bool)
    is_target[rng.permutation(N_STIMULI)[:n_targets]] = True
    events: list[TaskEvent] = []
    for i in range(N_STIMULI):
        onset = FIRST_ONSET_S + i * STIMULUS_WINDOW_S
        kind = EventKind.TARGET_PRESENT if is_target[i] else EventKind.TARGET_ABSENT
        events.append(TaskEvent(onset, kind, payload=f"s{i}"))
        respond = rng.random() < (targets.hit_prob if is_target[i] else targets.false_positive_prob)
        if respond:
            if task is TaskKind.NBACK:
                rt = rng.uniform(0.4, 1.8)
            else:
                rt = float(np.clip(rng.normal(targets.rt_mean_s, RT_SD_S), 0.25, 2.9))
            events.append(TaskEvent(onset + rt, EventKind.RESPONSE, payload=f"s{i}"))
    events.sort(key=lambda e: e.t_s)
    return tuple(events)


def _generate_participant(config: GeneratorConfig, index: int) -> list[SessionSegment]:
    rng = _rng_for(config, index)
    pid = f"p{index:03d}"

    # anticorrelated HR / HRV baselines
    rho = config.hr_rmssd_baseline_corr
    a, b = rng.normal(size=2)
    hr_base = config.hr_baseline_sd * a
    rmssd_base = config.rmssd_baseline_sd * (rho * a + math.sqrt(1.0 - rho**2) * b)
    drive_base = config.drive_baseline_sd * rng.normal()
    pupil_base = PUPIL_BASE_MM + rng.normal(0.0, 0.35)

    segments = []
    for task in TaskKind:
        for level in LoadLevel:
            targets = config.targets[(task, level)]
            duration = rng.uniform(config.duration_min_s, config.duration_max_s)
            hr = targets.hr_mean_bpm + hr_base
            rmssd_t = max(8.0, targets.rmssd_ms + rmssd_base)
            dev_t = max(0.03, targets.drive_dev_m + drive_base + rng.normal(0.0, config.drive_session_sd))
            segments.append(
                SessionSegment(
                    participant_id=pid,
                    task=task,
                    level=level,
                    rr_intervals=_synth_rr(rng, duration, hr, rmssd_t),
                    pupil_left=_synth_pupil(rng, duration, pupil_base),
                    pupil_right=_synth_pupil(rng, duration, pupil_base),
                    driving=_synth_driving(rng, duration, dev_t),
                    events=_synth_events(rng, task, targets),
                    duration_s=duration,
                )
            )
    return segments


def generate_dataset(config: GeneratorConfig = GeneratorConfig()) -> Dataset:
    """Synthesize n_participants x 6 segments; deterministic per seed."""
    if config.n_participants < 1:
        raise ValueError("n_participants must be >= 1")
    segments = []
    for index in range(config.n_participants):
        segments.extend(_generate_participant(config, index))
    return Dataset(segments=tuple(segments))


# ---------------------------------------------------------------------------
# Flat key-value config files: each GeneratorConfig field parses with its type

_SCALAR_TYPES = {name: kind for name, kind in get_type_hints(GeneratorConfig).items() if name != "targets"}
_TARGET_TYPES = get_type_hints(LevelTargets)
# [low, high] of each bounded scalar; a segment holds the whole protocol
_RANGES = {
    "n_participants": (1, math.inf),
    "hr_baseline_sd": (0.0, math.inf),
    "rmssd_baseline_sd": (0.0, math.inf),
    "drive_baseline_sd": (0.0, math.inf),
    "drive_session_sd": (0.0, math.inf),
    "hr_rmssd_baseline_corr": (-1.0, 1.0),
    "duration_min_s": (PROTOCOL_SPAN_S, math.inf),
    "duration_max_s": (-math.inf, SEGMENT_MAX_DURATION_S),
}


def config_text(config: GeneratorConfig) -> str:
    """The generator_config.txt text of `config`, which `load_config` reads back."""
    lines = [f"{name}={getattr(config, name)!r}" for name in _SCALAR_TYPES]
    for (task, level), t in sorted(config.targets.items(), key=lambda kv: (kv[0][0].value, int(kv[0][1]))):
        prefix = f"{task.value}.{level.name.lower()}"
        for fname in _TARGET_TYPES:
            lines.append(f"{prefix}.{fname}={getattr(t, fname)!r}")
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> GeneratorConfig:
    base = GeneratorConfig()
    scalars: dict[str, int | float] = {}
    target_fields: dict[tuple[TaskKind, LoadLevel], dict[str, float]] = {}
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        parts = key.split(".")
        if key in _SCALAR_TYPES:
            kind, fields = _SCALAR_TYPES[key], scalars
        elif len(parts) == 3 and parts[0] in TASKS and parts[1] in LEVELS and parts[2] in _TARGET_TYPES:
            kind = _TARGET_TYPES[parts[2]]
            fields = target_fields.setdefault((TASKS[parts[0]], LEVELS[parts[1]]), {})
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            fields[parts[-1]] = kind(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: key {key!r}: not {kind.__name__}: {value!r}") from None
        if not math.isfinite(fields[parts[-1]]):
            raise ValueError(f"{path}:{lineno}: key {key!r}: not finite: {value!r}")
        key_lines[key] = lineno
    targets = dict(base.targets)
    for cond, overrides in target_fields.items():
        targets[cond] = replace(targets[cond], **overrides)
    config = replace(base, targets=targets, **scalars)
    if config.duration_max_s < config.duration_min_s:
        # the later of the two lines is the one that broke the pair
        key = max(("duration_min_s", "duration_max_s"), key=lambda k: key_lines.get(k, 0))
        raise ValueError(f"{path}:{key_lines[key]}: key {key!r}: duration_max_s {config.duration_max_s!r} "
                         f"is below duration_min_s {config.duration_min_s!r}")
    for key, (low, high) in _RANGES.items():
        value = getattr(config, key)
        if not low <= value <= high:
            # every default lies in range, so an out-of-range value was read from a line
            bound = f"below {low!r}" if value < low else f"above {high!r}"
            raise ValueError(f"{path}:{key_lines[key]}: key {key!r}: {value!r} is {bound}")
    return config
