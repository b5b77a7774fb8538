"""In-memory span tracing of loadsense's public functions, from outside.

A `Tracer` replaces each function in `WRAPS` with a wrapper that records a
span (id, parent id, name, start, end) and, for a few functions, counts
taken from the call's arguments or result.  Spans stay in memory until the
run ends; `layer_metrics` then turns them into the per-layer figures.

Functions are patched by identity in every loadsense module namespace, so
names imported with ``from .learn import grid_search`` are traced too.  A
target that no longer exists (renamed or removed) is recorded in
`missing`, and every metric that depends on it reads "not measured"
(value None) instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import resource
import sys
import threading
import time


def _segment_samples(segments) -> int:
    return sum(
        len(s.rr_intervals) + len(s.pupil_left) + len(s.pupil_right) + len(s.driving) + len(s.events)
        for s in segments
    )


def _count_load(counts, args, kwargs, result):
    counts["core.segments_loaded"] += len(result.segments)
    counts["core.samples_parsed"] += _segment_samples(result.segments)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts["core.load_peak_rss_mb"] = max(counts.get("core.load_peak_rss_mb", 0.0), rss_mb)


def _count_write(counts, args, kwargs, result):
    dataset = args[0] if args else kwargs["dataset"]
    counts["core.samples_written"] += _segment_samples(dataset.segments)


def _count_stumps(counts, args, kwargs, result):
    counts["learn.adaboost_stumps"] += sum(len(m) for m in result.params["machines"])


# (span name, module, attribute path, counter).  The span name is the
# metric namespace plus the traced function's name.
WRAPS = (
    ("core.load_dataset", "loadsense.core", "load_dataset", _count_load),
    ("core.validate_segment", "loadsense.core", "validate_segment", None),
    ("core.validate_dataset", "loadsense.core", "validate_dataset", None),
    ("core.write_dataset", "loadsense.core", "write_dataset", _count_write),
    ("synth.generate_dataset", "loadsense.synth", "generate_dataset", None),
    ("cardiac.compute_cardiac_features", "loadsense.cardiac", "compute_cardiac_features", None),
    ("pupil.compute_lhipa", "loadsense.pupil", "compute_lhipa", None),
    ("driving.deviation_series", "loadsense.driving", "deviation_series", None),
    ("driving.deviation_stats", "loadsense.driving", "deviation_stats", None),
    ("evaluate.featurize_dataset", "loadsense.evaluate", "featurize_dataset", None),
    ("evaluate.featurize_segment", "loadsense.evaluate", "featurize_segment", None),
    ("evaluate.run_nested_cv", "loadsense.evaluate", "run_nested_cv", None),
    ("evaluate.render_report", "loadsense.evaluate", "render_report", None),
    ("learn.grid_search", "loadsense.learn", "grid_search", None),
    ("learn.fit_lda", "loadsense.learn", "fit_lda", None),
    ("learn.fit_knn", "loadsense.learn", "fit_knn", None),
    ("learn.fit_adaboost", "loadsense.learn", "fit_adaboost", _count_stumps),
    ("learn.predict", "loadsense.learn", "TrainedModel.predict", None),
    ("learn.greedy_ensemble", "loadsense.learn", "greedy_ensemble", None),
    ("stats.descriptive_table", "loadsense.stats", "descriptive_table", None),
    ("stats.reliability_screen", "loadsense.stats", "reliability_screen", None),
    ("stats.correlation_matrices", "loadsense.stats", "correlation_matrices", None),
    ("stats.paired_t", "loadsense.stats", "paired_t", None),
    ("cli.cmd_synth", "loadsense.cli", "cmd_synth", None),
    ("cli.cmd_validate", "loadsense.cli", "cmd_validate", None),
    ("cli.cmd_features", "loadsense.cli", "cmd_features", None),
    ("cli.cmd_stats", "loadsense.cli", "cmd_stats", None),
)


class Tracer:
    """Records spans and counts while installed; `uninstall` restores the
    original functions."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if counter is not None:
                try:
                    counter(tracer.counts, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    tracer.missing.append(f"{name} (count)")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        for counter_name in ("core.segments_loaded", "core.samples_parsed", "core.samples_written",
                             "learn.adaboost_stumps"):
            self.counts.setdefault(counter_name, 0)
        importlib.import_module("loadsense.cli")  # imports every loadsense module
        modules = [m for n, m in sys.modules.items() if n == "loadsense" or n.startswith("loadsense.")]
        for name, module_name, attr_path, counter in WRAPS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            if outer:  # a method: patch the class attribute
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self) -> dict:
        """Raw spans and counts, JSON-serialisable."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "missing": sorted(set(self.missing)),
        }


def span_totals(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: inclusive time (outermost spans of that name only, so
    recursion is not counted twice), self time (duration minus direct
    children on the same thread), and number of spans."""
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for span_id, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span_id, parent, name, start, end in spans:
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration - child_time.get(span_id, 0.0)
        ancestor = parent
        nested = False
        while ancestor is not None:
            if by_id[ancestor][2] == name:
                nested = True
                break
            ancestor = by_id[ancestor][1]
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return inclusive, self_time, calls


# Per-layer metric -> (unit, how it is computed from the span totals).
# "incl"/"self"/"calls" sum the given spans; "count" reads a counter.
LAYER_METRICS = {
    "core.load_s": ("s", "incl", ("core.load_dataset",)),
    "core.validate_s": ("s", "incl", ("core.validate_segment", "core.validate_dataset")),
    "core.parse_s": ("s", "self", ("core.load_dataset",)),
    "core.load_calls": ("count", "calls", ("core.load_dataset",)),
    "core.segments_loaded": ("count", "count", ("core.load_dataset",)),
    "core.samples_parsed": ("count", "count", ("core.load_dataset",)),
    "core.load_peak_rss_mb": ("MB", "count", ("core.load_dataset",)),
    "core.write_s": ("s", "incl", ("core.write_dataset",)),
    "core.samples_written": ("count", "count", ("core.write_dataset",)),
    "synth.generate_s": ("s", "incl", ("synth.generate_dataset",)),
    "cardiac.features_s": ("s", "incl", ("cardiac.compute_cardiac_features",)),
    "pupil.lhipa_s": ("s", "incl", ("pupil.compute_lhipa",)),
    "driving.deviation_s": ("s", "incl", ("driving.deviation_series", "driving.deviation_stats")),
    "evaluate.featurize_s": ("s", "self", ("evaluate.featurize_dataset", "evaluate.featurize_segment")),
    "evaluate.nested_cv_s": ("s", "self", ("evaluate.run_nested_cv",)),
    "evaluate.render_s": ("s", "incl", ("evaluate.render_report",)),
    "learn.grid_search_s": ("s", "incl", ("learn.grid_search",)),
    "learn.fit_lda_s": ("s", "incl", ("learn.fit_lda",)),
    "learn.fit_knn_s": ("s", "incl", ("learn.fit_knn",)),
    "learn.fit_adaboost_s": ("s", "incl", ("learn.fit_adaboost",)),
    "learn.predict_s": ("s", "incl", ("learn.predict",)),
    "learn.ensemble_s": ("s", "incl", ("learn.greedy_ensemble",)),
    "learn.fit_calls": ("count", "calls", ("learn.fit_lda", "learn.fit_knn", "learn.fit_adaboost")),
    "learn.adaboost_stumps": ("count", "count", ("learn.fit_adaboost",)),
    "stats.tables_s": ("s", "incl", ("stats.descriptive_table", "stats.reliability_screen",
                                     "stats.correlation_matrices", "stats.paired_t")),
    "cli.synth_s": ("s", "incl", ("cli.cmd_synth",)),
    "cli.validate_s": ("s", "incl", ("cli.cmd_validate",)),
    "cli.features_s": ("s", "incl", ("cli.cmd_features",)),
    "cli.stats_s": ("s", "incl", ("cli.cmd_stats",)),
}


def layer_metrics(dumps) -> tuple[dict[str, float | None], list[str]]:
    """Combine the dumps of several traced processes into the per-layer
    metrics; returns (metrics, names of spans that were not measured)."""
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    missing: set[str] = set()
    for dump in dumps:
        spans = [tuple(s) for s in dump["spans"]]
        for total, part in zip((inclusive, self_time, calls), span_totals(spans)):
            for name, value in part.items():
                total[name] = total.get(name, 0) + value
        for name, value in dump["counts"].items():
            if name == "core.load_peak_rss_mb":
                counts[name] = max(counts.get(name, 0.0), value)
            else:
                counts[name] = counts.get(name, 0) + value
        missing.update(dump["missing"])
    metrics: dict[str, float | None] = {}
    for metric, (_, how, span_names) in LAYER_METRICS.items():
        lost = [n for n in span_names if n in missing or (how == "count" and f"{n} (count)" in missing)]
        if lost:
            metrics[metric] = None
        elif how == "count":
            metrics[metric] = counts.get(metric, 0)
        else:
            source = {"incl": inclusive, "self": self_time, "calls": calls}[how]
            metrics[metric] = sum(source.get(name, 0) for name in span_names)
    return metrics, sorted(missing)
