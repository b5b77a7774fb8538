#!/usr/bin/env python3
"""loadsense benchmark.

    python3 perfbench/run.py --workload {ingest,crossval,pipeline,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload runs in this process; its
set-up runs in child processes.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics (wall_s, peak_rss_mb,
setup_s); with --trace 1 it holds the per-layer metrics of one traced
set-up and one traced round, and the raw spans go to
perfbench/results/trace-<workload>-seed<N>.json.  --workload all runs every
workload, each in its own process, and prints a table.  --check only
compares the metric names and units this file reports with BENCHMARK.json.

Exit codes: 0 a result was printed (its "correct" field says whether the
outputs passed their checks), 2 the program is missing, 3 BENCHMARK.json
and this file disagree, 1 anything else.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
WORKLOAD_NAMES = ("ingest", "crossval", "pipeline")


def per_layer_units() -> dict[str, str]:
    import tracing

    units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    return units


def check_spec() -> list[str]:
    """Differences between the metrics and workloads this benchmark reports
    and those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", per_layer_units())):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != ours:
            errors.append(f"{key}: BENCHMARK.json declares {declared}, run.py reports {ours}")
    declared_workloads = [w["name"] for w in spec["workloads"]]
    if sorted(declared_workloads) != sorted(WORKLOAD_NAMES):
        errors.append(f"workloads: BENCHMARK.json declares {declared_workloads}, run.py has {list(WORKLOAD_NAMES)}")
    return errors


def run_setup(workload: str, seed: int, dest: Path, trace_file: Path | None = None) -> float:
    """Run one set-up in a child process; returns its wall time."""
    cmd = [sys.executable, str(HERE / "prepare.py"), workload, str(seed), str(dest)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed ({proc.returncode}):\n{proc.stderr}")
    return elapsed


def timed_rounds(workload, seconds: float) -> tuple[list[float], int, int]:
    """Whole rounds within `seconds`: the first always runs, each further one
    only if a round of the median length so far still ends in time.  A run
    therefore measures for at most max(seconds, one round), and a series of
    runs takes a time known in advance."""
    walls: list[float] = []
    attempted = failed = 0
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin + statistics.median(walls) <= seconds:
        workload.reset()
        gc.collect()  # the previous round's garbage is not collected on this round's clock
        start = time.perf_counter()
        a, f = workload.round()
        walls.append(time.perf_counter() - start)
        attempted += a
        failed += f
    return walls, attempted, failed


def result(errors: list[str], attempted: int, failed: int, values: dict, units: dict[str, str]) -> dict:
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
    }


def measure(name: str, seed: int, seconds: float, work: Path) -> dict:
    import workloads

    setup_times = []
    for k in range(workloads.SETUPS[name]):
        setup_times.append(run_setup(name, seed, work / f"setup{k}"))
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
    workload = workloads.WORKLOADS[name](seed, work / f"setup{len(setup_times) - 1}")
    walls, attempted, failed = timed_rounds(workload, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{name}: {len(walls)} rounds {[round(w, 3) for w in walls]}, "
          f"set-ups {[round(t, 3) for t in setup_times]}", file=sys.stderr)
    values = {"wall_s": statistics.median(walls), "peak_rss_mb": peak_mb, "setup_s": statistics.median(setup_times)}
    return result(workload.check(), attempted, failed, values, END_TO_END)


def measure_traced(name: str, seed: int, seconds: float, work: Path) -> dict:
    import tracing
    import workloads

    setup_trace = work / "setup_trace.json"
    run_setup(name, seed, work / "setup0", setup_trace)
    workload = workloads.WORKLOADS[name](seed, work / "setup0")
    walls, attempted, failed = timed_rounds(workload, seconds)

    tracer = tracing.Tracer()
    workload.reset()
    gc.collect()
    tracer.install()
    try:
        start = time.perf_counter()
        a, f = workload.round()
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    attempted += a
    failed += f
    errors = workload.check()

    dumps = [json.loads(setup_trace.read_text(encoding="utf-8")), tracer.dump()]
    values, missing = tracing.layer_metrics(dumps)
    values["trace.overhead_s"] = traced_wall - statistics.median(walls)
    for m in missing:
        print(f"not measured: {m}", file=sys.stderr)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"trace-{name}-seed{seed}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "untraced_round_s": walls, "traced_round_s": traced_wall,
                    "metrics": values, "not_measured": missing, "setup": dumps[0], "round": dumps[1]}),
        encoding="utf-8",
    )
    return result(errors, attempted, failed, values, per_layer_units())


def run_all(args) -> int:
    """Every workload, each in its own process; prints one table."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}, no result")
            status = 1
            continue
        outcome = json.loads(lines[-1])
        print(f"{name}: correct={outcome['correct']} attempted={outcome['attempted']} failed={outcome['failed']}")
        for metric, m in outcome["metrics"].items():
            print(f"  {metric:24s} {m['value']!r:>24} {m['unit']}")
        if not outcome["correct"] or outcome["failed"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="only compare metric names and units with BENCHMARK.json")
    args = parser.parse_args()

    if not (SRC / "loadsense" / "__init__.py").is_file():
        print(f"error: no loadsense package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    spec_errors = check_spec()
    for e in spec_errors:
        print(f"error: {e}", file=sys.stderr)
    if spec_errors:
        return 3
    if args.check:
        print("metric names and units match BENCHMARK.json")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        run = measure_traced if args.trace else measure
        outcome = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
