"""Set-up child process: python3 perfbench/prepare.py WORKLOAD SEED DEST [TRACE_FILE]

Writes the workload's inputs under DEST.  With TRACE_FILE, the set-up runs
traced and the raw spans and counts are written there as JSON.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    workload, seed, dest = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    trace_file = Path(sys.argv[4]) if len(sys.argv) > 4 else None
    tracer = tracing.Tracer().install() if trace_file else None
    try:
        workloads.prepare(workload, seed, dest)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        trace_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
