#!/usr/bin/env python3
"""torustab benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload tester-large --seed 0 --seconds 15 --trace 0

A single caller drives torustab's public functions in a closed loop: each op
starts after the previous one returned.  The workload's op list (one cycle)
is repeated until `--seconds` have passed and at least eleven ops ran; only
whole cycles run, so every op is weighted equally.

`--trace 0` prints the end-to-end metrics, measured with no wrappers
installed.  `--trace 1` runs one untraced cycle, then installs the span
wrappers of tracing.py and prints the per-layer metrics, plus the tracing
overhead; its spans are written to .perfbench_out/.  The last line of
stdout is the result object; the line before it records the run's
environment and the facts behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=measure.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help=f"store this run's output digest (needs seed {measure.DEFAULT_SEED}, trace 0)")
    args = parser.parse_args(argv)
    if args.record_digest and (args.seed != measure.DEFAULT_SEED or args.trace):
        parser.error(f"--record-digest needs --seed {measure.DEFAULT_SEED} --trace 0")

    src = ROOT / "src"
    if not (src / "torustab" / "__init__.py").is_file():
        print(f"perfbench: torustab sources not found under {src}", file=sys.stderr)
        return 2
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": measure.environment(ROOT)}
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import click  # noqa: F401
    import torustab
    import torustab.cli  # noqa: F401
    info["import_s"] = time.perf_counter() - t0
    if Path(torustab.__file__).resolve().parent != src / "torustab":
        print(f"perfbench: torustab imported from {torustab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {sorted(harness.workloads.WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    try:
        run = harness.run_traced if args.trace else harness.run_plain
        result = run(args, scratch, OUT_DIR, info)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
