"""Traced-run report across workloads.

Usage (from the root of a checkout)::

    python3 perfbench/report.py --seed 1 [--seconds 30] [--workload NAME ...]

Runs ``perfbench/run.py --trace 1`` once per workload, each in its own
process — by default every workload of ``BENCHMARK.json`` plus the
runnable ``fit-sharded`` and ``serve-inproc`` — and prints for each fit
workload the per-layer times next to ``fit_s`` with the unattributed
remainder, and for every workload the tracing overhead
``observe.trace_overhead``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT = ("fit-small", "fit-sharded", "serve-inproc", "serve-http")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    status = 0
    for name in args.workload or DEFAULT:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"== {name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        overhead = result["metrics"]["observe.trace_overhead"]["value"]
        print(f"== {name}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}, "
              f"trace overhead {100 * overhead:+.1f}%")
        # The attribution table runs from "traced fit_s" to the next
        # unindented line.
        table = False
        for line in lines[:-1]:
            if line.startswith("traced fit_s"):
                table = True
            elif table and not line.startswith("  "):
                table = False
            if table:
                print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
