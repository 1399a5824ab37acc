"""Benchmark of the repo: fit-to-target and served-latency workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fit-small --seed 1 --seconds 30 --trace 0

``--workload`` is ``fit-small`` or ``serve-http`` (see
:mod:`perfbench.workloads` for why each exists and which layer it
loads), or ``fit-sharded`` or ``serve-inproc``, which run the same way
but are not part of the benchmark.  The program is imported from ``src/`` of
the same checkout; without it the benchmark exits with code 2 and
prints no result.

Output: human-readable report lines — the environment stamp, every
workload figure by name with its unit and sample count, and in a traced
run the per-layer attribution — then, as the last line, one JSON
object::

    {"correct": true, "attempted": 8, "failed": 0,
     "metrics": {"setup_s": {"value": 1.41, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
:data:`perfbench.metrics.END_TO_END`, measured with tracing off; with
``--trace 1`` they are the per-layer metrics of
:data:`perfbench.metrics.PER_LAYER`, from a traced run that also repeats
the untraced measurement to report the tracing overhead.  ``correct`` is
true when every operation passed its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _use_checkout() -> None:
    """Import the program from this checkout only, and keep temporary
    files (multiprocessing's among them) inside it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'repro'}; nothing to measure")
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        _use_checkout()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench.env import stamp
    from perfbench.metrics import END_TO_END, PER_LAYER, UNITS
    from perfbench.workloads import EXTRA_WORKLOADS, WORKLOADS

    runnable = WORKLOADS | EXTRA_WORKLOADS
    if args.workload not in runnable:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(runnable)}", file=sys.stderr)
        return 2
    print("env:", json.dumps(stamp(ROOT), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    outcome = runnable[args.workload](args.seed, args.seconds, bool(args.trace))
    for line in outcome.lines:
        print(line)
    tally = outcome.tally
    print(f"failed_frac: {tally.failed_frac:.4g} ({tally.failed}/{tally.attempted})"
          + (f" {tally.reasons}" if tally.reasons else ""))

    names = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    values = outcome.layers if args.trace else outcome.e2e
    missing = [name for name in names if values.get(name) is None]
    if missing:
        print(f"perfbench: no measurement for {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in names}
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
