"""Gate CI on the benchmark trajectory: current smoke vs trailing median.

Compares the headline metrics of the current smoke payloads against the
committed history (``BENCH_trajectory.json``, schema
``repro-bench-trajectory/v2`` — see ``merge_trajectory.py``, whose
``history_entries`` extractor this script shares so gate and merge read
inputs identically)::

    python benchmarks/check_trajectory.py --history BENCH_trajectory.json \
        /tmp/shard-smoke-all.json /tmp/failure-injection-all.json

For every ``(experiment, transport)`` series in the current payloads,
the trailing median of the last ``--window`` history points (excluding
points from the current commit, so re-runs never compare against
themselves) is the baseline; a current value more than
``--max-regression`` (default 25%) above it fails the gate (all tracked
metrics are milliseconds — lower is better).  A series with fewer than
``--min-points`` usable history points only *warns*: a young trajectory
must accumulate points before it can gate, and a brand-new experiment
must not fail CI on arrival.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

from merge_trajectory import history_entries


def check_series(
    history: list[dict],
    current: list[dict],
    *,
    window: int = 5,
    min_points: int = 3,
    max_regression: float = 0.25,
) -> tuple[list[str], list[str], list[str]]:
    """Returns ``(failures, warnings, passes)`` message lists."""
    failures: list[str] = []
    warnings: list[str] = []
    passes: list[str] = []
    by_key: dict[tuple[str, str], list[dict]] = {}
    for entry in history:
        key = (str(entry.get("experiment")), str(entry.get("transport")))
        by_key.setdefault(key, []).append(entry)

    for cur in current:
        key = (str(cur.get("experiment")), str(cur.get("transport")))
        label = f"{key[0]}/{key[1]} ({cur.get('metric')})"
        value = cur.get("value")
        if value is None:
            warnings.append(f"{label}: current run has no value; skipped")
            continue
        prior = [
            e
            for e in by_key.get(key, [])
            if e.get("value") is not None
            and e.get("commit") != cur.get("commit")
        ]
        prior.sort(
            key=lambda e: (
                str(e.get("generated_at") or ""),
                str(e.get("commit") or ""),
            )
        )
        tail = prior[-window:]
        if len(tail) < min_points:
            warnings.append(
                f"{label}: only {len(tail)} history point(s) "
                f"(need {min_points}); not gated"
            )
            continue
        median = statistics.median(e["value"] for e in tail)
        if median <= 0:
            warnings.append(f"{label}: non-positive baseline; not gated")
            continue
        ratio = value / median
        message = (
            f"{label}: {value:.3f} vs trailing median {median:.3f} "
            f"over {len(tail)} points ({ratio:.2f}x)"
        )
        if ratio > 1.0 + max_regression:
            failures.append(message + f" exceeds {1 + max_regression:.2f}x")
        else:
            passes.append(message)
    return failures, warnings, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "inputs", nargs="+", type=pathlib.Path,
        help="current benchmark payloads to gate",
    )
    parser.add_argument(
        "--history", type=pathlib.Path, required=True,
        help="committed trajectory history (BENCH_trajectory.json)",
    )
    parser.add_argument("--window", type=int, default=5)
    parser.add_argument("--min-points", type=int, default=3)
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="fail when current/median exceeds 1 + this (default 0.25)",
    )
    args = parser.parse_args(argv)

    history = history_entries(json.loads(args.history.read_text()))
    current = [
        entry
        for path in args.inputs
        for entry in history_entries(json.loads(path.read_text()))
    ]
    failures, warnings, passes = check_series(
        history,
        current,
        window=args.window,
        min_points=args.min_points,
        max_regression=args.max_regression,
    )
    for message in passes:
        print(f"ok: {message}")
    for message in warnings:
        print(f"warning: {message}")
    for message in failures:
        print(f"REGRESSION: {message}", file=sys.stderr)
    if failures:
        return 1
    if not current:
        print("warning: no current entries found; nothing gated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
