"""Merge benchmark payloads into one deduplicated trajectory history.

The CI trajectory job runs the smoke benchmarks that emit machine-
readable results (``bench_shard.py --transport all --smoke``, the
fused hot-path smoke of ``bench_fused.py``, the serving-load and
deadline-load smokes of ``bench_serve.py`` and the failure-injection
sweep) and folds
their payloads — together with the
committed history ``BENCH_trajectory.json`` — into one *history* of
headline data points::

    python benchmarks/merge_trajectory.py --out bench-trajectory.json \
        BENCH_trajectory.json /tmp/shard-smoke-all.json \
        /tmp/failure-injection-all.json

Schema (``repro-bench-trajectory/v2``): a flat ``entries`` list, one
entry per ``(commit, experiment, transport)`` carrying that
configuration's headline metric (per-iteration ms for shard-validation,
recovery ms for failure-injection, ...).  Entries are deduplicated by that key — the latest
``generated_at`` wins, so re-running CI on the same commit replaces
rather than appends — and sorted deterministically, so the committed
file diffs cleanly commit over commit.  ``check_trajectory.py`` gates
CI on this history: current smoke numbers vs the trailing median per
``(experiment, transport)``.

Inputs may be raw benchmark payloads (stamped here with commit SHA, a
UTC timestamp and host info — or with the payload's own ``run_id``
stamp when the benchmark recorded one), v1 single-snapshot trajectories
(unfolded into entries) or v2 histories (passed through).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from datetime import datetime, timezone
from typing import Any, Iterator

SCHEMA_V1 = "repro-bench-trajectory/v1"
SCHEMA = "repro-bench-trajectory/v2"


def resolve_commit() -> str | None:
    """Commit SHA: CI's $GITHUB_SHA if set, else the local git HEAD."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
                cwd=pathlib.Path(__file__).parent,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.CalledProcessError):
        return None


def _benchmark_entries(payload: dict) -> Iterator[dict[str, Any]]:
    """Headline data points of one benchmark payload (no provenance
    stamp yet): ``{experiment, transport, metric, value, context}``."""
    name = str(payload.get("name") or payload.get("benchmark") or "")
    if "runs" in payload:  # an --transport all wrapper
        for run in payload["runs"]:
            yield from _benchmark_entries(run)
    elif name.startswith("shard-validation"):
        rows = payload.get("rows") or []
        if rows:
            # The largest shard count is the configuration the engine
            # exists for; its per-iteration time is the headline.
            row = max(rows, key=lambda r: r.get("shards", 0))
            yield {
                "experiment": "shard-validation",
                "transport": row.get("transport")
                or payload.get("transport", "thread"),
                "metric": "measured_ms",
                "value": row.get("measured_ms"),
                "context": {"shards": row.get("shards")},
            }
    elif name == "fused-hot-path":
        # One series per backend: the fused gaussian training matvec is
        # the headline (the chain the trainer's hot loop runs).
        for row in payload.get("rows") or []:
            if row.get("case") != "matvec/gaussian":
                continue
            yield {
                "experiment": "fused-hot-path",
                "transport": row.get("backend", "numpy"),
                "metric": "fused_ms",
                "value": row.get("fused_ms"),
                "context": {"speedup": row.get("speedup")},
            }
    elif name == "serve-load":
        # The highest-concurrency server row is the configuration the
        # serving engine exists for; its p95 request latency is the
        # headline (throughput and speedup ride along as context).
        rows = [
            r for r in payload.get("rows") or []
            if r.get("mode") == "server"
        ]
        if rows:
            row = max(rows, key=lambda r: r.get("concurrency", 0))
            yield {
                "experiment": "serve-load",
                "transport": payload.get("transport", "thread"),
                "metric": "p95_ms",
                "value": row.get("p95_ms"),
                "context": {
                    "concurrency": row.get("concurrency"),
                    "throughput_rps": row.get("throughput_rps"),
                    "speedup": row.get("speedup"),
                },
            }
    elif name == "serve-deadline":
        # Admitted-traffic p95 at the offered concurrency while doomed
        # requests shed around it: the QoS regression headline (shed
        # accounting and speedup ride along as context).
        rows = [
            r for r in payload.get("rows") or []
            if r.get("mode") == "server"
        ]
        if rows:
            row = max(rows, key=lambda r: r.get("concurrency", 0))
            yield {
                "experiment": "serve-deadline",
                "transport": payload.get("transport", "thread"),
                "metric": "p95_ms",
                "value": row.get("p95_ms"),
                "context": {
                    "concurrency": row.get("concurrency"),
                    "throughput_rps": row.get("throughput_rps"),
                    "speedup": row.get("speedup"),
                    "shed": row.get("shed"),
                },
            }
    elif name.startswith("failure-injection"):
        for row in payload.get("rows") or []:
            yield {
                "experiment": "failure-injection",
                "transport": row.get("transport")
                or payload.get("transport", "process"),
                "metric": "measured_recovery_ms",
                "value": row.get("measured_recovery_ms"),
                "context": {"replayed_steps": row.get("replayed_steps")},
            }


def _stamp(
    entry: dict[str, Any],
    *,
    commit: str | None,
    generated_at: str | None,
    host: dict | None,
) -> dict[str, Any]:
    out = dict(entry)
    out["commit"] = commit
    out["generated_at"] = generated_at
    out["host"] = host or {"cpu_count": os.cpu_count() or 1}
    return out


def history_entries(payload: dict) -> list[dict[str, Any]]:
    """Flatten any supported payload into provenance-stamped entries.

    Shared with ``check_trajectory.py`` so the gate and the merge read
    inputs identically.
    """
    schema = payload.get("schema")
    if schema == SCHEMA:
        return [dict(e) for e in payload.get("entries", [])]
    if schema == SCHEMA_V1:
        return [
            _stamp(
                e,
                commit=payload.get("commit"),
                generated_at=payload.get("generated_at"),
                host=payload.get("host"),
            )
            for bench in payload.get("benchmarks", {}).values()
            for e in _benchmark_entries(bench)
        ]
    # A raw benchmark payload: prefer its own run_id stamp (structured
    # uuid + timestamp + commit, see repro.observe.new_run_id).
    run_id = payload.get("run_id") or {}
    commit = run_id.get("commit") or resolve_commit()
    generated_at = run_id.get("started_at") or datetime.now(
        timezone.utc
    ).isoformat(timespec="seconds")
    return [
        _stamp(e, commit=commit, generated_at=generated_at, host=None)
        for e in _benchmark_entries(payload)
    ]


def entry_key(entry: dict[str, Any]) -> tuple[str, str, str]:
    return (
        str(entry.get("commit") or ""),
        str(entry.get("experiment") or ""),
        str(entry.get("transport") or ""),
    )


def merge_entries(
    entry_lists: list[list[dict[str, Any]]],
) -> list[dict[str, Any]]:
    """Dedupe by ``(commit, experiment, transport)`` — latest
    ``generated_at`` wins — and sort deterministically."""
    merged: dict[tuple[str, str, str], dict[str, Any]] = {}
    for entries in entry_lists:
        for entry in entries:
            key = entry_key(entry)
            kept = merged.get(key)
            if kept is None or str(entry.get("generated_at") or "") >= str(
                kept.get("generated_at") or ""
            ):
                merged[key] = entry
    return sorted(
        merged.values(),
        key=lambda e: (
            str(e.get("experiment") or ""),
            str(e.get("transport") or ""),
            str(e.get("generated_at") or ""),
            str(e.get("commit") or ""),
        ),
    )


def merge(paths: list[pathlib.Path]) -> dict:
    entry_lists = [
        history_entries(json.loads(path.read_text())) for path in paths
    ]
    return {"schema": SCHEMA, "entries": merge_entries(entry_lists)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "inputs", nargs="+", type=pathlib.Path,
        help="benchmark payloads and/or existing trajectory histories",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, required=True,
        help="merged trajectory history output path",
    )
    args = parser.parse_args(argv)

    trajectory = merge(args.inputs)
    args.out.write_text(json.dumps(trajectory, indent=2) + "\n")
    entries = trajectory["entries"]
    keys = sorted({(e["experiment"], e["transport"]) for e in entries})
    print(
        f"{args.out}: {len(entries)} entries over "
        f"{len(keys)} (experiment, transport) series",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
