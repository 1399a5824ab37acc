"""Tests for the bench-trajectory tooling (merge + regression gate).

``benchmarks/merge_trajectory.py`` and ``benchmarks/check_trajectory.py``
are standalone scripts (CI runs them by path); these tests import them
the same way the scripts import each other — with ``benchmarks/`` on
``sys.path`` — and pin the v2 history contract: entry extraction from
every payload kind, dedup-keep-latest by ``(commit, experiment,
transport)``, deterministic sort, and the trailing-median gate with its
min-points warning behavior.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import check_trajectory  # noqa: E402
import merge_trajectory  # noqa: E402


def _shard_payload(transport="thread", measured=1.0, run_id=None):
    payload = {
        "name": f"shard-validation-{transport}",
        "transport": transport,
        "smoke": True,
        "rows": [
            {"transport": transport, "shards": 1, "measured_ms": measured * 2},
            {"transport": transport, "shards": 4, "measured_ms": measured},
        ],
    }
    if run_id is not None:
        payload["run_id"] = run_id
    return payload


def _entry(commit, experiment="shard-validation", transport="thread",
           value=1.0, generated_at="2026-01-01T00:00:00+00:00"):
    return {
        "experiment": experiment,
        "transport": transport,
        "metric": "measured_ms",
        "value": value,
        "context": {},
        "commit": commit,
        "generated_at": generated_at,
        "host": {"cpu_count": 1},
    }


class TestHistoryEntries:
    def test_raw_payload_uses_run_id_stamp(self):
        run_id = {
            "id": "abc",
            "started_at": "2026-02-03T04:05:06+00:00",
            "commit": "deadbeef",
        }
        (entry,) = merge_trajectory.history_entries(
            _shard_payload(run_id=run_id)
        )
        assert entry["experiment"] == "shard-validation"
        assert entry["transport"] == "thread"
        # Headline = the largest shard count's measured time.
        assert entry["value"] == 1.0
        assert entry["context"] == {"shards": 4}
        assert entry["commit"] == "deadbeef"
        assert entry["generated_at"] == "2026-02-03T04:05:06+00:00"

    def test_all_wrapper_unfolds_per_transport(self):
        wrapper = {
            "name": "shard-validation-all",
            "runs": [
                _shard_payload("thread"),
                _shard_payload("process", measured=3.0),
            ],
            "run_id": {"id": "x", "started_at": "t", "commit": "c1"},
        }
        entries = merge_trajectory.history_entries(wrapper)
        assert [(e["transport"], e["value"]) for e in entries] == [
            ("thread", 1.0),
            ("process", 3.0),
        ]

    def test_v2_history_passes_through(self):
        history = {
            "schema": merge_trajectory.SCHEMA,
            "entries": [_entry("c1"), _entry("c2")],
        }
        assert merge_trajectory.history_entries(history) == history["entries"]

    def test_v1_snapshot_unfolds_with_provenance(self):
        v1 = {
            "schema": merge_trajectory.SCHEMA_V1,
            "commit": "oldsha",
            "generated_at": "2026-01-01T00:00:00+00:00",
            "host": {"cpu_count": 2},
            "benchmarks": {"shard-validation": _shard_payload()},
        }
        (entry,) = merge_trajectory.history_entries(v1)
        assert entry["commit"] == "oldsha"
        assert entry["host"] == {"cpu_count": 2}


class TestMergeEntries:
    def test_dedupe_keeps_latest_generated_at(self):
        stale = _entry("c1", value=9.0, generated_at="2026-01-01T00:00:00+00:00")
        fresh = _entry("c1", value=1.0, generated_at="2026-01-02T00:00:00+00:00")
        merged = merge_trajectory.merge_entries([[stale], [fresh]])
        assert merged == [fresh]
        # Input order must not matter.
        assert merge_trajectory.merge_entries([[fresh], [stale]]) == [fresh]

    def test_sort_is_deterministic(self):
        entries = [
            _entry("c2", transport="thread", generated_at="2026-01-02T00:00:00+00:00"),
            _entry("c1", experiment="failure-injection", transport="process"),
            _entry("c1", transport="thread"),
        ]
        merged = merge_trajectory.merge_entries([entries])
        keys = [
            (e["experiment"], e["transport"], e["generated_at"])
            for e in merged
        ]
        assert keys == sorted(keys)
        assert merged == merge_trajectory.merge_entries([entries[::-1]])

    def test_cli_round_trip(self, tmp_path):
        """The script end-to-end: merging the committed history with a
        fresh payload re-emits valid v2 that merges idempotently."""
        payload_path = tmp_path / "shard.json"
        payload_path.write_text(json.dumps(_shard_payload(
            run_id={"id": "i", "started_at": "2026-03-01T00:00:00+00:00",
                    "commit": "newsha"},
        )))
        out = tmp_path / "merged.json"
        proc = subprocess.run(
            [sys.executable, str(BENCHMARKS / "merge_trajectory.py"),
             "--out", str(out), str(payload_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        merged = json.loads(out.read_text())
        assert merged["schema"] == merge_trajectory.SCHEMA
        # Idempotent: merging the output with itself changes nothing.
        out2 = tmp_path / "merged2.json"
        subprocess.run(
            [sys.executable, str(BENCHMARKS / "merge_trajectory.py"),
             "--out", str(out2), str(out), str(out)],
            capture_output=True, text=True, check=True,
        )
        assert json.loads(out2.read_text()) == merged


class TestCheckSeries:
    def _history(self, values, commit_prefix="h"):
        return [
            _entry(
                f"{commit_prefix}{i}",
                value=v,
                generated_at=f"2026-01-{i + 1:02d}T00:00:00+00:00",
            )
            for i, v in enumerate(values)
        ]

    def test_regression_fails(self):
        failures, warnings, passes = check_trajectory.check_series(
            self._history([1.0, 1.0, 1.0]),
            [_entry("cur", value=1.5)],
        )
        assert len(failures) == 1 and not passes
        assert "1.50x" in failures[0]

    def test_within_tolerance_passes(self):
        failures, warnings, passes = check_trajectory.check_series(
            self._history([1.0, 1.0, 1.0]),
            [_entry("cur", value=1.2)],
        )
        assert not failures and len(passes) == 1

    def test_median_is_robust_to_one_outlier(self):
        failures, _, passes = check_trajectory.check_series(
            self._history([1.0, 1.0, 100.0]),
            [_entry("cur", value=1.2)],
        )
        assert not failures and passes

    def test_too_few_points_warns_not_fails(self):
        failures, warnings, passes = check_trajectory.check_series(
            self._history([1.0, 1.0]),
            [_entry("cur", value=50.0)],
        )
        assert not failures and not passes
        assert len(warnings) == 1 and "not gated" in warnings[0]

    def test_same_commit_points_excluded_from_baseline(self):
        """Re-running CI on one commit never compares against itself."""
        history = self._history([1.0, 1.0]) + [_entry("cur", value=9.0)]
        failures, warnings, _ = check_trajectory.check_series(
            history, [_entry("cur", value=9.0)]
        )
        # The same-commit point is dropped: 2 usable points -> warn.
        assert not failures and len(warnings) == 1

    def test_window_limits_baseline_to_trailing_points(self):
        history = self._history([10.0] * 4 + [1.0] * 5)
        failures, _, passes = check_trajectory.check_series(
            history, [_entry("cur", value=1.1)], window=5
        )
        assert not failures and passes

    def test_missing_value_warns(self):
        failures, warnings, _ = check_trajectory.check_series(
            self._history([1.0] * 3),
            [_entry("cur", value=None)],
        )
        assert not failures and len(warnings) == 1

    def test_cli_exit_codes(self, tmp_path):
        history_path = tmp_path / "history.json"
        history_path.write_text(json.dumps({
            "schema": merge_trajectory.SCHEMA,
            "entries": self._history([1.0, 1.0, 1.0]),
        }))
        current = tmp_path / "current.json"
        current.write_text(json.dumps({
            "schema": merge_trajectory.SCHEMA,
            "entries": [_entry("cur", value=5.0)],
        }))
        proc = subprocess.run(
            [sys.executable, str(BENCHMARKS / "check_trajectory.py"),
             "--history", str(history_path), str(current)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stderr
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps({
            "schema": merge_trajectory.SCHEMA,
            "entries": [_entry("cur", value=1.05)],
        }))
        proc = subprocess.run(
            [sys.executable, str(BENCHMARKS / "check_trajectory.py"),
             "--history", str(history_path), str(ok)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok:" in proc.stdout
