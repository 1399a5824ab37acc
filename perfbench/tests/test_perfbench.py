"""Tests of the benchmark's own measurement rules (no program needed)."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.stats import (
    OpenLoop,
    Rung,
    Summary,
    Tally,
    backlog_grows,
    choose_max_rate,
    poisson_schedule,
    rung_ok,
    summarize,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------- percentile rule
@pytest.mark.parametrize(
    "n, expected",
    [
        (10_000, 99.9), (9_999, 99.0), (1000, 99.0), (999, 95.0),
        (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0),
        (39, 50.0), (20, 50.0), (19, None), (1, None),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summary_reports_tail_and_sample_count():
    values = np.arange(1, 1001, dtype=float)  # 1..1000
    s = summarize(values)
    assert s.n == 1000
    assert s.p50 == pytest.approx(500.5)
    assert s.p90 == pytest.approx(np.percentile(values, 90))
    assert s.tail_p == 99.0
    assert s.tail == pytest.approx(np.percentile(values, 99))
    assert (values > s.tail).sum() >= 10
    assert "n=1000" in s.describe("ms")


def test_summary_without_supported_tail():
    s = summarize([3.0, 1.0, 2.0])
    assert (s.n, s.p50, s.p90, s.tail_p, s.tail) == (3, 2.0, None, None, None)
    assert "too few samples" in s.describe("s")


def test_summary_rejects_empty_sample():
    with pytest.raises(ValueError):
        summarize([])


# ------------------------------------------------------ open-loop timing
class FakeClock:
    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


def test_open_loop_times_requests_from_their_due_time():
    clock = FakeClock()
    loop = OpenLoop([0.0, 0.010, 0.020], clock=clock, sleep=clock.sleep)

    def submit(i: int) -> None:
        if i == 0:
            clock.t += 0.030  # the first submit stalls the generator
        loop.complete(i)

    loop.run(submit)
    # Requests 1 and 2 were due during the stall: they are sent late and
    # their latency counts from when they were due, not when sent.
    np.testing.assert_allclose(loop.late_s, [0.0, 0.020, 0.010], atol=1e-12)
    np.testing.assert_allclose(loop.latencies_s(), [0.030, 0.020, 0.010], atol=1e-12)


def test_open_loop_sleeps_until_due():
    clock = FakeClock()
    loop = OpenLoop([0.0, 0.5], clock=clock, sleep=clock.sleep)
    sent = []
    loop.run(lambda i: sent.append(clock()))
    np.testing.assert_allclose(np.diff(sent), [0.5])
    assert (loop.late_s == 0).all()
    assert np.isnan(loop.latencies_s()).all()  # nothing completed


def test_poisson_schedule_offers_exactly_the_rung_rate():
    rng = np.random.default_rng(0)
    due = poisson_schedule(300.0, 1000, rng)
    assert due.shape == (1000,)
    assert (np.diff(due) >= 0).all()
    assert 0 <= due[0] and due[-1] <= 1000 / 300.0
    np.testing.assert_array_equal(due, poisson_schedule(300.0, 1000, np.random.default_rng(0)))


# ----------------------------------------------- max-rate rung and backlog
def test_backlog_detects_latency_that_climbs_across_the_rung():
    t = np.linspace(0.0, 2.0, 500)
    rng = np.random.default_rng(1)
    steady = 0.005 + 0.02 * rng.random(500)  # noisy but bounded
    assert not backlog_grows(t, steady, limit_s=0.25)
    growing = 0.005 + 0.1 * t  # +200 ms over the rung
    assert backlog_grows(t, growing, limit_s=0.25)
    assert not backlog_grows(t, growing, limit_s=0.5)


def _rung(rate: float, tail: float, backlog: bool = False) -> Rung:
    s = Summary(n=1000, p50=tail / 4, p90=tail / 2, tail_p=99.0, tail=tail)
    return Rung(rate, s, backlog, rate, rung_ok(s, backlog, limit=100.0))


def test_rung_fails_on_tail_on_backlog_and_without_a_tail():
    assert _rung(150, 20.0).ok
    assert not _rung(150, 120.0).ok
    assert not _rung(150, 20.0, backlog=True).ok
    assert not rung_ok(Summary(5, 1.0, None, None, None), False, 100.0)


def test_max_rate_is_highest_rung_before_first_failure():
    rungs = [_rung(150, 10), _rung(300, 40), _rung(600, 500)]
    assert choose_max_rate(rungs).rate == 300
    assert choose_max_rate(list(reversed(rungs))).rate == 300


def test_max_rate_ignores_a_pass_above_a_failure():
    rungs = [_rung(150, 10), _rung(300, 40, backlog=True), _rung(600, 50)]
    assert choose_max_rate(rungs).rate == 150


def test_max_rate_none_when_the_lowest_rung_fails():
    assert choose_max_rate([_rung(150, 500), _rung(300, 10)]) is None


# ------------------------------------------------------ failed_frac
def test_failed_frac_counts_every_attempt_once():
    t = Tally()
    assert math.isnan(t.failed_frac)
    t.ok(97)
    t.fail("request error: ShardError", 2)
    t.fail("served values differ from solo sharded_predict")
    assert (t.attempted, t.failed) == (100, 3)
    assert t.failed_frac == pytest.approx(0.03)
    assert t.reasons == {
        "request error: ShardError": 2,
        "served values differ from solo sharded_predict": 1,
    }


# --------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    from perfbench.workloads import WORKLOADS  # imports the program

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
