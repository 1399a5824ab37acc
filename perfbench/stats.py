"""Measurement rules of the benchmark, kept free of the program under test.

Everything here is plain arithmetic over recorded samples, so the rules
can be tested without building a model or starting a server:

- :func:`tail_percentile` / :func:`summarize` — a timing is reported as
  its median and the highest percentile that has at least
  :data:`MIN_BEYOND` samples beyond it, with the sample count;
- :class:`OpenLoop` — an open-loop generator that sends each request at
  its due time and times it from that due time, so a stall delays (and
  is charged to) every later request, and records how late it ran;
- :func:`backlog_grows` / :func:`rung_ok` / :func:`choose_max_rate` — the
  knee of a fixed rate ladder: the highest rung whose tail latency meets
  the limit while the queue stays bounded;
- :class:`Tally` — operations attempted and failed, and ``failed_frac``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (``None`` when even the
    median has fewer)."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


@dataclass(frozen=True)
class Summary:
    """Median, 90th percentile and supported tail of one sample of
    timings (``p90`` is reported from 100 samples up, else ``None``)."""

    n: int
    p50: float
    p90: float | None
    tail_p: float | None
    tail: float | None

    def describe(self, unit: str) -> str:
        tail = (
            "no tail (too few samples)"
            if self.tail_p is None
            else f"p{self.tail_p:g} {self.tail:.4g} {unit}"
        )
        p90 = "" if self.p90 is None else f"p90 {self.p90:.4g} {unit}, "
        return f"p50 {self.p50:.4g} {unit}, {p90}{tail}, n={self.n}"


def summarize(values: Sequence[float]) -> Summary:
    """Median, p90 and supported tail (see :func:`tail_percentile`)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    p = tail_percentile(arr.size)
    return Summary(
        n=int(arr.size),
        p50=float(np.percentile(arr, 50)),
        p90=float(np.percentile(arr, 90)) if arr.size >= 100 else None,
        tail_p=p,
        tail=None if p is None else float(np.percentile(arr, p)),
    )


def poisson_schedule(
    rate: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Due offsets (s, ascending) of ``n`` Poisson arrivals at ``rate``
    per second, conditioned on exactly ``n`` arrivals in ``n / rate``
    seconds — sorted uniform draws over that span.

    Conditioning fixes the rate a rung offers, so the rate it achieves
    varies with the system, not with the sampled arrival count.
    """
    if rate <= 0 or n < 1:
        raise ValueError(f"need rate > 0 and n >= 1, got {rate}, {n}")
    return np.sort(rng.uniform(0.0, n / rate, size=n))


class OpenLoop:
    """Send requests at their due times, whatever the system does.

    ``submit(i)`` must start request ``i`` and return quickly; the caller
    reports its completion with :meth:`complete`.  Latency is measured
    from the *due* time, not from when the generator got round to
    sending, so when a slow ``submit`` (or a stalled generator) delays
    later requests, their latencies include the delay.  ``late_s`` holds
    how late each request was sent.  ``clock``/``sleep`` are injectable
    so tests can drive the loop on a fake clock.
    """

    def __init__(
        self,
        due_offsets: Sequence[float],
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.offsets = np.asarray(due_offsets, dtype=float)
        n = self.offsets.size
        self.clock = clock
        self.sleep = sleep
        self.start_s = math.nan
        self.due_s = np.full(n, math.nan)
        self.late_s = np.full(n, math.nan)
        self.done_s = np.full(n, math.nan)

    def run(self, submit: Callable[[int], None]) -> None:
        """Send every request at its due time (lead-in of 5 ms so the
        first request is not late by construction)."""
        self.start_s = self.clock() + 0.005
        self.due_s = self.start_s + self.offsets
        for i, due in enumerate(self.due_s):
            wait = due - self.clock()
            if wait > 0:
                self.sleep(wait)
            self.late_s[i] = max(0.0, self.clock() - due)
            submit(i)

    def complete(self, i: int) -> None:
        """Record that request ``i`` finished (thread-safe: one writer
        per index)."""
        self.done_s[i] = self.clock()

    def latencies_s(self) -> np.ndarray:
        """Per-request latency from the due time (NaN if not finished)."""
        return self.done_s - self.due_s


def backlog_grows(
    due_s: Sequence[float], latency_s: Sequence[float], limit_s: float
) -> bool:
    """True when latency climbs across a rung by more than half the
    latency limit — a queue that grows for as long as the rung lasts.

    The climb is the least-squares slope of latency against due time
    times the rung's span; a stable queue has a slope near zero however
    noisy its latencies are.
    """
    t = np.asarray(due_s, dtype=float)
    lat = np.asarray(latency_s, dtype=float)
    if t.size < 2 or np.ptp(t) <= 0:
        return False
    slope = np.polyfit(t - t[0], lat, 1)[0]
    return bool(slope * np.ptp(t) > 0.5 * limit_s)


@dataclass(frozen=True)
class Rung:
    """One step of the open-loop rate ladder."""

    rate: float
    summary: Summary
    backlog: bool
    achieved_rps: float
    ok: bool


def rung_ok(summary: Summary, backlog: bool, limit: float) -> bool:
    """A rung meets the limit when its tail latency is measured, within
    ``limit``, and the queue does not grow."""
    return summary.tail is not None and summary.tail <= limit and not backlog


def choose_max_rate(rungs: Sequence[Rung]) -> Rung | None:
    """The highest rung below the first failing one (rungs in ascending
    rate).  A rung passing above a failure is not counted: past the
    knee the system is saturated, whatever one lucky rung shows."""
    best = None
    for rung in sorted(rungs, key=lambda r: r.rate):
        if not rung.ok:
            break
        best = rung
    return best


@dataclass
class Tally:
    """Operations attempted and failed, by reason.

    A fit fails when it misses its target within the cap, yields a
    non-finite MSE or raises; a request fails when it errors, is
    refused or shed (503/504), or returns values that are not bitwise
    equal to the solo reference.  Failed requests count as missing any
    latency limit.
    """

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.reasons[reason] = self.reasons.get(reason, 0) + n

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else math.nan
