"""Adaptive micro-batch window: size the wait from the arrival rate.

A fixed ``batch_wait`` is a hand-tuned constant: too short and sparse
bursts dispatch half-empty ticks, too long and an idle queue pays the
whole window as latency.  The MAPE-style alternative (monitor → analyze
→ plan → execute, per the self-adaptive-systems line in PAPERS.md) is to
*close the loop*: estimate the inter-arrival gap from the submits the
server actually observes and open the window just long enough for a
cohort to assemble.

:class:`AdaptiveWindow` keeps an EWMA of inter-arrival gaps (monitor),
projects how long a ``target_requests``-sized cohort needs to arrive
(analyze/plan), and clamps the result to a configured
``[floor_s, ceiling_s]`` band (execute — the ceiling bounds worst-case
added latency, the floor can force a minimum coalescing window):

- under a *burst* (gaps ~ 0) the projected window collapses to the
  floor: the cohort is already there, waiting would only add latency;
- under *steady* sparse traffic the window grows with the observed gap
  until the ceiling caps it: the dispatcher stops paying for arrivals
  that are not coming.

The server enables it with ``ServeOptions(batch_wait="adaptive")`` and
records every per-tick decision in the ``serve/window_s`` histogram, so
the controller's behaviour is as observable as the latency it shapes.

Thread-safety: the controller is *not* internally locked.
:class:`~repro.serve.ModelServer` mutates and reads it under its own
queue lock (arrivals are observed inside ``submit``'s critical section,
decisions inside the dispatcher's); standalone users drive it from one
thread or bring their own lock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["AdaptiveWindow", "WindowOptions"]


@dataclass(frozen=True)
class WindowOptions:
    """Bounds and dynamics of the adaptive micro-batch window.

    Attributes
    ----------
    floor_s:
        Smallest window the controller may emit (``0`` = dispatch
        immediately when traffic is dense).
    ceiling_s:
        Largest window — the hard bound on latency added while waiting
        for stragglers.  Must be ``>= floor_s``.
    alpha:
        EWMA smoothing factor in ``(0, 1]`` for inter-arrival gaps:
        higher tracks bursts faster, lower rides out jitter.
    target_requests:
        Cohort size the window is planned for: the controller opens the
        window ``(target_requests - 1) * gap_ewma`` seconds, the
        projected time for the rest of a cohort to arrive behind the
        request that opened it.  ``None`` (default) targets the
        server's ``max_batch_requests``.
    max_gap_s:
        Gaps above this are treated as *idle time*, not traffic: the
        EWMA ignores them (a server quiet for a minute must not spend
        the next minute believing arrivals are a minute apart).
    """

    floor_s: float = 0.0
    ceiling_s: float = 2e-3
    alpha: float = 0.3
    target_requests: int | None = None
    max_gap_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.floor_s):
            raise ConfigurationError(
                f"floor_s must be >= 0, got {self.floor_s!r}"
            )
        if float(self.ceiling_s) < float(self.floor_s):
            raise ConfigurationError(
                f"ceiling_s must be >= floor_s, got ceiling_s="
                f"{self.ceiling_s!r} < floor_s={self.floor_s!r}"
            )
        if not 0.0 < float(self.alpha) <= 1.0:
            raise ConfigurationError(
                f"alpha must be in (0, 1], got {self.alpha!r}"
            )
        if (
            self.target_requests is not None
            and int(self.target_requests) < 1
        ):
            raise ConfigurationError(
                f"target_requests must be >= 1, got {self.target_requests!r}"
            )
        if not float(self.max_gap_s) > 0:
            raise ConfigurationError(
                f"max_gap_s must be > 0, got {self.max_gap_s!r}"
            )


class AdaptiveWindow:
    """EWMA inter-arrival estimator → per-tick micro-batch window.

    ``observe_arrival(now)`` feeds one submit timestamp (monotonic
    seconds, e.g. ``time.perf_counter()``); ``window_s()`` returns the
    window the *next* tick should listen for, always within
    ``[floor_s, ceiling_s]``.
    """

    def __init__(
        self,
        options: WindowOptions | None = None,
        *,
        max_batch_requests: int = 64,
    ) -> None:
        self.options = options if options is not None else WindowOptions()
        if not isinstance(self.options, WindowOptions):
            raise ConfigurationError(
                f"options must be a WindowOptions, got "
                f"{type(self.options).__name__}"
            )
        if int(max_batch_requests) < 1:
            raise ConfigurationError(
                f"max_batch_requests must be >= 1, got {max_batch_requests!r}"
            )
        target = self.options.target_requests
        self._target = int(
            max_batch_requests if target is None else target
        )
        self._gap_ewma: float | None = None
        self._last_arrival: float | None = None
        self._arrivals = 0

    @property
    def gap_ewma_s(self) -> float | None:
        """Current inter-arrival estimate (``None`` until two arrivals
        within ``max_gap_s`` have been seen)."""
        return self._gap_ewma

    @property
    def arrivals(self) -> int:
        """Arrivals observed so far."""
        return self._arrivals

    def observe_arrival(self, now: float) -> None:
        """Fold one submit timestamp into the inter-arrival EWMA."""
        self._arrivals += 1
        last = self._last_arrival
        self._last_arrival = now
        if last is None:
            return
        gap = now - last
        if gap < 0.0 or gap > self.options.max_gap_s:
            # Clock went backwards (caller bug) or the server sat idle:
            # neither is traffic — keep the estimate, restart the pair.
            return
        alpha = self.options.alpha
        self._gap_ewma = (
            gap
            if self._gap_ewma is None
            else alpha * gap + (1.0 - alpha) * self._gap_ewma
        )

    def window_s(self) -> float:
        """The window for the next tick: projected time for the rest of
        a ``target_requests`` cohort to arrive, clamped to the band."""
        opts = self.options
        if self._gap_ewma is None:
            return float(opts.floor_s)
        projected = self._gap_ewma * max(0, self._target - 1)
        return float(min(opts.ceiling_s, max(opts.floor_s, projected)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        gap = self._gap_ewma
        return (
            f"<AdaptiveWindow target={self._target} "
            f"gap_ewma={'-' if gap is None else f'{gap:.6f}'}s "
            f"band=[{self.options.floor_s}, {self.options.ceiling_s}]s>"
        )
