"""Wall-clock tracing spans on a thread-local tracer stack.

:mod:`repro.instrument` answers *how much work* ran (operation counts);
this module answers *where the milliseconds went*.  The design mirrors
the meter stack deliberately:

- a thread-local stack of active :class:`Tracer` objects
  (:func:`trace_scope` pushes, exactly like ``meter_scope``);
- :func:`span` is a context manager that records a timed
  :class:`SpanEvent` against every active tracer — and is a near-free
  no-op when the stack is empty, so hot paths may open spans
  unconditionally;
- :func:`relay_spans` is the single relay rule for spans measured on
  another thread or in another process (shard workers), the exact
  analogue of :func:`repro.instrument.relay_op_counts`.

Spans never touch :class:`~repro.instrument.OpMeter`\\ s: enabling or
disabling tracing cannot change an op count, an RPC count, or a numeric
result — the conformance suite pins this.

Timestamps are ``time.perf_counter()`` values.  On Linux this is
``CLOCK_MONOTONIC``, which is shared across processes on the same host,
so worker-side spans relayed from shard subprocesses land on the same
timeline as caller-side spans.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "SpanEvent",
    "Tracer",
    "active_tracers",
    "record_span",
    "relay_spans",
    "span",
    "trace_scope",
    "tracing_active",
]


@dataclass(frozen=True)
class SpanEvent:
    """One completed span: a named, attributed wall-clock interval.

    Attributes
    ----------
    name:
        Phase name (``"form_block"``, ``"allreduce"``, ...).
    start_s:
        ``time.perf_counter()`` timestamp at span entry.
    duration_s:
        Wall-clock seconds between entry and exit.
    thread:
        Name of the thread the span ran on.
    depth:
        Nesting depth *at entry* on that thread (0 = top level).
    attrs:
        Free-form span attributes (``step=t``, ``shard=i``, ...).  Must
        stay picklable: worker-side spans cross a process pipe.
    """

    name: str
    start_s: float
    duration_s: float
    thread: str = ""
    depth: int = 0
    attrs: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form used by the exporters and the relay payload."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpanEvent":
        return cls(
            name=payload["name"],
            start_s=float(payload["start_s"]),
            duration_s=float(payload["duration_s"]),
            thread=str(payload.get("thread", "")),
            depth=int(payload.get("depth", 0)),
            attrs=dict(payload.get("attrs", {})),
        )


class Tracer:
    """Thread-safe collector of completed :class:`SpanEvent`\\ s.

    A tracer is passive: it does nothing until pushed onto the ambient
    stack with :func:`trace_scope`, after which every :func:`span`
    opened on that thread (and every relayed worker-side span) is
    recorded here.  Identity-based equality, like ``OpMeter``: the
    scope stack removes by identity.
    """

    def __init__(self) -> None:
        self._events: list[SpanEvent] = []
        self._lock = threading.Lock()

    def record(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)

    def record_many(self, events: Iterable[SpanEvent]) -> None:
        with self._lock:
            self._events.extend(events)

    @property
    def events(self) -> list[SpanEvent]:
        """Snapshot list of recorded spans (copy; safe to iterate)."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def totals(self) -> dict[str, float]:
        """Summed wall-clock seconds per span name."""
        out: dict[str, float] = {}
        for ev in self.events:
            out[ev.name] = out.get(ev.name, 0.0) + ev.duration_s
        return out

    def counts(self) -> dict[str, int]:
        """Number of completed spans per span name."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.name] = out.get(ev.name, 0) + 1
        return out


class _TracerStack(threading.local):
    def __init__(self) -> None:  # pragma: no cover - trivial
        self.stack: list[Tracer] = []
        self.depth: int = 0


_TRACERS = _TracerStack()


def active_tracers() -> list[Tracer]:
    """Return the (possibly empty) stack of currently active tracers.

    The returned list is a *copy*: callers that capture it (the serving
    layer snapshots a request thread's tracers at submit time and relays
    the dispatcher-side spans to them) hold exactly the scopes that were
    active at the call, unaffected by scopes entered or exited later.
    """
    return list(_TRACERS.stack)


def tracing_active() -> bool:
    """True when at least one tracer is active on this thread.

    Transports capture this at submit time — exactly where they capture
    the ambient precision — so worker-side tasks know whether to measure
    spans without any extra round-trip.
    """
    return bool(_TRACERS.stack)


class trace_scope:
    """Context manager that pushes a tracer onto the active stack.

    Mirrors :class:`repro.instrument.meter_scope`: removal is by
    identity scanning backwards, so scopes may exit out of order under
    errors.

    Example
    -------
    >>> from repro.observe import Tracer, trace_scope, span
    >>> tracer = Tracer()
    >>> with trace_scope(tracer):
    ...     with span("form_block", step=0):
    ...         pass
    >>> [ev.name for ev in tracer.events]
    ['form_block']
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()

    def __enter__(self) -> Tracer:
        _TRACERS.stack.append(self.tracer)
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        for pos in range(len(_TRACERS.stack) - 1, -1, -1):
            if _TRACERS.stack[pos] is self.tracer:
                del _TRACERS.stack[pos]
                break


class span:
    """Time a named phase against every active tracer.

    ``with span("gemm", step=t, shard=i): ...`` records one
    :class:`SpanEvent` per active tracer on exit.  When no tracer is
    active the context manager is a no-op whose entire cost is one
    attribute check — hot loops open spans unconditionally, exactly as
    they call :func:`~repro.instrument.record_ops` unconditionally.

    Spans nest: the per-thread depth counter is bumped while inside an
    enabled span, and each event records the depth at entry, so
    exporters can reconstruct the phase hierarchy without parent
    pointers.

    Attribution is fixed at *entry*: the set of tracers active when the
    span opens is the set that receives the event at exit.  A scope that
    exits while the span is still open keeps its event; a scope entered
    mid-span (another request's ``trace_scope`` interleaving on the same
    thread) does not see someone else's interval.
    """

    __slots__ = ("name", "attrs", "_start", "_depth", "_tracers")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self._start: float | None = None
        self._depth = 0
        self._tracers: tuple[Tracer, ...] = ()

    def __enter__(self) -> "span":
        if _TRACERS.stack:
            self._tracers = tuple(_TRACERS.stack)
            self._depth = _TRACERS.depth
            _TRACERS.depth += 1
            self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        if self._start is None:
            return
        duration = time.perf_counter() - self._start
        _TRACERS.depth -= 1
        event = SpanEvent(
            name=self.name,
            start_s=self._start,
            duration_s=duration,
            thread=threading.current_thread().name,
            depth=self._depth,
            attrs=self.attrs,
        )
        for tracer in self._tracers:
            tracer.record(event)
        self._tracers = ()


def record_span(
    name: str,
    start_s: float,
    duration_s: float,
    **attrs: Any,
) -> None:
    """Record an explicitly timed interval against every active tracer.

    For phases that cannot be bracketed by a single ``with`` block —
    e.g. the post-recovery replay window, whose start and end live in
    different loop iterations.  No-op when no tracer is active.
    """
    if not _TRACERS.stack:
        return
    event = SpanEvent(
        name=name,
        start_s=start_s,
        duration_s=duration_s,
        thread=threading.current_thread().name,
        attrs=attrs,
    )
    for tracer in _TRACERS.stack:
        tracer.record(event)


def relay_spans(payloads: Iterable[Mapping[str, Any]]) -> None:
    """Record span payloads captured on another thread/process against
    this thread's active tracers.

    The exact analogue of :func:`repro.instrument.relay_op_counts`:
    engines that trace work on a private worker-side tracer surface the
    spans where the result is consumed.  Payloads are the plain-dict
    form (:meth:`SpanEvent.as_dict`) because they may have crossed a
    process pipe.  No-op when no tracer is active.
    """
    if not _TRACERS.stack:
        return
    events = [SpanEvent.from_dict(p) for p in payloads]
    for tracer in _TRACERS.stack:
        tracer.record_many(events)
