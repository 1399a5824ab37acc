"""Per-layer measurement for the traced run, taken from outside ``src/``.

:class:`Probe` is installed only in the traced run.  It wraps the public
functions it times — the set-up steps of
:func:`repro.core.eigenpro2.select_parameters`, the monitor's
:meth:`KernelModel.mse`, :meth:`ShardGroup.build`, the transports'
host-side all-reduce, the driver's barrier on shard workers
(``PendingMap.result``) and the HTTP client's connections — recording one
span per call on its own tracer.  Inside ``with probe:`` the calling
thread also runs under :func:`repro.observe.trace_scope` and
:func:`repro.instrument.meter_scope`, so the spans the program already
emits (``epoch``, ``form_block``, ``gemm``, ``correction``,
``form_block_wait``, ``gemm_wait``, ``serve/*``) and its operation
counts land in the same tracer and meter.  The HTTP callers run in a
load process under a probe of their own, each thread entering
:meth:`Probe.scope`.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import threading
import time
import urllib.request
from typing import Any, Callable, Iterator

import numpy as np

from repro.backend import to_numpy
from repro.core import eigenpro2
from repro.core.model import KernelModel
from repro.instrument import OpMeter, meter_scope
from repro.observe import SpanEvent, Tracer, trace_scope
from repro.shard.group import ShardGroup
from repro.shard.transport import PendingMap, ShardTransport

#: Set-up steps of ``select_parameters`` wrapped by name, with the span
#: each is recorded under.
SETUP_STEPS = {
    "select_parameters": "bench/select_parameters",
    "nystrom_extension": "bench/nystrom_extension",
    "estimate_beta": "bench/estimate_beta",
    "select_q": "bench/select_q",
}


class Probe:
    """Wraps public entry points while installed (see module docstring)."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.meter = OpMeter()
        self.allreduce_calls = 0
        self.allreduce_bytes = 0
        self.connects = 0
        self.request_bytes: list[int] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        self._scopes = contextlib.ExitStack()

    # ----------------------------------------------------------- wrapping
    def _timed(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.record(SpanEvent(
                    name, t0, time.perf_counter() - t0,
                    thread=threading.current_thread().name,
                ))

        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install(self) -> None:
        for attr, name in SETUP_STEPS.items():
            self._patch(eigenpro2, attr, self._timed(name, getattr(eigenpro2, attr)))
        self._patch(KernelModel, "mse", self._timed("bench/monitor", KernelModel.mse))
        build = ShardGroup.__dict__["build"].__func__
        self._patch(
            ShardGroup, "build", classmethod(self._timed("bench/group_build", build))
        )
        self._patch(
            PendingMap, "result", self._timed("bench/shard_wait", PendingMap.result)
        )
        allreduce = ShardTransport.allreduce

        def counted_allreduce(transport, partials, bk=None):
            size = sum(np.asarray(to_numpy(p)).nbytes for p in partials)
            with self._lock:
                self.allreduce_calls += 1
                self.allreduce_bytes += size
            return allreduce(transport, partials, bk=bk)

        self._patch(ShardTransport, "allreduce", counted_allreduce)
        connect = http.client.HTTPConnection.connect

        def counted_connect(conn):
            with self._lock:
                self.connects += 1
            return connect(conn)

        self._patch(http.client.HTTPConnection, "connect", counted_connect)
        urlopen = urllib.request.urlopen

        def sized_urlopen(req, *args, **kwargs):
            data = getattr(req, "data", None)
            if data is not None:
                with self._lock:
                    self.request_bytes.append(len(data))
            return urlopen(req, *args, **kwargs)

        self._patch(urllib.request, "urlopen", sized_urlopen)

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Probe":
        self._install()
        self._scopes.enter_context(self.scope())
        return self

    def __exit__(self, *exc: object) -> None:
        self._scopes.close()
        self._uninstall()

    @contextlib.contextmanager
    def scope(self) -> Iterator[None]:
        """Trace and meter the current thread into this probe."""
        with trace_scope(self.tracer), meter_scope(self.meter):
            yield

    # ---------------------------------------------------------- reading
    def events(self, name: str, since: float = -np.inf, until: float = np.inf) -> list[SpanEvent]:
        """Spans called ``name`` that started in ``[since, until)``."""
        return [
            ev for ev in self.tracer.events
            if ev.name == name and since <= ev.start_s < until
        ]

    def total_s(self, name: str) -> float:
        return float(sum(ev.duration_s for ev in self.events(name)))

    def count(self, name: str) -> int:
        return len(self.events(name))


def fit_layers(probe: Probe, fit_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced fit, and the part of ``fit_s`` no
    layer accounts for.

    The attributed parts do not overlap on the calling thread: parameter
    selection and group build run before the first epoch, the monitor
    runs between epochs.  ``form_block``/``gemm`` spans of shard workers
    are summed over workers (busy time, which can exceed wall time), and
    ``shard.wait_s`` is the time the driver was blocked on them (it
    contains the program's own ``form_block_wait``/``gemm_wait`` spans).
    """
    layers = {
        "core.select_parameters_s": probe.total_s(SETUP_STEPS["select_parameters"]),
        "linalg.nystrom_extension_s": probe.total_s(SETUP_STEPS["nystrom_extension"]),
        "core.estimate_beta_s": probe.total_s(SETUP_STEPS["estimate_beta"]),
        "core.select_q_s": probe.total_s(SETUP_STEPS["select_q"]),
        "shard.group_build_s": probe.total_s("bench/group_build"),
        "core.epoch_s": probe.total_s("epoch"),
        "core.monitor_s": probe.total_s("bench/monitor"),
        "kernels.form_block_s": probe.total_s("form_block"),
        "kernels.form_block_calls": float(probe.count("form_block")),
        "core.gemm_s": probe.total_s("gemm"),
        "core.correction_s": probe.total_s("correction"),
        "shard.wait_s": probe.total_s("bench/shard_wait"),
        "shard.allreduce_calls": float(probe.allreduce_calls),
        "shard.allreduce_bytes": float(probe.allreduce_bytes),
        "kernels.ops": float(probe.meter.total()),
    }
    attributed = (
        layers["core.select_parameters_s"]
        + layers["shard.group_build_s"]
        + layers["core.epoch_s"]
        + layers["core.monitor_s"]
    )
    layers["core.unattributed_s"] = fit_s - attributed
    return layers
