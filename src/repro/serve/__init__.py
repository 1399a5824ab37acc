"""``repro.serve`` — micro-batched prediction serving.

The training stack produces a fitted kernel machine; this package turns
it into a *persistent serving session* for concurrent traffic, reachable
in process or over the network, with per-request quality of service.

**Engine.**  A :class:`ModelServer` keeps the model's centers/weights
resident on a :class:`~repro.shard.ShardGroup` (built from a fitted
:class:`~repro.core.model.KernelModel`, or borrowed live from training)
and answers concurrent requests through a micro-batching queue:

- request threads call :meth:`~ModelServer.submit` (raw array in,
  array-out future — the historical contract) or
  :meth:`~ModelServer.submit_request` with a typed
  :class:`PredictRequest` carrying priority, deadline, correlation id
  and tags; the latter resolves to a :class:`PredictResponse` with
  per-request timings (``queue_s``/``batch_s``), run id and retry
  count;
- a dispatcher thread coalesces the queue into one tick — one fused
  ``map_allreduce`` round-trip over the group, the engine's sweet
  spot — and scatters per-request result rows back to the futures;
- every response is **bit-identical** to what the request would get
  from a solo :func:`~repro.shard.sharded_predict` call (see
  :mod:`repro.serve.server` for why the tick evaluates per-request
  segments rather than one coalesced GEMM).

**Scheduling.**  Cohorts form priority-first (higher
``PredictRequest.priority`` rides the next tick first; equal priority
keeps FIFO order), and a request whose ``deadline_s`` expires while
queued is *shed*: its future fails with
:class:`~repro.exceptions.DeadlineExceeded` at cohort formation,
before any shard work is spent on it (``serve/shed_requests`` counts
them).

**Adaptive window.**  ``ServeOptions(batch_wait="adaptive")`` replaces
the fixed coalescing window with :class:`AdaptiveWindow` — an EWMA of
observed inter-arrival gaps sizes each tick's window inside a
``[floor_s, ceiling_s]`` band (:class:`WindowOptions`), so bursts
dispatch immediately while sparse traffic stops paying for stragglers
that are not coming.  Every decision lands in the ``serve/window_s``
histogram.

**Transports.**  :class:`~repro.serve.http.ServeHTTPServer`
(:mod:`repro.serve.http`) exposes a live engine over stdlib HTTP —
``POST /predict`` JSON in/out (rows as nested lists or packed as
base64 float64 bytes, answered in kind; float64 survives the round
trip bitwise either way), ``GET /healthz`` and ``GET /metrics`` — and
:mod:`repro.serve.client` gives callers one :class:`ServeClient`
interface with :class:`LocalClient` (in-process) and
:class:`HttpClient` (network) implementations, raising the same
exception types either way.

Latency is observable end to end: ``serve/{queue,batch,kernel,
scatter}`` spans are relayed to each submitting caller's tracers, and
the server's :class:`~repro.observe.MetricsRegistry` carries
run-ID-stamped ``serve/*`` histograms (p50/p95/p99 in
:meth:`~ModelServer.stats`).  The modelled cost of one request is
:func:`repro.device.cluster.serving_latency` (queue wait + fused block
+ all-reduce, with deadline shedding); ``benchmarks/bench_serve.py``
measures the real thing under closed-loop load, and the
``serve-report`` experiment (:mod:`repro.experiments.serve_report`)
checks the two against each other.
"""

from repro.serve.adaptive import AdaptiveWindow, WindowOptions
from repro.serve.api import PredictRequest, PredictResponse
from repro.serve.client import HttpClient, LocalClient, ServeClient
from repro.serve.http import ServeHTTPServer
from repro.serve.server import ADAPTIVE, ModelServer, ServeOptions

__all__ = [
    "ADAPTIVE",
    "AdaptiveWindow",
    "HttpClient",
    "LocalClient",
    "ModelServer",
    "PredictRequest",
    "PredictResponse",
    "ServeClient",
    "ServeHTTPServer",
    "ServeOptions",
    "WindowOptions",
]
