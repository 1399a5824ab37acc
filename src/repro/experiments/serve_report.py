"""Serving-path report: a loaded micro-batched server vs the cost model.

:mod:`repro.experiments.observe_report` reconciles the *training* path
against the analytic model phase by phase; this experiment does the same
for the *serving* path.  It drives a :class:`repro.serve.ModelServer`
through the transport-agnostic client interface
(:class:`repro.serve.LocalClient` — the same
:class:`~repro.serve.ServeClient` surface the HTTP transport
implements) with closed-loop concurrent clients (each client thread
submits its next request only after the previous one resolved — the
load shape ``bench_serve.py`` sweeps), then checks the serving
invariants:

- **bitwise parity**: every micro-batched response equals the same
  request's solo :func:`~repro.shard.sharded_predict` bits;
- **latency observability**: the server's run-ID-stamped
  :class:`~repro.observe.MetricsRegistry` snapshot carries
  ``serve/request_s`` / ``serve/queue_s`` histograms with p50/p95/p99;
- **span attribution**: each client's tracer holds exactly its own
  ``serve/{queue,batch,kernel,scatter}`` spans — no cross-request
  leakage through the shared group;
- **model term**: :func:`repro.device.cluster.serving_latency`
  (queue wait + fused block + all-reduce, deadline-aware) prices the
  measured tick from the run's own ``serve/*`` histograms;
- **graceful drain**: a burst left in flight at ``close()`` still
  resolves — every future is served, none dropped;
- **deadline shedding**: a request whose ``deadline_s`` expires while
  queued fails with :class:`~repro.exceptions.DeadlineExceeded` before
  any shard work runs, while admitted traffic is served normally;
- **adaptive window**: with ``batch_wait="adaptive"`` every per-tick
  window decision stays inside the configured
  ``[floor_s, ceiling_s]`` band (``serve/window_s``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.device.cluster import serving_latency, transport_interconnect
from repro.experiments.harness import ExperimentResult, PaperClaim
from repro.kernels import GaussianKernel
from repro.observe import MetricsRegistry, Tracer, new_run_id, trace_scope

__all__ = ["ServeReportConfig", "run_serve_report"]

#: Span names every served request must carry on its caller's tracer.
REQUEST_SPANS: tuple[str, ...] = (
    "serve/queue",
    "serve/batch",
    "serve/kernel",
    "serve/scatter",
)


@dataclass
class ServeReportConfig:
    """Workload for the loaded server (sized for a CI smoke run)."""

    n: int = 2_000
    d: int = 12
    l: int = 3
    g: int = 2
    #: Transport of the serving shard group (any registered name).
    transport: str = "thread"
    transport_options: dict = field(default_factory=dict)
    #: Closed-loop clients and sequential requests per client.
    n_clients: int = 8
    requests_per_client: int = 8
    rows_per_request: int = 8
    bandwidth: float = 4.0
    seed: int = 0


def run_serve_report(cfg: ServeReportConfig | None = None) -> ExperimentResult:
    """Load a micro-batched server and report measured latencies, span
    attribution, drain behaviour and the modelled request cost."""
    from repro.exceptions import DeadlineExceeded
    from repro.serve import (
        LocalClient,
        ModelServer,
        PredictRequest,
        ServeOptions,
        WindowOptions,
    )
    from repro.shard import ShardGroup, sharded_predict
    from repro.shard.transport import resolve_transport

    cfg = cfg or ServeReportConfig()
    rng = np.random.default_rng(cfg.seed)
    centers = rng.standard_normal((cfg.n, cfg.d))
    weights = rng.standard_normal((cfg.n, cfg.l))
    kernel = GaussianKernel(bandwidth=cfg.bandwidth)
    requests = [
        [
            rng.standard_normal((cfg.rows_per_request, cfg.d))
            for _ in range(cfg.requests_per_client)
        ]
        for _ in range(cfg.n_clients)
    ]

    run_id = new_run_id()
    metrics = MetricsRegistry(run_id=run_id)
    client_tracers = [Tracer() for _ in range(cfg.n_clients)]
    outputs: list[list[np.ndarray]] = [[] for _ in range(cfg.n_clients)]

    with ShardGroup.build(
        centers, weights, g=cfg.g, kernel=kernel,
        transport=cfg.transport, **dict(cfg.transport_options),
    ) as group:
        server = ModelServer(group=group, metrics=metrics)
        client = LocalClient(server)

        def _client(idx: int) -> None:
            with trace_scope(client_tracers[idx]):
                for x in requests[idx]:
                    outputs[idx].append(client.predict(x, timeout=60))

        threads = [
            threading.Thread(target=_client, args=(i,), name=f"client-{i}")
            for i in range(cfg.n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Burst left in flight at close(): drain must serve them all.
        burst = [server.submit(requests[0][0]) for _ in range(cfg.n_clients)]
        server.close()
        drained = all(f.done() and f.exception() is None for f in burst)

        # Solo per-request references on the (still open) borrowed group.
        bitwise = all(
            np.array_equal(
                out, np.asarray(sharded_predict(group, x)), equal_nan=True
            )
            for reqs, outs in zip(requests, outputs)
            for x, out in zip(reqs, outs)
        )

        # --- deadline trial: doomed requests shed before any shard work,
        # admitted traffic served bit-exact on the same engine.
        sched_metrics = MetricsRegistry(run_id=new_run_id())
        sched = ModelServer(
            group=group, metrics=sched_metrics,
            options=ServeOptions(batch_wait=2e-3),
        )
        doomed = [
            sched.submit_request(
                PredictRequest(rows=requests[0][0], deadline_s=1e-6)
            )
            for _ in range(4)
        ]
        shed_ok = all(
            isinstance(f.exception(timeout=30), DeadlineExceeded)
            for f in doomed
        )
        admitted = sched.predict(requests[0][0], timeout=60)
        sched.close()
        sched_snapshot = sched_metrics.snapshot()
        shed_count = int(
            sched_snapshot["counters"].get("serve/shed_requests", 0)
        )
        ticked = sum(
            sched_metrics.histogram_values("serve/batch_requests")
        )
        deadline_ok = (
            shed_ok
            and shed_count == len(doomed)
            and ticked == 1  # only the admitted request consumed a tick
            and np.array_equal(
                admitted, np.asarray(sharded_predict(group, requests[0][0]))
            )
        )

        # --- adaptive trial: every per-tick window decision in-band.
        win = WindowOptions(floor_s=0.0, ceiling_s=1e-3)
        adaptive_metrics = MetricsRegistry(run_id=new_run_id())
        adaptive = ModelServer(
            group=group, metrics=adaptive_metrics,
            options=ServeOptions(batch_wait="adaptive", adaptive=win),
        )
        for _ in range(3):
            futures = [adaptive.submit(x) for x in requests[0]]
            for f in futures:
                f.result(timeout=60)
        adaptive.close()
        windows = adaptive_metrics.histogram_values("serve/window_s")
        adaptive_ok = bool(windows) and all(
            win.floor_s <= w <= win.ceiling_s for w in windows
        )

    snapshot = metrics.snapshot()
    hist = snapshot["histograms"]
    request_h = hist.get("serve/request_s", {})
    queue_h = hist.get("serve/queue_s", {})
    kernel_h = hist.get("serve/kernel_s", {})
    rows_h = hist.get("serve/batch_rows", {})
    total_requests = int(snapshot["counters"].get("serve/requests", 0))

    link = resolve_transport(cfg.transport).link_name()
    modelled_s = serving_latency(
        transport_interconnect(link),
        cfg.g,
        payload_scalars=float(rows_h.get("mean", 0.0)) * cfg.l,
        queue_wait_s=float(queue_h.get("mean", 0.0)),
        block_time_s=float(kernel_h.get("mean", 0.0)),
        fused=True,
    )

    result = ExperimentResult(
        name="serve-report",
        title=(
            "Micro-batched serving under closed-loop load "
            f"({cfg.transport} transport, g={cfg.g}, "
            f"{cfg.n_clients} clients): measured latencies vs the "
            "serving-latency model"
        ),
        notes=(
            f"workload: n={cfg.n}, d={cfg.d}, l={cfg.l}, "
            f"{cfg.n_clients}x{cfg.requests_per_client} requests of "
            f"{cfg.rows_per_request} rows; run {run_id['id'][:12]}; "
            "model term fed from the run's own serve/* histograms."
        ),
    )
    for q in ("p50", "p95", "p99"):
        result.add_row(
            transport=cfg.transport,
            metric=f"request_{q}_ms",
            value=round(1e3 * float(request_h.get(q, float("nan"))), 3),
        )
    result.add_row(
        transport=cfg.transport,
        metric="modelled_request_ms",
        value=round(1e3 * modelled_s, 3),
    )
    result.add_row(
        transport=cfg.transport,
        metric="mean_batch_requests",
        value=round(
            float(hist.get("serve/batch_requests", {}).get("mean", 0.0)), 2
        ),
    )

    result.add_claim(
        PaperClaim(
            claim_id="serve/batched-bitwise",
            description=(
                "Every micro-batched response is bit-identical to the "
                "same request's solo sharded_predict"
            ),
            paper="(serving invariant; repro.serve)",
            measured=f"{total_requests} requests compared",
            holds=bitwise and total_requests > 0,
        )
    )
    per_client_ok = all(
        tracer.counts().get(name, 0) == cfg.requests_per_client
        for tracer in client_tracers
        for name in REQUEST_SPANS
    )
    result.add_claim(
        PaperClaim(
            claim_id="serve/span-attribution",
            description=(
                "Each concurrent client's tracer holds exactly its own "
                "serve/{queue,batch,kernel,scatter} spans — no "
                "cross-request leakage through the shared group"
            ),
            paper="(observability invariant; repro.observe)",
            measured=(
                f"{cfg.n_clients} clients x {cfg.requests_per_client} "
                "requests, 4 spans each"
            ),
            holds=per_client_ok,
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="serve/latency-histograms",
            description=(
                "The run-ID-stamped metrics snapshot reports request "
                "latency with p50/p95/p99"
            ),
            paper="(serving observability; repro.observe)",
            measured=", ".join(
                f"{q}={1e3 * float(request_h.get(q, float('nan'))):.3f}ms"
                for q in ("p50", "p95", "p99")
            ),
            holds=(
                snapshot["run_id"]["id"] == run_id["id"]
                and all(q in request_h for q in ("p50", "p95", "p99"))
                and request_h.get("count", 0) == total_requests
            ),
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="serve/model-term",
            description=(
                "serving_latency (queue wait + fused block + all-reduce) "
                "prices the measured tick from the run's own histograms"
            ),
            paper="(Section-2 resource modelling, extended to serving)",
            measured=(
                f"modelled {1e3 * modelled_s:.3f}ms vs measured mean "
                f"{1e3 * float(request_h.get('mean', float('nan'))):.3f}ms"
            ),
            holds=np.isfinite(modelled_s) and modelled_s > 0,
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="serve/drain-on-close",
            description=(
                "close() drains the queue: every in-flight future "
                "resolves with a served result"
            ),
            paper="(serving invariant; repro.serve)",
            measured=f"{len(burst)} futures in flight at close",
            holds=drained,
        )
    )
    modelled_shed_s = serving_latency(
        transport_interconnect(link),
        cfg.g,
        payload_scalars=float(rows_h.get("mean", 0.0)) * cfg.l,
        queue_wait_s=2e-3,
        deadline_s=1e-6,
    )
    result.add_claim(
        PaperClaim(
            claim_id="serve/deadline-shed",
            description=(
                "A request whose deadline expires while queued fails "
                "with DeadlineExceeded before any shard work runs; "
                "admitted traffic on the same engine is served "
                "bit-exact, and the model's shed branch charges only "
                "the deadline"
            ),
            paper="(QoS scheduling invariant; repro.serve)",
            measured=(
                f"{len(doomed)} doomed requests, {shed_count} shed, "
                f"{ticked:.0f} requests ticked; modelled shed latency "
                f"{modelled_shed_s:.2e}s"
            ),
            holds=deadline_ok and modelled_shed_s == 1e-6,
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="serve/adaptive-window",
            description=(
                'With batch_wait="adaptive" every per-tick window '
                "decision stays inside the configured [floor_s, "
                "ceiling_s] band"
            ),
            paper="(MAPE-style window control; repro.serve.adaptive)",
            measured=(
                f"{len(windows)} window decisions in "
                f"[{win.floor_s}, {win.ceiling_s}]s"
            ),
            holds=adaptive_ok,
        )
    )
    return result
