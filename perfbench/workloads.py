"""The benchmark's workloads: why each exists and what it loads.

All workloads drive the program through its public entry points only
(``EigenPro2.fit``, ``ShardedEigenPro2.fit``, ``ModelServer.submit``,
``ServeHTTPServer`` + ``HttpClient``, ``sharded_predict``) and hand it
inputs generated from the seed: the ``mnist`` analog of
:mod:`repro.data` and, for serving, seeded weights over its rows.  Load
comes from this one process with at most two client threads.

``fit-small``
    Serial :class:`EigenPro2` with defaults on the ``mnist`` analog
    (n=2000, d=784, so s=n=2000 and q=300), fitted to train MSE
    :data:`FIT_SMALL` ``.target`` within ``.epoch_cap`` epochs.  Set-up
    (the s x s block, the top-q eigensolve, the beta estimates) is over
    half of the fit, so this is where the ``linalg`` and ``core`` set-up
    path does most of its work and the epoch loop little (3 epochs).
``fit-sharded`` (runnable, not in ``BENCHMARK.json``)
    :class:`ShardedEigenPro2` (``n_shards=2, transport="process"``) with
    defaults on the ``mnist`` analog (n=6000), fitted to train MSE
    :data:`FIT_SHARDED` ``.target`` within ``.epoch_cap`` epochs.  Here
    ``kernels`` block formation, the correction and the ``shard``
    transport do the work and set-up is small.  The automatic step size
    overshoots at epoch 2 (train MSE rises before it falls; 5 epochs),
    and on some seeds it diverges: with seed 24 the train MSE climbs from
    0.008 to 0.33 over the 10-epoch cap, identically in the serial
    trainer.  A workload that fails on some seeds cannot gate changes, so
    this one stays out of the benchmark until the step size is fixed;
    ``python3 perfbench/run.py --workload fit-sharded --seed 24`` shows
    the divergence.  Its per-epoch train MSE is checked against the
    serial trainer's on the same seed.
``serve-inproc`` (runnable, not in ``BENCHMARK.json``)
    An open loop of independent callers: one generator thread calls
    ``ModelServer.submit`` on a seeded Poisson schedule, stepping through
    the fixed rate ladder :data:`LADDER_RPS` (:data:`RUNG_REQUESTS`
    requests per rung), each request timed from when it was due.  The
    server holds :data:`SERVE_CENTERS` centers on the thread transport
    with g=2 and default ``ServeOptions``; requests are 90% 1-row and 10%
    16-row.  It is the only workload that builds a queue, so the
    ``serve`` dispatcher does its work here.  A rung passes when its p99
    is within :data:`LATENCY_LIMIT_MS` and latency does not climb across
    the rung (no growing backlog); the ladder stops at the first failing
    rung.  At 150 req/s a request's latency is mostly thread wake-ups, so
    it follows contention on the host: two sets of ten runs 15 minutes
    apart on the same code gave medians 2.70 and 3.33 ms (p50) and 6.11
    and 8.81 ms (p90), and server set-up 5.7 and 7.4 ms — past the 25%
    a benchmark bound may allow.  It stays runnable until it can be made
    steady; its dispatcher figures (queue wait, requests per tick, tick
    kernel time) are also measured on ``serve-http``.
``serve-http``
    A closed loop of 2 ``HttpClient`` callers, in a load process of their
    own, against ``ServeHTTPServer`` over the same kind of model and
    server, 90% 1-row and 10% 32-row requests.  HTTP encode, decode and a
    connection per request take most of a 1-row request while the engine
    is light; the 32-row requests cross the same HTTP layer with
    payload-dominated cost.

Every output is checked outside the timed path: each fit reaches its
target with finite MSE, the sharded per-epoch MSE matches the serial
trainer's within :func:`sharded_mse_tolerance`, and every served
response is bitwise equal to a solo ``sharded_predict`` on the same
group.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import select
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import EigenPro2, LaplacianKernel
from repro.core.model import KernelModel
from repro.data import get_dataset
from repro.serve import HttpClient, LocalClient, ModelServer, ServeHTTPServer
from repro.shard import ShardedEigenPro2, sharded_predict

from perfbench.layers import Probe, fit_layers
from perfbench.metrics import PER_LAYER
from perfbench.stats import (
    OpenLoop,
    Rung,
    Tally,
    backlog_grows,
    choose_max_rate,
    poisson_schedule,
    rung_ok,
    summarize,
)

#: Bandwidth of the Laplacian kernel every workload uses (the repo's
#: quickstart choice for the ``mnist`` analog).
BANDWIDTH = 10.0
N_TEST = 1000
#: Root of the checkout, where the HTTP load process is started.
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class FitSpec:
    """A fit to ``target`` train MSE (on the trainer's monitor subset)
    within ``epoch_cap`` epochs on ``n`` rows of the ``mnist`` analog."""

    n: int
    target: float
    epoch_cap: int
    sharded: bool


FIT_SMALL = FitSpec(n=2000, target=1e-3, epoch_cap=10, sharded=False)
FIT_SHARDED = FitSpec(n=6000, target=5e-3, epoch_cap=10, sharded=True)

#: Serving model size, shard count and request mixes.
SERVE_CENTERS = 4000
SERVE_G = 2
INPROC_MIX = ((1, 0.9), (16, 0.1))
HTTP_MIX = ((1, 0.9), (32, 0.1))
#: Requests are drawn from fixed pools of held-out rows, so the solo
#: reference for the bitwise check is computed once per distinct input.
POOL_SINGLE = 256
POOL_MULTI = 64
#: Server set-ups timed per run (setup_s is their median).
SETUPS = 15

#: Open-loop rate ladder (requests/s), ascending; the first rung is the
#: "low" rung, well below the knee.  The knee on a 2-CPU host lies between
#: the last two rungs (saturated at 600/s, not at 300/s).
LADDER_RPS = (150.0, 300.0, 600.0)
#: Requests per rung at the nominal run length, 27 s — each enough for a
#: p99 with ten samples beyond it; the low rung runs longest because its
#: p50 and p90 are the gated latencies.  Scaled down for shorter runs.
RUNG_REQUESTS = (3000, 1500, 1000)
#: Fixed latency limit on a rung's p99.
LATENCY_LIMIT_MS = 250.0
#: Closed-loop HTTP callers.
HTTP_CLIENTS = 2


@dataclass
class Outcome:
    """What one workload run measured."""

    tally: Tally = field(default_factory=Tally)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.lines.append(line)


def _peak_rss_mb() -> float:
    """Sum of the peak resident set (VmHWM) of this process and its live
    children (shard worker processes) — an upper bound on the peak of
    the sum."""
    total_kb = 0
    for pid in ["self"] + [str(p.pid) for p in multiprocessing.active_children()]:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except FileNotFoundError:
            continue
    return total_kb / 1024.0


def _report_error(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _zero_layers() -> dict[str, float]:
    return {name: 0.0 for name, *_ in PER_LAYER}


# --------------------------------------------------------------------- fits
@dataclass
class FitRun:
    fit_s: float
    setup_s: float
    epochs: int
    mse: list[float]
    test_mse: float
    rss_mb: float
    batch_size: int
    layers: dict[str, float] | None = None


def _fit_once(spec: FitSpec, ds: Any, seed: int, probe: Probe | None) -> FitRun:
    kernel = LaplacianKernel(bandwidth=BANDWIDTH)
    trainer = (
        ShardedEigenPro2(kernel, n_shards=2, transport="process", seed=seed)
        if spec.sharded
        else EigenPro2(kernel, seed=seed)
    )
    try:
        with probe if probe is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            trainer.fit(
                ds.x_train, ds.y_train,
                epochs=spec.epoch_cap, stop_train_mse=spec.target,
            )
            fit_s = time.perf_counter() - t0
        rss = _peak_rss_mb()
    finally:
        if spec.sharded:
            trainer.close()
    history = trainer.history_
    run = FitRun(
        fit_s=fit_s,
        setup_s=fit_s - history.final.wall_time,
        epochs=len(history),
        mse=[float(v) for v in history.series("train_mse")],
        test_mse=float(trainer.mse(ds.x_test, ds.y_test)),
        rss_mb=rss,
        batch_size=int(trainer.batch_size_),
    )
    if probe is not None:
        run.layers = fit_layers(probe, fit_s)
        run.layers["core.epochs_to_target"] = float(run.epochs)
        run.layers["core.test_mse"] = run.test_mse
    return run


def sharded_mse_tolerance(n: int, steps: int) -> float:
    """Relative tolerance between sharded and serial per-epoch train MSE.

    The sharded trainer sums the per-shard partial predictions where the
    serial one runs a single GEMM: the same products accumulated in
    another order.  A length-``n`` float64 dot product in any order is
    within ``n * eps`` (relative to the sum of magnitudes) of the exact
    one, and to first order those per-step perturbations add up over the
    ``steps`` SGD steps of the fit.
    """
    return steps * n * float(np.finfo(np.float64).eps)


def _check_fit(spec: FitSpec, run: FitRun, reference: list[float] | None) -> str | None:
    """Why the fit failed its checks, or None."""
    if not all(np.isfinite(run.mse)) or not np.isfinite(run.test_mse):
        return "non-finite MSE"
    if run.mse[-1] > spec.target:
        return f"missed target {spec.target:g} within {spec.epoch_cap} epochs"
    if reference is not None:
        steps = run.epochs * -(-spec.n // run.batch_size)
        tol = sharded_mse_tolerance(spec.n, steps)
        rel = np.abs(np.subtract(run.mse, reference)) / np.abs(reference)
        if rel.max() > tol:
            return f"per-epoch MSE differs from serial by {rel.max():.3g} > {tol:.3g}"
    return None


def _serial_reference(spec: FitSpec, ds: Any, seed: int, epochs: int) -> list[float]:
    trainer = EigenPro2(LaplacianKernel(bandwidth=BANDWIDTH), seed=seed)
    trainer.fit(ds.x_train, ds.y_train, epochs=epochs)
    return [float(v) for v in trainer.history_.series("train_mse")]


def run_fit(spec: FitSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    """Fit repeatedly until the next fit would overrun ``seconds``.

    Untraced runs report the end-to-end metrics over their fits.  Traced
    runs alternate an untraced and a traced fit; the per-layer numbers
    are the traced fits' medians and ``observe.trace_overhead`` compares
    the two medians of ``fit_s``.
    """
    out = Outcome()
    ds = get_dataset("mnist", n_train=spec.n, n_test=N_TEST, seed=seed)
    plain: list[FitRun] = []
    traced: list[FitRun] = []
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for probe in ([None, Probe()] if trace else [None]):
            try:
                run = _fit_once(spec, ds, seed, probe)
            except Exception:
                _report_error("fit")
                out.tally.fail("fit raised")
                continue
            (plain if probe is None else traced).append(run)
        if time.perf_counter() + (time.perf_counter() - start) > end:
            break
    runs = plain + traced
    if not runs:
        return out
    reference = None
    if spec.sharded:
        try:
            reference = _serial_reference(spec, ds, seed, max(r.epochs for r in runs))
        except Exception:
            _report_error("serial reference fit")
            out.tally.fail("serial reference raised", len(runs))
            return out
    for run in runs:
        why = _check_fit(
            spec, run, None if reference is None else reference[: run.epochs]
        )
        if why is None:
            out.tally.ok()
        else:
            out.tally.fail(why)
            out.note(f"fit failed: {why}")
    if not plain:
        return out

    fit_s = float(np.median([r.fit_s for r in plain]))
    slowest = max(r.fit_s for r in plain)
    setup_s = float(np.median([r.setup_s for r in plain]))
    rows_per_s = float(np.median(
        [spec.n * r.epochs / (r.fit_s - r.setup_s) for r in plain]
    ))
    out.e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * fit_s,
        "latency_tail_ms": 1e3 * slowest,
        "throughput_per_s": rows_per_s,
        "peak_rss_mb": max(r.rss_mb for r in plain),
    }
    out.note(f"fit_s: p50 {fit_s:.4g} s, slowest {slowest:.4g} s, n={len(plain)} fits")
    out.note(f"setup_s: {setup_s:.4g} s (median of {len(plain)} fits)")
    out.note(f"epochs_to_target: {sorted({r.epochs for r in plain})} "
             f"(target {spec.target:g}, cap {spec.epoch_cap})")
    out.note(f"train_mse by epoch: {[f'{v:.4g}' for v in plain[0].mse]}")
    out.note(f"test_mse: {np.median([r.test_mse for r in plain]):.6g} (held-out, n={N_TEST})")
    if reference is not None:
        out.note(f"serial train_mse by epoch: {[f'{v:.4g}' for v in reference]}")
    if traced:
        layers = {
            key: float(np.median([r.layers[key] for r in traced]))
            for key in traced[0].layers
        }
        out.layers = _zero_layers() | layers
        traced_fit = float(np.median([r.fit_s for r in traced]))
        out.layers["observe.trace_overhead"] = traced_fit / fit_s - 1.0
        out.note(_fit_attribution(traced_fit, layers))
    return out


def _fit_attribution(fit_s: float, layers: dict[str, float]) -> str:
    parts = [
        ("select_parameters", layers["core.select_parameters_s"]),
        ("  nystrom_extension", layers["linalg.nystrom_extension_s"]),
        ("  estimate_beta", layers["core.estimate_beta_s"]),
        ("  select_q", layers["core.select_q_s"]),
        ("group_build", layers["shard.group_build_s"]),
        ("epochs", layers["core.epoch_s"]),
        ("  form_block (summed over workers)", layers["kernels.form_block_s"]),
        ("  gemm (summed over workers)", layers["core.gemm_s"]),
        ("  correction", layers["core.correction_s"]),
        ("  driver wait on workers", layers["shard.wait_s"]),
        ("monitor", layers["core.monitor_s"]),
        ("unattributed", layers["core.unattributed_s"]),
    ]
    rows = "\n".join(
        f"  {name:<36} {value:8.4f} s  {100 * value / fit_s:5.1f}%"
        for name, value in parts
    )
    return f"traced fit_s {fit_s:.4f} s, by layer:\n{rows}"


# ------------------------------------------------------------------ serving
@dataclass
class ServeInputs:
    """Seeded model and request pools for the serve workloads."""

    model: KernelModel
    single: np.ndarray  # (POOL_SINGLE, d) held-out rows
    multi: list[np.ndarray]  # POOL_MULTI blocks of held-out rows


def _serve_inputs(seed: int, multi_rows: int) -> ServeInputs:
    ds = get_dataset("mnist", n_train=SERVE_CENTERS, n_test=N_TEST, seed=seed)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((SERVE_CENTERS, ds.y_train.shape[1]))
    model = KernelModel(LaplacianKernel(bandwidth=BANDWIDTH), ds.x_train, weights)
    single = ds.x_test[rng.choice(N_TEST, POOL_SINGLE, replace=False)]
    multi = [
        ds.x_test[rng.choice(N_TEST, multi_rows, replace=False)]
        for _ in range(POOL_MULTI)
    ]
    return ServeInputs(model=model, single=single, multi=multi)


def _draw_requests(
    rng: np.random.Generator, n: int, mix: tuple, inputs: ServeInputs
) -> list[tuple[int, int]]:
    """``n`` requests as ``(rows, pool index)`` keys."""
    sizes = rng.choice([s for s, _ in mix], size=n, p=[p for _, p in mix])
    return [
        (int(s), int(rng.integers(POOL_SINGLE if s == 1 else POOL_MULTI)))
        for s in sizes
    ]


def _rows(inputs: ServeInputs, key: tuple[int, int]) -> np.ndarray:
    size, idx = key
    return inputs.single[idx : idx + 1] if size == 1 else inputs.multi[idx]


class BitwiseCheck:
    """Compares served values with a solo ``sharded_predict`` on the same
    group, computing the reference once per distinct input."""

    def __init__(self, group: Any, inputs: ServeInputs) -> None:
        self.group = group
        self.inputs = inputs
        self._ref: dict[tuple[int, int], np.ndarray] = {}

    def matches(self, key: tuple[int, int], values: np.ndarray) -> bool:
        ref = self._ref.get(key)
        if ref is None:
            ref = np.asarray(sharded_predict(self.group, _rows(self.inputs, key)))
            self._ref[key] = ref
        values = np.asarray(values)
        return (
            values.shape == ref.shape
            and values.dtype == ref.dtype
            and values.tobytes() == ref.tobytes()
        )


def _timed_setups(build: Callable[[], Any], close: Callable[[Any], None]) -> tuple[float, Any]:
    """Build :data:`SETUPS` times; return the median build time and the
    last (still open) instance."""
    times = []
    live = None
    for i in range(SETUPS):
        t0 = time.perf_counter()
        obj = build()
        times.append(time.perf_counter() - t0)
        if i + 1 < SETUPS:
            close(obj)
        else:
            live = obj
    return float(np.median(times)), live


def _inproc_server(inputs: ServeInputs) -> ModelServer:
    server = ModelServer(inputs.model, g=SERVE_G, transport="thread")
    if LocalClient(server).health()["status"] != "ok":
        raise RuntimeError("server did not report healthy")
    return server


@dataclass
class LadderResult:
    rungs: list[Rung]
    windows: list[tuple[float, float]]
    late_ms: np.ndarray


def _run_ladder(
    server: ModelServer, inputs: ServeInputs, rng: np.random.Generator,
    counts: list[int], tally: Tally, check: BitwiseCheck,
) -> LadderResult:
    rungs: list[Rung] = []
    windows: list[tuple[float, float]] = []
    late: list[np.ndarray] = []
    for rate, per_rung in zip(LADDER_RPS, counts):
        keys = _draw_requests(rng, per_rung, INPROC_MIX, inputs)
        payloads = [_rows(inputs, k) for k in keys]
        loop = OpenLoop(poisson_schedule(rate, per_rung, rng))
        futures: list[Any] = []

        def submit(i: int) -> None:
            fut = server.submit(payloads[i])
            fut.add_done_callback(lambda _f, i=i: loop.complete(i))
            futures.append(fut)

        loop.run(submit)
        ok = np.zeros(per_rung, dtype=bool)
        for i, fut in enumerate(futures):
            try:
                values = fut.result(timeout=60)
            except Exception as exc:  # refused, shed or failed tick
                tally.fail(f"request error: {type(exc).__name__}")
                continue
            if check.matches(keys[i], values):
                tally.ok()
                ok[i] = True
            else:
                tally.fail("served values differ from solo sharded_predict")
        lat_ms = 1e3 * loop.latencies_s()
        # A failed request misses any latency limit.
        lat_ms[~ok] = np.inf
        summary = summarize(lat_ms)
        backlog = backlog_grows(
            loop.due_s[ok], lat_ms[ok] / 1e3, LATENCY_LIMIT_MS / 1e3
        )
        span_s = np.nanmax(loop.done_s) - loop.due_s[0]
        rung = Rung(
            rate=rate,
            summary=summary,
            backlog=backlog,
            achieved_rps=per_rung / span_s,
            ok=rung_ok(summary, backlog, LATENCY_LIMIT_MS),
        )
        rungs.append(rung)
        windows.append((loop.start_s, float(np.nanmax(loop.done_s))))
        late.append(1e3 * loop.late_s)
        if not rung.ok:
            break
    return LadderResult(rungs, windows, np.concatenate(late))


def _ladder_lines(out: Outcome, ladder: LadderResult) -> None:
    out.note(
        f"rate ladder {LADDER_RPS} req/s, tail limit {LATENCY_LIMIT_MS:g} ms, "
        "latency from due time, stops at the first failing rung"
    )
    for rung in ladder.rungs:
        out.note(
            f"  rung {rung.rate:g}/s: {rung.summary.describe('ms')}, "
            f"achieved {rung.achieved_rps:.1f}/s, backlog "
            f"{'grows' if rung.backlog else 'bounded'}, "
            f"{'ok' if rung.ok else 'FAILS'}"
        )


def _percentile_or_zero(values_ms: list[float], p: float) -> float:
    return float(np.percentile(values_ms, p)) if values_ms else 0.0


def _warm_up(server: ModelServer, inputs: ServeInputs) -> None:
    """100 sequential 1-row requests, untimed and unchecked."""
    for i in range(100):
        server.predict(inputs.single[i % POOL_SINGLE : i % POOL_SINGLE + 1])


def run_serve_inproc(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    inputs = _serve_inputs(seed, multi_rows=16)
    rng = np.random.default_rng([seed, 1])
    nominal = sum(n / r for n, r in zip(RUNG_REQUESTS, LADDER_RPS))
    scale = min(1.0, 0.9 * seconds / nominal)
    counts = [max(100, int(n * scale)) for n in RUNG_REQUESTS]

    setup_s, server = _timed_setups(lambda: _inproc_server(inputs), lambda s: s.close())
    try:
        _warm_up(server, inputs)
        ladder = _run_ladder(
            server, inputs, rng, counts, out.tally, BitwiseCheck(server.group, inputs)
        )
    finally:
        server.close()
    rss = _peak_rss_mb()
    _ladder_lines(out, ladder)
    low = ladder.rungs[0]
    high = choose_max_rate(ladder.rungs)
    if high is None:
        out.note("no rung met the limit: high-rung figures are the low rung's")
    top = high if high is not None else low
    out.e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": low.summary.p50,
        "latency_tail_ms": low.summary.p90,
        "throughput_per_s": top.achieved_rps,
        "peak_rss_mb": rss,
    }
    out.note(f"setup_s: {setup_s:.4g} s (median of {SETUPS} server builds)")
    out.note(f"p50_ms.low {low.summary.p50:.4g} ms, p90_ms.low {low.summary.p90:.4g} ms, "
             f"p{low.summary.tail_p:g}_ms.low {low.summary.tail:.4g} ms "
             f"(n={low.summary.n}, {low.rate:g}/s)")
    out.note(f"p50_ms.high {top.summary.p50:.4g} ms, p{top.summary.tail_p:g}_ms.high "
             f"{top.summary.tail:.4g} ms (n={top.summary.n}, {top.rate:g}/s)")
    out.note(f"max_rate_ok_rps {top.rate:g} (achieved {top.achieved_rps:.1f}/s)")
    out.note(f"loadgen late p99 {np.percentile(ladder.late_ms, 99):.3g} ms")
    if not trace:
        return out

    probe = Probe()
    with probe:
        server = _inproc_server(inputs)
        try:
            _warm_up(server, inputs)
            traced = _run_ladder(
                server, inputs, np.random.default_rng([seed, 1]), counts,
                out.tally, BitwiseCheck(server.group, inputs),
            )
        finally:
            server.close()
    _ladder_lines(out, traced)
    t_high = choose_max_rate(traced.rungs) or traced.rungs[0]
    hi_window = traced.windows[traced.rungs.index(t_high)]
    lo_window = traced.windows[0]
    queue_ms = [1e3 * ev.duration_s for ev in probe.events("serve/queue", *hi_window)]
    ticks_hi = {ev.start_s: ev for ev in probe.events("serve/kernel", *hi_window)}
    ticks_lo = {ev.start_s: ev for ev in probe.events("serve/kernel", *lo_window)}
    out.layers = _zero_layers() | {
        "serve.queue_ms.p50": _percentile_or_zero(queue_ms, 50),
        "serve.queue_ms.p99": _percentile_or_zero(queue_ms, 99),
        "serve.requests_per_tick": float(np.mean(
            [ev.attrs["requests"] for ev in ticks_hi.values()]
        )),
        "serve.kernel_ms.p50": _percentile_or_zero(
            [1e3 * ev.duration_s for ev in ticks_lo.values()], 50
        ),
        "kernels.ops": float(server.meter.total()),
        "shard.allreduce_calls": float(probe.allreduce_calls),
        "shard.allreduce_bytes": float(probe.allreduce_bytes),
        "shard.group_build_s": probe.total_s("bench/group_build"),
        "shard.wait_s": probe.total_s("bench/shard_wait"),
        "observe.trace_overhead": traced.rungs[0].summary.p50 / low.summary.p50 - 1.0,
    }
    out.note(f"trace overhead on p50_ms.low: {100 * out.layers['observe.trace_overhead']:+.1f}%")
    return out


@dataclass
class HttpSample:
    key: tuple[int, int]
    latency_s: float
    engine_s: float
    values: np.ndarray


def _http_server(inputs: ServeInputs) -> tuple[ModelServer, ServeHTTPServer]:
    engine = ModelServer(inputs.model, g=SERVE_G, transport="thread")
    front = ServeHTTPServer(engine, owns_server=True)
    if HttpClient(front.url).health().get("status") != "ok":
        raise RuntimeError("HTTP front end did not report healthy")
    return engine, front


def _closed_loop(
    url: str, inputs: ServeInputs, seed: int, seconds: float,
    enter: Callable[[], Any],
) -> tuple[list[HttpSample], list[str], float]:
    """Run :data:`HTTP_CLIENTS` closed-loop callers for ``seconds``."""
    samples: list[list[HttpSample]] = [[] for _ in range(HTTP_CLIENTS)]
    errors: list[list[str]] = [[] for _ in range(HTTP_CLIENTS)]
    start = time.perf_counter()
    end = start + seconds

    def caller(c: int) -> None:
        client = HttpClient(url)
        rng = np.random.default_rng([seed, 2, c])
        with enter():
            while time.perf_counter() < end:
                key = _draw_requests(rng, 1, HTTP_MIX, inputs)[0]
                t0 = time.perf_counter()
                try:
                    resp = client.predict_request(_rows(inputs, key))
                except Exception as exc:
                    errors[c].append(type(exc).__name__)
                    continue
                samples[c].append(HttpSample(
                    key, time.perf_counter() - t0, resp.queue_s + resp.batch_s,
                    resp.values,
                ))

    threads = [threading.Thread(target=caller, args=(c,)) for c in range(HTTP_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    return [s for per in samples for s in per], [e for per in errors for e in per], elapsed


@dataclass
class HttpLoad:
    """What the load process measured."""

    samples: list[HttpSample]
    errors: list[str]
    elapsed: float
    connects: int
    request_bytes: list[int]


def http_load_main(url: str, seed: int, seconds: float, trace: bool) -> None:
    """Entry point of the load process: warm up, say ``ready`` on stdout,
    wait for ``go`` on stdin, run the closed loop and write a pickled
    :class:`HttpLoad` to stdout.  In a traced run the client side is
    probed here (connections, request bytes)."""
    channel = sys.stdout.buffer
    sys.stdout = sys.stderr  # stdout carries only the protocol
    inputs = _serve_inputs(seed, multi_rows=HTTP_MIX[1][0])
    client = HttpClient(url)
    for i in range(20):  # warm-up, untimed and unchecked
        client.predict(inputs.single[i : i + 1])
    probe = Probe() if trace else None
    with probe if probe is not None else contextlib.nullcontext():
        channel.write(b"ready\n")
        channel.flush()
        if sys.stdin.readline().strip() != "go":
            return
        samples, errors, elapsed = _closed_loop(
            url, inputs, seed, seconds,
            probe.scope if probe is not None else contextlib.nullcontext,
        )
    channel.write(pickle.dumps(HttpLoad(
        samples, errors, elapsed,
        probe.connects if probe is not None else 0,
        probe.request_bytes if probe is not None else [],
    )))
    channel.flush()


def _http_pass(
    inputs: ServeInputs, seed: int, seconds: float, out: Outcome,
    engine: ModelServer, url: str, trace: bool,
) -> HttpLoad:
    """Drive the HTTP front end from a separate load process — clients
    never share the server's interpreter lock — then check every
    response against a solo ``sharded_predict``.  The load process is a
    plain subprocess, waited for on every path out of here."""
    code = (
        "from perfbench.workloads import http_load_main; "
        f"http_load_main({url!r}, {seed!r}, {seconds!r}, {trace!r})"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        if not ready or proc.stdout.readline() != b"ready\n":
            raise RuntimeError("HTTP load process did not start")
        data, _ = proc.communicate(b"go\n", timeout=seconds + 120)
        if proc.returncode != 0:
            raise RuntimeError(f"HTTP load process exited with {proc.returncode}")
        load = pickle.loads(data)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    for err in load.errors:
        out.tally.fail(f"request error: {err}")
    check = BitwiseCheck(engine.group, inputs)
    for s in load.samples:
        if check.matches(s.key, s.values):
            out.tally.ok()
        else:
            out.tally.fail("served values differ from solo sharded_predict")
    return load


def _by_size(
    samples: list[HttpSample], size: int, what: Callable[[HttpSample], float]
) -> list[float]:
    """``what`` of each ``size``-row request, in ms."""
    return [1e3 * what(s) for s in samples if s.key[0] == size]


def run_serve_http(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    inputs = _serve_inputs(seed, multi_rows=32)
    large = HTTP_MIX[1][0]
    t0 = time.perf_counter()
    setup_s, (engine, front) = _timed_setups(
        lambda: _http_server(inputs), lambda pair: pair[1].close()
    )
    window = max(1.0, seconds - (time.perf_counter() - t0))
    if trace:
        window /= 2
    try:
        load = _http_pass(inputs, seed, window, out, engine, front.url, trace=False)
    finally:
        front.close()
    samples, elapsed = load.samples, load.elapsed
    rss = _peak_rss_mb()
    small = summarize(_by_size(samples, 1, lambda s: s.latency_s))
    big = summarize(_by_size(samples, large, lambda s: s.latency_s))
    out.e2e = {
        "setup_s": setup_s,
        "latency_p50_ms": small.p50,
        "latency_tail_ms": small.p90,
        "throughput_per_s": len(samples) / elapsed,
        "peak_rss_mb": rss,
    }
    out.note(f"closed loop, {HTTP_CLIENTS} HttpClient callers in a load process, "
             f"{elapsed:.1f} s, {len(samples)} requests")
    out.note(f"setup_s: {setup_s:.4g} s (median of {SETUPS} server + HTTP builds)")
    out.note(f"1-row: {small.describe('ms')} (p50_ms.small, p99_ms.small)")
    out.note(f"{large}-row: {big.describe('ms')} (p50_ms.large)")
    out.note(f"throughput_rps {len(samples) / elapsed:.1f}")
    if not trace:
        return out

    probe = Probe()
    with probe:
        engine, front = _http_server(inputs)
        try:
            n_queue = len(engine.metrics.histogram_values("serve/queue_s"))
            t_load = _http_pass(inputs, seed, window, out, engine, front.url, trace=True)
            ticks = engine.metrics.histogram_values("serve/batch_requests")
            kernel_ms = [1e3 * v for v in engine.metrics.histogram_values("serve/kernel_s")]
            queue_ms = [1e3 * v for v in engine.metrics.histogram_values("serve/queue_s")[n_queue:]]
            ops = engine.meter.total()
        finally:
            front.close()
    t_samples = t_load.samples
    t_small = summarize(_by_size(t_samples, 1, lambda s: s.latency_s))
    outside = lambda s: s.latency_s - s.engine_s  # noqa: E731
    out.layers = _zero_layers() | {
        "http.outside_engine_ms.p50.small": float(np.median(_by_size(t_samples, 1, outside))),
        "http.outside_engine_ms.p50.large": float(np.median(_by_size(t_samples, large, outside))),
        "http.connects_per_request": t_load.connects / len(t_load.request_bytes),
        "http.request_bytes.mean": float(np.mean(t_load.request_bytes)),
        "serve.queue_ms.p50": _percentile_or_zero(queue_ms, 50),
        "serve.queue_ms.p99": _percentile_or_zero(queue_ms, 99),
        "serve.requests_per_tick": float(np.mean(ticks)),
        "serve.kernel_ms.p50": _percentile_or_zero(kernel_ms, 50),
        "kernels.ops": float(ops),
        "shard.allreduce_calls": float(probe.allreduce_calls),
        "shard.allreduce_bytes": float(probe.allreduce_bytes),
        "shard.group_build_s": probe.total_s("bench/group_build"),
        "shard.wait_s": probe.total_s("bench/shard_wait"),
        "observe.trace_overhead": t_small.p50 / small.p50 - 1.0,
    }
    out.note(f"trace overhead on p50_ms.small: {100 * out.layers['observe.trace_overhead']:+.1f}%")
    return out


#: The benchmark's workloads, as listed in ``BENCHMARK.json``.
WORKLOADS: dict[str, Callable[[int, float, bool], Outcome]] = {
    "fit-small": lambda seed, seconds, trace: run_fit(FIT_SMALL, seed, seconds, trace),
    "serve-http": run_serve_http,
}

#: Runnable by name but not part of the benchmark (see the module
#: docstring): ``fit-sharded`` misses its target on some seeds, and
#: ``serve-inproc``'s low-load latencies drift with host contention by
#: more than any bound the benchmark may set.
EXTRA_WORKLOADS: dict[str, Callable[[int, float, bool], Outcome]] = {
    "fit-sharded": lambda seed, seconds, trace: run_fit(FIT_SHARDED, seed, seconds, trace),
    "serve-inproc": run_serve_inproc,
}
