"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root repeats these tables (with the
end-to-end bounds); ``perfbench/tests/test_perfbench.py`` keeps the two
in step.

End-to-end metrics are reported by every workload, measured with tracing
off.  Each names the same user-visible quantity on every workload, read
from that workload's own unit of work — a fit to target on ``fit-*``, a
request on ``serve-*``:

- ``setup_s``: on a fit, the time before its first epoch starts
  (``fit_s`` minus the last epoch record's ``wall_time``); on a serve
  workload, building the server (and binding HTTP) until it reports
  healthy.  Median of the run's set-ups.
- ``latency_p50_ms``: median ``fit_s``; ``p50_ms.small`` (1-row
  requests) on serve-http (``p50_ms.low``, p50 at the low rung, on the
  runnable serve-inproc).
- ``latency_tail_ms``: the slowest fit of the run; p90 of 1-row
  requests on serve-http (p90 at the low rung on serve-inproc).  The p99
  of the percentile rule is printed in the report lines; it is not
  gated, because on a 2-CPU host it moves by 30-200% from run to run.
- ``throughput_per_s``: training rows per second of the epoch loop,
  ``n * epochs / (fit_s - setup_s)``; completions per second of the
  closed loop (``throughput_rps``) on serve-http (on serve-inproc,
  completions per second at the highest rung that meets the limit,
  ``max_rate_ok_rps``).
- ``peak_rss_mb``: peak resident memory of the workload's processes,
  shard workers included.

The remaining workload figures (``fit_s``, ``epochs_to_target``,
``test_mse``, ``p99_ms.low``, ``p50_ms.high``, ``p99_ms.high``,
``p50_ms.large``, ``failed_frac``) are printed by name in the report
lines; failures are the result's ``failed`` out of ``attempted``.

Per-layer metrics come from the traced run (:mod:`perfbench.layers`).  A
layer a workload does not exercise reports 0.
"""

from __future__ import annotations

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better) — each listed with the end-to-end metric it
#: should move and the workload it moves it on.
PER_LAYER = (
    # -> setup_s and latency_p50_ms (fit_s) on fit-small.
    ("core.select_parameters_s", "s", "lower"),
    ("linalg.nystrom_extension_s", "s", "lower"),
    ("core.estimate_beta_s", "s", "lower"),
    ("core.select_q_s", "s", "lower"),
    # -> latency_p50_ms and throughput_per_s on fit-small (the epoch loop;
    # the bulk of fit_s on the runnable fit-sharded).
    ("core.epoch_s", "s", "lower"),
    ("kernels.form_block_s", "s", "lower"),
    ("kernels.form_block_calls", "count", "lower"),
    ("core.gemm_s", "s", "lower"),
    ("core.correction_s", "s", "lower"),
    # -> latency_p50_ms (fit_s) on fit-small.
    ("core.monitor_s", "s", "lower"),
    ("core.unattributed_s", "s", "lower"),
    ("core.epochs_to_target", "count", "lower"),
    ("core.test_mse", "mse", "lower"),
    ("kernels.ops", "count", "lower"),
    # -> latency_p50_ms on serve-http (the dispatcher waiting on shard
    # workers, and their all-reduce); zero on fit-small.
    ("shard.wait_s", "s", "lower"),
    ("shard.allreduce_calls", "count", "lower"),
    ("shard.allreduce_bytes", "bytes", "lower"),
    # -> setup_s on serve-http.
    ("shard.group_build_s", "s", "lower"),
    # -> latency_p50_ms and throughput_per_s on serve-http (p99_ms.high and
    # max_rate_ok_rps on the runnable serve-inproc).
    ("serve.queue_ms.p50", "ms", "lower"),
    ("serve.queue_ms.p99", "ms", "lower"),
    ("serve.requests_per_tick", "count", "higher"),
    # -> latency_p50_ms on serve-http (p50_ms.low on serve-inproc).
    ("serve.kernel_ms.p50", "ms", "lower"),
    # -> latency_p50_ms (p50_ms.small) and p50_ms.large on serve-http.
    ("http.outside_engine_ms.p50.small", "ms", "lower"),
    ("http.outside_engine_ms.p50.large", "ms", "lower"),
    ("http.connects_per_request", "count", "lower"),
    ("http.request_bytes.mean", "bytes", "lower"),
    # Traced over untraced headline (latency_p50_ms), minus one.
    ("observe.trace_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
