"""Multi-GPU scaling study — the paper's Section-6 future work, executed.

Not a table in the paper; an extension it explicitly calls for ("going
beyond ... using multi-GPU setups is the next natural step").  Because
EigenPro 2.0 consumes the device only through the ``(C_G, S_G)``
abstraction, handing it the aggregate spec from
:func:`repro.device.cluster.multi_gpu` adapts the kernel to the cluster
with no algorithm changes:

- ``m_max`` grows ~linearly with the device count ``g`` (until clamped
  by ``n``), so Step 2 flattens more of the spectrum;
- simulated epoch time at the adapted batch drops until all-reduce
  latency bounds it — the realistic scaling knee.

:func:`run_shard_validation` closes the MLSYSIM-style loop on that
model: the same ``(n, m, g)`` iteration runs through the cluster cost
model *and* the executable shard engine (:mod:`repro.shard`), and the
harness reports modelled against measured per-iteration wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.eigenpro2 import select_parameters
from repro.core.resource import max_device_batch_size
from repro.data import get_dataset
from repro.device.cluster import Interconnect, allreduce_time, multi_gpu
from repro.device.presets import titan_xp
from repro.device.simulator import SimulatedDevice
from repro.device.spec import DeviceSpec
from repro.exceptions import ConfigurationError
from repro.experiments.harness import ExperimentResult, PaperClaim
from repro.kernels import GaussianKernel

__all__ = [
    "ClusterScalingConfig",
    "run_cluster_scaling",
    "ShardValidationConfig",
    "run_shard_validation",
    "FailureInjectionConfig",
    "run_failure_injection",
    "failure_injection_supported",
]


@dataclass
class ClusterScalingConfig:
    dataset: str = "timit"
    n_train: int = 2000
    n_paper: float = 1.1e6
    device_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    bandwidth: float = 15.0
    # Ethernet-class interconnect by default — slow enough that the
    # network-bound regime appears within the device sweep (with NVLink
    # the efficiency stays ~99% through g=16, which is also instructive
    # but hides the knee the model exists to expose).
    interconnect: Interconnect = Interconnect(
        latency_s=1e-3, bandwidth_scalars_per_s=2.5e8
    )
    seed: int = 0


def run_cluster_scaling(
    cfg: ClusterScalingConfig | None = None,
) -> ExperimentResult:
    """Sweep simulated GPU counts: m_max scaling, epoch times and
    parallel efficiency under the all-reduce network model."""
    cfg = cfg or ClusterScalingConfig()
    ds = get_dataset(
        cfg.dataset, n_train=cfg.n_train, n_test=50, seed=cfg.seed
    )
    result = ExperimentResult(
        name="cluster-scaling",
        title="EigenPro 2.0 adapting to multi-GPU clusters (Section-6 extension)",
        notes=(
            "Paper-scale workload dimensions; aggregate device model per "
            "repro.device.cluster (ring all-reduce alpha-beta network)."
        ),
    )
    # Paper-scale workload for the m_max / epoch-time rows.
    n_p, d_p, l_p = int(cfg.n_paper), ds.d, ds.l
    base = titan_xp().spec
    m_maxes, epoch_times = [], []
    for g in cfg.device_counts:
        cluster = multi_gpu(
            base, g, interconnect=cfg.interconnect,
            sync_payload_scalars=1000.0 * l_p,
        )
        analysis = max_device_batch_size(cluster, n_p, d_p, l_p)
        m = analysis.m_max
        iters = -(-n_p // m)
        ops = (d_p + l_p) * m * n_p
        epoch = cluster.spec.epoch_time(ops, iters)
        m_maxes.append(m)
        epoch_times.append(epoch)
        result.add_row(
            devices=g,
            m_max=m,
            bound="compute" if analysis.compute_bound else "memory",
            epoch_time_s=round(epoch, 3),
            speedup_vs_1=round(epoch_times[0] / epoch, 2),
            efficiency_pct=round(100 * epoch_times[0] / epoch / g, 1),
        )

    # Verify the *selection machinery* runs against a cluster spec too
    # (reduced n; scaled cluster).
    scaled_cluster = multi_gpu(
        base.scaled(cfg.n_train / cfg.n_paper), 4,
        interconnect=cfg.interconnect,
    )
    params, _, _ = select_parameters(
        GaussianKernel(bandwidth=cfg.bandwidth), ds.x_train, ds.l,
        scaled_cluster, seed=cfg.seed,
    )
    single = SimulatedDevice(base.scaled(cfg.n_train / cfg.n_paper))
    params_single, _, _ = select_parameters(
        GaussianKernel(bandwidth=cfg.bandwidth), ds.x_train, ds.l,
        single, seed=cfg.seed,
    )

    result.add_claim(
        PaperClaim(
            claim_id="cluster/m-max-scales",
            description="Aggregate capacity raises m_max ~linearly in g",
            paper="(Section 6: multi-GPU as the natural next step)",
            measured=(
                "m_max per g: "
                + ", ".join(
                    f"g={g}: {m}" for g, m in zip(cfg.device_counts, m_maxes)
                )
            ),
            holds=all(
                b >= 1.7 * a
                for a, b in zip(m_maxes, m_maxes[1:])
                if a < n_p  # until clamped by the dataset
            ),
        )
    )
    eff = [
        epoch_times[0] / t / g
        for g, t in zip(cfg.device_counts, epoch_times)
    ]
    result.add_claim(
        PaperClaim(
            claim_id="cluster/near-linear-until-network",
            description=(
                "Epoch-time scaling is near-linear for small g and degrades "
                "as all-reduce costs bind"
            ),
            paper="network bandwidth must be taken into account (Section 2)",
            measured=(
                "efficiency per g: "
                + ", ".join(
                    f"g={g}: {100 * e:.0f}%"
                    for g, e in zip(cfg.device_counts, eff)
                )
            ),
            holds=eff[1] > 0.7 and eff[-1] <= eff[1] + 1e-9,
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="cluster/no-code-changes",
            description=(
                "Parameter selection adapts to the cluster through the "
                "abstraction alone (larger batch than single-GPU)"
            ),
            paper="(design property of the resource abstraction)",
            measured=(
                f"batch: single={params_single.batch_size}, "
                f"4-GPU cluster={params.batch_size}"
            ),
            holds=params.batch_size >= params_single.batch_size,
        )
    )
    return result


@dataclass
class ShardValidationConfig:
    """Workload dimensions for the simulator-vs-engine validation."""

    n: int = 6000
    d: int = 24
    l: int = 4
    m: int = 256
    shard_counts: tuple[int, ...] = (1, 2, 4)
    n_iterations: int = 15
    warmup: int = 3
    bandwidth: float = 4.0
    #: Which shard transport executes the engine side of the loop — any
    #: name in :func:`repro.shard.transport.registered_transports`.
    transport: str = "thread"
    #: Network model for the modelled side; ``None`` asks the transport
    #: class for its link name (host memcpy for threads, IPC for
    #: processes, gloo/NCCL for torchdist) and looks it up in
    #: :func:`repro.device.cluster.transport_interconnect`.
    interconnect: Interconnect | None = None
    seed: int = 0

    def resolved_interconnect(self) -> Interconnect:
        from repro.device.cluster import transport_interconnect
        from repro.shard.transport import resolve_transport

        if self.interconnect is not None:
            return self.interconnect
        return transport_interconnect(
            resolve_transport(self.transport).link_name()
        )


def _median_seconds(fn, n_iterations: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(n_iterations):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def run_shard_validation(
    cfg: ShardValidationConfig | None = None,
) -> ExperimentResult:
    """Run the same ``(n, m, g)`` training iteration through the cluster
    cost model and the executable shard engine; report modelled vs
    measured per-iteration time.

    The per-shard device spec is *calibrated* from the measured ``g = 1``
    run (throughput = modelled ops / measured seconds), so the
    single-shard row is the calibration anchor and the multi-shard rows
    test what the alpha-beta cluster composition predicts about real
    thread-parallel execution — the MLSYSIM-style simulator-vs-hardware
    loop at reproduction scale.
    """
    from repro.shard import ShardGroup, sharded_kernel_matvec

    cfg = cfg or ShardValidationConfig()
    interconnect = cfg.resolved_interconnect()
    rng = np.random.default_rng(cfg.seed)
    centers = rng.standard_normal((cfg.n, cfg.d))
    weights = rng.standard_normal((cfg.n, cfg.l))
    batch = rng.standard_normal((cfg.m, cfg.d))
    kernel = GaussianKernel(bandwidth=cfg.bandwidth)
    # The paper's per-iteration cost model: (d + l) * m * n operations.
    ops = (cfg.d + cfg.l) * cfg.m * cfg.n

    suffix = "" if cfg.transport == "thread" else f"-{cfg.transport}"
    result = ExperimentResult(
        name=f"shard-validation{suffix}",
        title=(
            "Cluster cost model vs executable shard engine "
            f"({cfg.transport} transport; modelled vs measured "
            "per-iteration time)"
        ),
        notes=(
            f"workload: n={cfg.n}, d={cfg.d}, l={cfg.l}, m={cfg.m}; "
            "per-shard spec calibrated from the measured g=1 run; "
            "multi-shard rows compare the multi_gpu() composition — "
            f"with the '{cfg.transport}' transport's link model "
            f"(latency {interconnect.latency_s:g}s) — against "
            f"{cfg.transport}-parallel NumPy shards."
        ),
    )

    measured: dict[int, float] = {}
    for g in cfg.shard_counts:
        with ShardGroup.build(
            centers, weights, g=g, kernel=kernel, transport=cfg.transport
        ) as group:
            measured[g] = _median_seconds(
                lambda: sharded_kernel_matvec(kernel, batch, group),
                cfg.n_iterations,
                cfg.warmup,
            )

    g1 = cfg.shard_counts[0]
    base = DeviceSpec(
        name="host-calibrated",
        parallel_capacity=0.0,
        throughput=ops / measured[g1] / max(g1, 1),
        memory_scalars=math.inf,
    )
    ratios = {}
    for g in cfg.shard_counts:
        cluster = multi_gpu(
            base,
            g,
            interconnect=interconnect,
            sync_payload_scalars=float(cfg.m * cfg.l),
        )
        modelled = cluster.spec.iteration_time(ops)
        ratios[g] = modelled / measured[g]
        result.add_row(
            transport=cfg.transport,
            shards=g,
            ops_per_iter=ops,
            modelled_ms=round(1e3 * modelled, 3),
            measured_ms=round(1e3 * measured[g], 3),
            model_over_measured=round(ratios[g], 3),
            measured_speedup_vs_1=round(measured[g1] / measured[g], 2),
            allreduce_us=round(
                1e6
                * allreduce_time(interconnect, g, float(cfg.m * cfg.l)),
                1,
            ),
        )

    result.add_claim(
        PaperClaim(
            claim_id="shard/calibration-anchor",
            description=(
                "The calibrated per-shard spec reproduces the measured "
                "single-shard iteration time"
            ),
            paper="(MLSYSIM-style simulator calibration; PAPERS.md)",
            measured=f"g={g1}: model/measured = {ratios[g1]:.3f}",
            holds=0.5 <= ratios[g1] <= 2.0,
        )
    )
    multi = [g for g in cfg.shard_counts if g > 1]
    result.add_claim(
        PaperClaim(
            claim_id="shard/model-vs-engine",
            description=(
                "Multi-shard prediction of the alpha-beta cluster model "
                f"vs the executable engine on the '{cfg.transport}' "
                "transport (informational: shards share host memory "
                "bandwidth — and, for threads, the GIL — so measured "
                "scaling lags the ideal model)"
            ),
            paper="network bandwidth must be taken into account (Section 2)",
            measured=", ".join(
                f"g={g}: model/measured={ratios[g]:.2f}" for g in multi
            )
            or "no multi-shard configurations",
            holds=None,
        )
    )
    return result


# ---------------------------------------------------------------------------
# Failure injection: kill a worker mid-fit, measure the elastic recovery.
# ---------------------------------------------------------------------------


@dataclass
class FailureInjectionConfig:
    """Workload and injection policy for the recovery benchmark.

    A reference fit and an injected fit run the *same* workload with the
    same seed; a watcher thread kills the last shard's worker process as
    soon as the epoch-``kill_epoch`` anchor checkpoint exists, so the
    failure always lands inside an epoch the trainer can recover (the
    anchor bounds replay to within that epoch).
    """

    n: int = 2_000
    d: int = 12
    l: int = 3
    m: int = 64
    s: int = 200
    g: int = 2
    epochs: int = 3
    checkpoint_every: int = 4
    #: Kill once the anchor checkpoint of this epoch has been taken
    #: (>= 1 so a full epoch of steady-state steps precedes the kill).
    kill_epoch: int = 1
    #: Give up on injecting (and report the failure-free fit) after this
    #: many seconds — bounds the watcher if the fit outruns it.
    kill_timeout_s: float = 120.0
    #: Transport to inject into; must be process-backed (an executor
    #: owning a killable worker process): see
    #: :func:`failure_injection_supported`.
    transport: str = "process"
    #: Extra transport constructor kwargs for *both* fits (e.g.
    #: ``{"timeout_s": 20.0}`` to bound torchdist dead-peer collectives).
    transport_options: dict = field(default_factory=dict)
    bandwidth: float = 4.0
    seed: int = 0
    #: Documented recovery exactness bound: max |recovered - reference|
    #: may not exceed this fraction of the reference weight scale (replay
    #: is exact; only the collective's association order over the
    #: shrunken plan differs).
    weight_tolerance: float = 1e-6


def failure_injection_supported(transport: str) -> bool:
    """True when ``transport`` is available *and* process-backed, i.e.
    its executors own worker processes the injector can kill."""
    from repro.shard.transport import (
        ProcessTransport,
        resolve_transport,
        transport_available,
    )

    if not transport_available(transport):
        return False
    return issubclass(resolve_transport(transport), ProcessTransport)


def _make_problem(cfg: FailureInjectionConfig):
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((cfg.n, cfg.d))
    proj = rng.standard_normal((cfg.d, cfg.l))
    y = np.tanh(x @ proj / np.sqrt(cfg.d))
    return x, y


def _fit_once(cfg: FailureInjectionConfig, *, injector=None):
    """One sharded fit of the config's workload; returns
    ``(trainer_state, wall_seconds)`` with the trainer closed."""
    from repro.backend import to_numpy
    from repro.shard import ShardedEigenPro2

    x, y = _make_problem(cfg)
    trainer = ShardedEigenPro2(
        GaussianKernel(bandwidth=cfg.bandwidth),
        n_shards=cfg.g,
        transport=cfg.transport,
        transport_options=dict(cfg.transport_options),
        checkpoint_every=cfg.checkpoint_every,
        s=cfg.s,
        batch_size=cfg.m,
        seed=cfg.seed,
        damping=0.5,
    )
    try:
        watcher = injector and injector(trainer)
        t0 = time.perf_counter()
        trainer.fit(x, y, epochs=cfg.epochs)
        wall = time.perf_counter() - t0
        if watcher is not None:
            watcher.join(timeout=cfg.kill_timeout_s)
        state = {
            "weights": np.array(to_numpy(trainer._alpha)),
            "recovery_log": list(trainer.recovery_log_),
            "final_g": None
            if trainer.shard_group_ is None
            else trainer.shard_group_.g,
        }
    finally:
        trainer.close()
    return state, wall


def _kill_watcher(cfg: FailureInjectionConfig):
    """Injector factory: returns a started daemon thread that kills the
    last shard's worker process once the epoch-``kill_epoch`` anchor
    checkpoint has been taken (never earlier — recovery must have an
    in-epoch checkpoint to restore)."""
    import threading

    def start(trainer):
        def run():
            deadline = time.perf_counter() + cfg.kill_timeout_s
            while time.perf_counter() < deadline:
                group = trainer.shard_group_
                ckpt = trainer.last_checkpoint_
                if (
                    group is not None
                    and ckpt is not None
                    and ckpt.epoch >= cfg.kill_epoch
                    and not trainer.recovery_log_
                ):
                    try:
                        proc = group.executors[-1].process
                        if proc.is_alive():
                            proc.kill()
                            return
                    except (AttributeError, IndexError):
                        return  # group torn down under us; fit is ending
                time.sleep(0.002)

        thread = threading.Thread(
            target=run, name="repro-failure-injector", daemon=True
        )
        thread.start()
        return thread

    return start


def run_failure_injection(
    cfg: FailureInjectionConfig | None = None,
) -> ExperimentResult:
    """Kill a shard worker mid-fit and measure what the elastic recovery
    actually costs — then price the same detour with the analytic
    :func:`repro.device.cluster.recovery_time` model.

    Two fits of the identical workload: a failure-free *reference* (also
    the per-iteration time calibration for the model's replay term) and
    an *injected* run where a watcher thread SIGKILLs the last shard's
    worker process right after the epoch-``kill_epoch`` anchor
    checkpoint.  The injected fit must complete by shrinking to ``g - 1``
    shards and restoring the checkpoint; its final weights are compared
    against the reference under the documented 1e-6-of-scale bound.
    """
    from repro.device.cluster import recovery_time, transport_interconnect
    from repro.shard.transport import resolve_transport

    cfg = cfg or FailureInjectionConfig()
    if not failure_injection_supported(cfg.transport):
        raise ConfigurationError(
            f"failure injection needs an available process-backed "
            f"transport (executors owning killable worker processes); "
            f"{cfg.transport!r} is not"
        )
    if cfg.g < 2:
        raise ConfigurationError(
            f"failure injection needs g >= 2 to shrink, got g={cfg.g}"
        )
    if cfg.kill_epoch >= cfg.epochs:
        raise ConfigurationError(
            f"kill_epoch={cfg.kill_epoch} never happens in "
            f"{cfg.epochs} epochs"
        )

    reference, ref_wall = _fit_once(cfg)
    steps_per_epoch = -(-cfg.n // cfg.m)
    iteration_s = ref_wall / max(1, cfg.epochs * steps_per_epoch)

    injected, _ = _fit_once(cfg, injector=_kill_watcher(cfg))
    log = injected["recovery_log"]
    event = log[0] if log else None

    scale = float(np.max(np.abs(reference["weights"]))) or 1.0
    max_diff = float(
        np.max(np.abs(injected["weights"] - reference["weights"]))
    )

    interconnect = transport_interconnect(
        resolve_transport(cfg.transport).link_name()
    )
    modelled_s = recovery_time(
        interconnect,
        cfg.g,
        weight_scalars=float(cfg.n * cfg.l),
        resident_scalars=float(cfg.n * (cfg.d + cfg.l)),
        replayed_iterations=event.replayed_steps if event else 0,
        iteration_time_s=iteration_s,
    )

    result = ExperimentResult(
        name=f"failure-injection-{cfg.transport}",
        title=(
            "Elastic fault recovery under injected worker failure "
            f"({cfg.transport} transport; measured vs modelled "
            "recovery cost)"
        ),
        notes=(
            f"workload: n={cfg.n}, d={cfg.d}, l={cfg.l}, m={cfg.m}, "
            f"g={cfg.g}, epochs={cfg.epochs}, "
            f"checkpoint_every={cfg.checkpoint_every}; worker of the "
            f"last shard SIGKILLed after the epoch-{cfg.kill_epoch} "
            "anchor checkpoint; reference fit calibrates the model's "
            "per-iteration replay cost."
        ),
    )
    result.add_row(
        transport=cfg.transport,
        shards=cfg.g,
        recoveries=len(log),
        old_g=event.old_g if event else None,
        new_g=event.new_g if event else None,
        dead_shards=list(event.dead_shards) if event else [],
        replayed_steps=event.replayed_steps if event else None,
        measured_recovery_ms=(
            round(1e3 * event.recovery_s, 3) if event else None
        ),
        modelled_recovery_ms=round(1e3 * modelled_s, 3),
        iteration_ms=round(1e3 * iteration_s, 3),
        weight_max_diff=max_diff,
        weight_scale=scale,
        weight_rel_diff=max_diff / scale,
        error=event.error if event else None,
    )

    result.add_claim(
        PaperClaim(
            claim_id="recovery/elastic-shrink",
            description=(
                "An injected worker kill mid-fit completes the fit by "
                f"shrinking to g-1={cfg.g - 1} shards and restoring the "
                "last checkpoint (exactly one bounded recovery, no hang)"
            ),
            paper="(fault-tolerance extension of the Section-6 direction)",
            measured=(
                f"recoveries={len(log)}; "
                + (
                    f"g {event.old_g} -> {event.new_g}, replayed "
                    f"{event.replayed_steps} steps, "
                    f"{1e3 * event.recovery_s:.1f}ms ({event.error})"
                    if event
                    else "no failure was injected in time"
                )
            ),
            holds=(
                len(log) == 1
                and event.new_g == cfg.g - 1
                and injected["final_g"] == cfg.g - 1
            ),
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="recovery/weights-match",
            description=(
                "Recovered final weights match the failure-free run "
                f"within {cfg.weight_tolerance:g} of the weight scale "
                "(replay is exact; only the shrunken plan's collective "
                "association order differs)"
            ),
            paper="(documented recovery exactness bound; repro.shard)",
            measured=(
                f"max|diff|={max_diff:.3e} at scale {scale:.3e} "
                f"(rel {max_diff / scale:.3e})"
            ),
            holds=bool(event) and max_diff <= cfg.weight_tolerance * scale,
        )
    )
    result.add_claim(
        PaperClaim(
            claim_id="recovery/modelled-cost",
            description=(
                "The alpha-beta recovery_time model prices the same "
                "detour (re-shard + restore + replay) — informational: "
                "measured recovery is dominated by real fork/spawn and "
                "shared-memory setup the generic spawn constant only "
                "approximates"
            ),
            paper="network bandwidth must be taken into account (Section 2)",
            measured=(
                f"modelled {1e3 * modelled_s:.1f}ms vs measured "
                + (f"{1e3 * event.recovery_s:.1f}ms" if event else "n/a")
            ),
            holds=None,
        )
    )
    return result
